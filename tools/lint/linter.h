// eagle-lint: repo-specific determinism / concurrency rule engine.
//
// The repo's headline guarantee is bit-identical training output at any
// --threads count, and every reward the RL agents see comes from the
// deterministic simulator — so the rules here ban whole *classes* of
// nondeterminism at the source level instead of hoping a sanitizer run
// happens to execute the offending path:
//
//   ND01  no nondeterminism sources (rand/srand/time()/std::random_device/
//         getenv/raw wall-clock reads) outside the sanctioned files
//   ND02  no iteration over std::unordered_map/set in src/core, src/rl,
//         src/sim — hash-table iteration order is unspecified and has
//         historically leaked into eviction choices and serialized output
//   CC01  raw std::mutex/std::thread/std::atomic confined to src/support
//         and the evaluation-service layer (eval_service/env)
//   DC01  no side-effecting expressions inside EAGLE_DCHECK (it compiles
//         to (void)0 in Release, so side effects would vanish there)
//   CP01  any file embedding the checkpoint magic ("EAGLCKP") must
//         reference kCheckpointFormatVersion, so magic and version
//         constant can never drift apart
//   HS01  every header starts with #pragma once
//   WC01  raw support::Stopwatch reads confined to src/support — hot-path
//         code (src/, examples/) times itself through EAGLE_SPAN /
//         support::metrics so wall clock stays a telemetry observer;
//         bench/ and tools/ are reporting sinks and exempt
//   HP01  no raw heap allocation (new/malloc) and no unordered containers
//         in the hot-path kernel files (src/nn, src/sim/simulator.cpp) —
//         scratch comes from the tensor arena / SimWorkspace pools
//         (src/nn/arena.*, src/sim/sim_workspace.h are the sanctioned
//         allocation layer and exempt)
//   IN01  no raw numeric conversions (std::stoll/strtod/atoi/sscanf/...)
//         in src/graph (outside record_reader.*) or the cluster-spec
//         importer (src/sim/cluster_ingest.*) — they throw or silently
//         saturate on hostile input; ingestion must classify failures
//         through graph::ParseInt64 / graph::ParseDouble instead
//   FP01  writes to the float environment (_mm_setcsr, the _MM_SET_*_MODE
//         macros, fesetenv/fesetround, FPCR writes, MXCSR/FPCR inline
//         asm) only in src/nn/float_mode.cpp — the nn layer's flush scope
//         is the one place a thread's float mode may change
//
// v2 adds cross-file rules that run over a whole-tree index (phase 1 in
// index.{h,cpp}; phase 2 in include_graph.cpp / callgraph.cpp):
//
//   LY01  layering: enforce the layer DAG support → graph → partition →
//         nn → sim → models → core → rl on resolved #include edges (no
//         back-edges; include cycles diagnosed with the full chain)
//   ST01  a discarded Status/StatusOr return value is an error (paired
//         with [[nodiscard]] on both types in src/support/status.h)
//   LK01  two functions acquiring the same two mutexes in opposite
//         orders — built from the global lock-acquisition-order graph
//   HP02  flow-aware HP01: a hot-path function whose *call graph*
//         reaches an allocating function outside the arena/workspace
//         allowlist, not just a textual new/malloc in the file
//
// Suppression: a `// eagle-lint: allow(ND02)` comment on the same line
// (or the line above) waives that rule for that line, in both phases.
// Rules, scopes and allowlists are data — see Rules() in linter.cpp.
#pragma once

#include <string>
#include <vector>

#include "index.h"

namespace eagle::lint {

struct Diagnostic {
  std::string rule;     // "ND01", ...
  std::string file;     // repo-relative path, forward slashes
  int line = 1;
  std::string message;
  int col = 1;  // last member: v1 call sites aggregate-initialize without it
};

struct RuleInfo {
  std::string id;
  std::string severity;              // "error" (reserved: "warning")
  std::string summary;
  std::vector<std::string> scopes;   // path prefixes checked (empty: all)
  std::vector<std::string> allow;    // path prefixes exempted
};

// The rule catalogue (static data; documented in docs/STATIC_ANALYSIS.md).
const std::vector<RuleInfo>& Rules();

// Lints one file with the per-file (v1) rules only. `rel_path`
// (repo-relative, forward slashes) drives rule scoping and allowlists.
// `companion_header` may hold the source of the matching X.h when
// linting X.cpp, so unordered-container members declared in the header
// are tracked when the .cpp iterates them. Cross-file rules need a whole
// tree — use Analyzer (or LintTree) for those.
std::vector<Diagnostic> LintSource(const std::string& rel_path,
                                   const std::string& source,
                                   const std::string& companion_header = "");

struct TreeResult {
  std::vector<Diagnostic> diagnostics;
  int files_scanned = 0;
  int suppressed = 0;  // findings waived by eagle-lint: allow(...) comments
};

// The two-phase analyzer. AddFile() indexes (phase 1); Run() executes
// the per-file rules plus the cross-file rules over the accumulated
// index (phase 2), applies suppressions, and returns diagnostics sorted
// by (file, line, col). Fixture tests add in-memory files directly;
// LintTree() is the filesystem front end.
class Analyzer {
 public:
  void AddFile(const std::string& rel_path, const std::string& source);
  TreeResult Run() const;

 private:
  Index index_;
};

// Walks src/ bench/ tools/ tests/ examples/ under `root` and runs both
// phases over every C++ file. tests/lint_fixtures/ (seeded violations
// for the lint self-tests) is excluded.
TreeResult LintTree(const std::string& root);

// "file:line: severity: [ID] message"
std::string FormatDiagnostic(const Diagnostic& d);

}  // namespace eagle::lint
