#include "callgraph.h"

#include <map>
#include <optional>
#include <set>
#include <string>

namespace eagle::lint {

namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.compare(0, std::string(prefix).size(), prefix) == 0;
}

std::size_t MatchParen(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "(")) ++depth;
    if (IsPunct(toks[j], ")")) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return toks.size();
}

// Index of the "(" matching the ")" at `close`, or npos.
std::size_t MatchParenBack(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    if (IsPunct(toks[j], ")")) ++depth;
    if (IsPunct(toks[j], "(")) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return std::string::npos;
}

bool SuppressedAt(const FileIndex& file, int line, const char* rule) {
  const auto it = file.suppressions.find(line);
  if (it == file.suppressions.end()) return false;
  return it->second.count(rule) > 0 || it->second.count("all") > 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ST01 — discarded Status/StatusOr return values.

std::vector<Diagnostic> CheckDiscardedStatus(const Index& index) {
  std::vector<Diagnostic> out;
  const std::set<std::string>& names = index.status_only_functions();
  if (names.empty()) return out;

  for (const FileIndex& file : index.files()) {
    const std::vector<Token>& toks = file.lexed.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier || !IsPunct(toks[i + 1], "(") ||
          names.count(toks[i].text) == 0) {
        continue;
      }
      // The whole call must be the full expression: `...);` with nothing
      // consuming the value after the close.
      const std::size_t close = MatchParen(toks, i + 1);
      if (close + 1 >= toks.size() || !IsPunct(toks[close + 1], ";")) continue;

      // Walk back over the receiver/qualifier chain (`a.b->C::name`).
      std::size_t j = i;
      while (j >= 2 &&
             (IsPunct(toks[j - 1], "::") || IsPunct(toks[j - 1], ".") ||
              IsPunct(toks[j - 1], "->")) &&
             toks[j - 2].kind == TokKind::kIdentifier) {
        j -= 2;
      }
      if (j >= 1 && IsPunct(toks[j - 1], "::")) --j;

      bool statement = false;
      bool voided = false;
      if (j == 0) {
        statement = true;
      } else {
        const Token& prev = toks[j - 1];
        // Note ":" is NOT a statement context: it is usually the false
        // arm of a ternary (`x ? a() : b();` — consumed), and a `case`
        // label before a discard is rare enough to under-report.
        if (IsPunct(prev, ";") || IsPunct(prev, "{") || IsPunct(prev, "}") ||
            prev.kind == TokKind::kPp) {
          statement = true;
        } else if (prev.kind == TokKind::kIdentifier &&
                   (prev.text == "else" || prev.text == "do")) {
          statement = true;
        } else if (IsPunct(prev, ")")) {
          const std::size_t open = MatchParenBack(toks, j - 1);
          if (open != std::string::npos) {
            if (open + 2 == j - 1 && toks[open + 1].kind ==
                                         TokKind::kIdentifier &&
                toks[open + 1].text == "void") {
              statement = true;  // (void)Call(); — cast-to-void discard
              voided = true;
            } else if (open >= 1 &&
                       toks[open - 1].kind == TokKind::kIdentifier &&
                       (toks[open - 1].text == "if" ||
                        toks[open - 1].text == "while" ||
                        toks[open - 1].text == "for" ||
                        toks[open - 1].text == "switch")) {
              statement = true;  // `if (c) Call();` — the call is the body
            }
          }
        }
      }
      if (!statement) continue;

      const std::string what = voided
          ? "' is (void)-cast away — the cast silences [[nodiscard]], so it "
            "needs an adjacent 'eagle-lint: allow(ST01)' comment justifying "
            "why the error cannot matter here"
          : "' is discarded — check it, propagate it, or (void)-cast it "
            "with an adjacent 'eagle-lint: allow(ST01)' justification";
      out.push_back(Diagnostic{
          "ST01", file.path, toks[i].line,
          "Status/StatusOr return value of '" + toks[i].text + what,
          toks[i].col});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// LK01 — opposite-order mutex acquisition.

std::vector<Diagnostic> CheckLockOrder(const Index& index) {
  struct EdgeSite {
    std::string fn;
    std::string file;
    int line = 1;
    int col = 1;
  };
  // (held, acquired) -> first site establishing that order.
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  for (const FileIndex& file : index.files()) {
    for (const FunctionInfo& fn : file.functions) {
      for (const LockSite& site : fn.locks) {
        for (const std::string& held : site.held) {
          for (const std::string& acquired : site.mutexes) {
            if (held == acquired) continue;
            edges.try_emplace({held, acquired},
                              EdgeSite{fn.qualified, file.path, site.line,
                                       site.col});
          }
        }
      }
    }
  }

  std::vector<Diagnostic> out;
  for (const auto& [key, site] : edges) {
    const auto& [a, b] = key;
    if (a > b) continue;  // handle each unordered pair once
    const auto inverse = edges.find({b, a});
    if (inverse == edges.end()) continue;
    const EdgeSite& other = inverse->second;
    const auto describe = [](const std::string& held,
                             const std::string& acquired,
                             const EdgeSite& here, const EdgeSite& there) {
      return "lock-order inversion: '" + held + "' is held while '" +
             acquired + "' is acquired in " + here.fn + ", but " + there.fn +
             " (" + there.file + ":" + std::to_string(there.line) +
             ") acquires them in the opposite order — deadlock under "
             "contention; pick one global acquisition order";
    };
    out.push_back(Diagnostic{"LK01", site.file, site.line,
                             describe(a, b, site, other), site.col});
    out.push_back(Diagnostic{"LK01", other.file, other.line,
                             describe(b, a, other, site), other.col});
  }
  return out;
}

// ---------------------------------------------------------------------------
// HP02 — hot-path functions whose call graph reaches an allocation.

namespace {

bool IsHotPath(const std::string& path) {
  return HasPrefix(path, "src/nn/") || HasPrefix(path, "src/sim/simulator.");
}

// The sanctioned allocation substrate: the arena and workspace pools plus
// src/support (telemetry/metrics registration and the resource pool —
// init-time allocation that hot paths may call through, never per-step).
bool IsSanctionedAlloc(const std::string& path) {
  return HasPrefix(path, "src/nn/arena.") ||
         HasPrefix(path, "src/sim/sim_workspace.") ||
         HasPrefix(path, "src/support/");
}

class EscapeAnalysis {
 public:
  explicit EscapeAnalysis(const Index& index) : index_(index) {}

  // The chain of definitions from calling `name` to an unsanctioned
  // allocation, or empty when every path is clean. Names resolving to
  // zero (external) or multiple (ambiguous) definitions are treated as
  // clean — under-reporting, never guessing.
  const std::vector<const FunctionInfo*>& Reaches(const std::string& name) {
    static const std::vector<const FunctionInfo*> kClean;
    const auto memo = memo_.find(name);
    if (memo != memo_.end()) return memo->second;
    if (in_progress_.count(name) > 0) return kClean;  // cycle guard
    in_progress_.insert(name);

    std::vector<const FunctionInfo*> chain;
    const auto defs = index_.Definitions(name);
    if (defs.size() == 1 && !IsSanctionedAlloc(defs[0]->file) &&
        !DefSuppressed(*defs[0])) {
      chain = ChainFrom(*defs[0]);
    }
    in_progress_.erase(name);
    return memo_.emplace(name, std::move(chain)).first->second;
  }

  // The escape chain for a known definition (used for hot entry points,
  // where the definition is in hand and suppression is handled by the
  // caller via the emitted diagnostic's line).
  std::vector<const FunctionInfo*> ChainFrom(const FunctionInfo& fn) {
    if (fn.allocates && !AllocSuppressed(fn)) return {&fn};
    for (const CallSite& call : fn.calls) {
      const auto& sub = Reaches(call.name);
      if (!sub.empty()) {
        std::vector<const FunctionInfo*> chain{&fn};
        chain.insert(chain.end(), sub.begin(), sub.end());
        return chain;
      }
    }
    return {};
  }

  bool AllocSuppressed(const FunctionInfo& fn) const {
    const FileIndex* file = index_.Find(fn.file);
    return file != nullptr && SuppressedAt(*file, fn.alloc_line, "HP02");
  }

 private:
  bool DefSuppressed(const FunctionInfo& fn) const {
    const FileIndex* file = index_.Find(fn.file);
    return file != nullptr && SuppressedAt(*file, fn.line, "HP02");
  }

  const Index& index_;
  std::map<std::string, std::vector<const FunctionInfo*>> memo_;
  std::set<std::string> in_progress_;
};

}  // namespace

std::vector<Diagnostic> CheckHotPathEscape(const Index& index) {
  std::vector<Diagnostic> out;
  EscapeAnalysis analysis(index);
  for (const FileIndex& file : index.files()) {
    if (!IsHotPath(file.path) || IsSanctionedAlloc(file.path)) continue;
    for (const FunctionInfo& fn : file.functions) {
      if (!fn.has_body) continue;
      // Direct allocation in a hot-path function: diagnose at the
      // allocation itself so a justification comment sits next to it.
      if (fn.allocates) {
        out.push_back(Diagnostic{
            "HP02", file.path, fn.alloc_line,
            "hot-path function '" + fn.qualified + "' allocates directly ('" +
                fn.alloc_what +
                "') — take scratch from the tensor arena / SimWorkspace "
                "pools, or justify one-time construction with an adjacent "
                "eagle-lint: allow(HP02)",
            1});
      }
      // Transitive escape through the call graph.
      std::vector<const FunctionInfo*> chain;
      for (const CallSite& call : fn.calls) {
        const auto& sub = analysis.Reaches(call.name);
        if (!sub.empty()) {
          chain.assign(sub.begin(), sub.end());
          break;
        }
      }
      if (chain.empty()) continue;
      std::string spelled = fn.qualified;
      for (const FunctionInfo* step : chain) spelled += " → " + step->qualified;
      const FunctionInfo& sink = *chain.back();
      out.push_back(Diagnostic{
          "HP02", file.path, fn.line,
          "hot-path function '" + fn.qualified +
              "' reaches an allocation outside the arena/workspace pools: " +
              spelled + " (allocates via '" + sink.alloc_what + "' at " +
              sink.file + ":" + std::to_string(sink.alloc_line) + ")",
          fn.col});
    }
  }
  return out;
}

}  // namespace eagle::lint
