// Phase-2 rules built on the call/lock facts in the Index.
//
//   ST01  a call to a function that unambiguously returns
//         support::Status/StatusOr by value, used as a full discarded
//         statement, is an error. `(void)`-casting the call still fires
//         unless an adjacent `eagle-lint: allow(ST01)` justifies it —
//         the cast silences the compiler's [[nodiscard]], the comment
//         documents why that is safe.
//   LK01  two functions acquiring the same two mutexes in opposite
//         orders deadlock under contention. The rule builds the global
//         acquisition-order graph from every lock_guard / unique_lock /
//         scoped_lock / shared_lock site (a multi-mutex scoped_lock
//         acquires atomically and imposes no internal order) and flags
//         each inverted pair at both sites.
//   HP02  flow-aware escalation of HP01: a hot-path function (src/nn,
//         src/sim/simulator.*) whose call graph reaches an allocating
//         function outside the arena/workspace/support allowlist is
//         flagged with the full call chain. Names that resolve to more
//         than one definition are skipped, so the rule only
//         under-reports, never guesses.
#pragma once

#include <vector>

#include "index.h"
#include "linter.h"

namespace eagle::lint {

std::vector<Diagnostic> CheckDiscardedStatus(const Index& index);
std::vector<Diagnostic> CheckLockOrder(const Index& index);
std::vector<Diagnostic> CheckHotPathEscape(const Index& index);

}  // namespace eagle::lint
