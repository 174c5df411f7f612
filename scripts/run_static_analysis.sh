#!/usr/bin/env bash
# Static analysis + audited test pass:
#   1. eagle-lint over the whole tree (determinism / concurrency /
#      iteration-order rules — see docs/STATIC_ANALYSIS.md),
#   2. header self-containment (every header compiles on its own),
#   3. the tier-1 test suite in an EAGLE_AUDIT build, where the
#      simulator re-verifies every schedule it produces, then two
#      audited 100k-op graph_fuzz e2e runs (default and 2node8
#      clusters), whose simulator runs the auditor replays against the
#      sort-based memory sweep,
#   4. clang-tidy over compile_commands.json, when installed.
# Usage: scripts/run_static_analysis.sh [build-dir]
set -euo pipefail
BUILD=${1:-build-audit}

# RelWithDebInfo rather than Debug so the audited ctest pass stays fast;
# EAGLE_AUDIT=ON also keeps EAGLE_DCHECK live despite NDEBUG.
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEAGLE_AUDIT=ON
cmake --build "$BUILD" -j

echo "=== eagle-lint (two-phase, JSON) ==="
# One JSON-mode run: the exit code fails on any unsuppressed finding,
# and the machine-readable output is kept for inspection. "findings"
# is empty on a clean tree even when justified allow(...) waivers are
# present ("suppressed" counts those separately).
LINT_JSON=$(mktemp)
"$BUILD/tools/lint/eagle-lint" --root=. --format=json | tee "$LINT_JSON"
grep -q '"findings": \[\]' "$LINT_JSON" ||
  { echo "unsuppressed lint findings (see above)"; rm -f "$LINT_JSON"; exit 1; }
rm -f "$LINT_JSON"
echo LINT_CLEAN

echo "=== header self-containment ==="
for header in $(find src -name '*.h' | sort); do
  # Compile a one-line TU including only this header: it must bring in
  # everything it needs itself.
  echo "#include \"${header#src/}\"" |
    c++ -std=c++20 -fsyntax-only -I src -x c++ - ||
    { echo "not self-contained: $header"; exit 1; }
done
echo HEADERS_SELF_CONTAINED

echo "=== audited test suite ==="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")
echo AUDITED_TESTS_CLEAN

echo "=== audited 100k-op e2e runs ==="
"$BUILD/tools/graph_fuzz" --mode=e2e --ops=100000 --seed=7
"$BUILD/tools/graph_fuzz" --mode=e2e --ops=100000 --seed=7 --cluster=2node8
echo AUDITED_E2E_CLEAN

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy ==="
  find src tools -name '*.cpp' | sort |
    xargs -P "$(nproc)" -n 8 clang-tidy -p "$BUILD" --quiet
  echo CLANG_TIDY_CLEAN
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

echo STATIC_ANALYSIS_CLEAN
