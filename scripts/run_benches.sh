#!/usr/bin/env bash
# Regenerates every paper table and figure, the heterogeneous-cluster
# comparison (BENCH_clusters.json) and the kernel baselines
# (BENCH_kernels.json). Usage:
#   scripts/run_benches.sh [build-dir] [out-dir]
# scripts/run_ci.sh reads the bench names from the one-line `for b in`
# loop below, checks them against bench/CMakeLists.txt, and reruns this
# script with --help appended to every invocation, so every flag parses.
set -euo pipefail
BUILD=${1:-build}
OUT=${2:-results}
mkdir -p "$OUT"
for b in table1 table2 table3 table4 fig2 fig5 fig6 fig7 ablation faults clusters; do
  echo "=== bench_$b ==="
  flags=(--csv="$OUT/")
  if [ "$b" = clusters ]; then flags+=(--out="$OUT/BENCH_clusters.json"); fi
  "$BUILD/bench/bench_$b" "${flags[@]}"
done
echo "=== bench_micro ==="
"$BUILD/bench/bench_micro" --out="$OUT/BENCH_kernels.json"
echo ALL_BENCHES_DONE
