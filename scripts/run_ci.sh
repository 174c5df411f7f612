#!/usr/bin/env bash
# The one-command CI gate, chaining every check the repo ships:
#   1. configure + build with -DEAGLE_WERROR=ON (a warning fails the
#      build), then a check that scripts/run_benches.sh runs every bench
#      bench/CMakeLists.txt defines and that each of its invocations
#      parses,
#   2. the tier-1 test suite, then the kernel and autograd suites again in
#      two more builds: one with -DEAGLE_SIMD=OFF, so the GEMM tile's
#      portable instance is tested on hosts where every other build takes
#      an intrinsics path, and one with -mno-avx512f, so the 8-lane (AVX2)
#      instance of the GEMM tile is tested on hosts where the default
#      build takes the 16-lane (AVX-512) one; and src/nn/tensor.cpp is
#      compiled once for a target without AVX (-march=x86-64), where any
#      diagnostic, a note included, fails,
#   3. a timed whole-tree eagle-lint v2 pass in JSON mode (cross-file
#      rules LY01/ST01/LK01/HP02 included) that must finish inside the
#      5 s tier-1 budget,
#   4. static analysis (eagle-lint, header self-containment, audited
#      tests, clang-tidy when installed — scripts/run_static_analysis.sh),
#   5. a telemetry smoke run: a tiny bench_fig5 training run with
#      --telemetry-out / --profile-out must produce JSONL that
#      tools/metrics_report parses and a Chrome trace containing
#      trainer-phase and simulator spans (see docs/OBSERVABILITY.md), and a
#      tiny bench_table3 run must write one checkpoint and one run_start
#      line per training run (REINFORCE, PPO and PPO+CE); the fig5 run's
#      training checkpoints and those of a tiny bench_table2 run must
#      match the sha256 sums pinned below, so every agent's training
#      output is pinned, not only the two the end-to-end smoke trains,
#   6. a resume smoke: both benches rerun with --resume into the pinned
#      checkpoint directory, so every pinned checkpoint loads through the
#      checkpoint codec (support/byte_io.h); each run resumes at its last
#      sample, so the table, the fig5 curves, summary and histories must
#      come out identical and no checkpoint may change,
#   7. a kernel-bench smoke run: bench_micro --smoke must complete and
#      emit well-formed BENCH_kernels.json with its gemm (one of them
#      narrower than 16 columns), simulator (one of them on a fuzz graph
#      placed by 16 METIS groups), tanh, expf and lstm_step rows
#      (tiny shapes — it guards the harness and the naive-reference
#      plumbing, not the perf ratios; see docs/PERFORMANCE.md),
#   8. an ingestion fuzz smoke: graph_fuzz built with ASan+UBSan mutates
#      seeded .eg/.json corpora 10k/2k times against the hardened parser
#      and METIS-groups and simulates every mutant it accepts (any crash,
#      uncaught throw or sanitizer report fails here), corrupts the shipped
#      cluster-spec files 2k times each against the cluster importer,
#      and runs a 100k-op generate→ingest→validate→group→simulate pass
#      end to end — once on the default box and once on the 2node8
#      hierarchical topology (see docs/GRAPH_FORMATS.md) — and checks that
#      a cluster without a GPU is refused with exit 2 by the GPU
#      placement paths of graph_fuzz and trace_placement,
#   9. an end-to-end benchmark smoke: bench/e2e/run.sh --smoke trains each
#      of the four benchmark workloads briefly, runs its correctness
#      checks (repeat digests, bit-exact re-evaluation of the best) and
#      fails on any missing or non-finite metric (see bench/e2e/README.md);
#      each workload's training digest must equal the value pinned below,
#      so any change to training arithmetic fails here instead of passing
#      as noise.
# Usage: scripts/run_ci.sh [build-dir]
set -euo pipefail
BUILD=${1:-build-ci}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEAGLE_WERROR=ON
cmake --build "$BUILD" -j
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

echo "=== bench list ==="
# The loop in run_benches.sh must name every bench_<name> that
# bench/CMakeLists.txt defines (bench_micro has a line of its own). The
# CMake file, not $BUILD/bench, is the list: a reused build directory
# keeps the executables of deleted benches.
defined=$(sed -n 's/^eagle_bench(bench_\(.*\))$/\1/p' bench/CMakeLists.txt |
  sort | xargs)
listed=$(sed -n 's/^for b in \(.*\); do$/\1/p' scripts/run_benches.sh |
  xargs -n1 | sort | xargs)
test "$defined" = "$listed" ||
  { echo "run_benches.sh runs [$listed], bench/ defines [$defined]"; exit 1; }
# Every invocation in the script must parse. Rerun it against shims that
# append --help: ArgParser reads flags in order, so an unknown flag still
# exits 2, while --help prints the usage and exits 0 without training.
mkdir -p "$SMOKE/shims/bench"
for exe in "$(cd "$BUILD" && pwd)"/bench/bench_*; do
  printf '#!/bin/sh\nexec "%s" "$@" --help\n' "$exe" \
    >"$SMOKE/shims/bench/${exe##*/}"
  chmod +x "$SMOKE/shims/bench/${exe##*/}"
done
scripts/run_benches.sh "$SMOKE/shims" "$SMOKE/benches" >/dev/null
echo BENCH_LIST_CLEAN

echo "=== tier-1 test suite ==="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")
echo TESTS_CLEAN

echo "=== portable kernels (EAGLE_SIMD=OFF) ==="
cmake -B "$BUILD-nosimd" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEAGLE_SIMD=OFF
cmake --build "$BUILD-nosimd" -j --target test_kernels test_autograd
(cd "$BUILD-nosimd" &&
  ctest --output-on-failure -R '^(test_kernels|test_autograd)$')
echo PORTABLE_KERNELS_CLEAN

echo "=== portable kernels without AVX (-march=x86-64) ==="
# Without AVX a 32-byte vector passed by value changes ABI, and GCC says so
# with a note, which -Werror does not turn into a failure: any output of
# this compile fails here instead.
diag=$("${CXX:-c++}" -std=c++20 -O2 -march=x86-64 -ffp-contract=off \
  -Wall -Wextra -Wno-missing-field-initializers -Werror -DEAGLE_SIMD=1 \
  -Isrc -I. -c src/nn/tensor.cpp -o "$SMOKE/tensor_x86-64.o" 2>&1) ||
  { echo "$diag"; exit 1; }
test -z "$diag" || {
  echo "$diag"
  echo "src/nn/tensor.cpp prints diagnostics at -march=x86-64"
  exit 1
}
echo NO_AVX_BUILD_CLEAN

echo "=== 8-lane kernels (-mno-avx512f) ==="
# GCC keeps an explicit -mno-avx512f over the root's -march=native:
# __AVX2__ and __FMA__ stay defined and __AVX512F__ does not, so the GEMM
# tile builds at 8 lanes. On a host without AVX-512 this repeats the
# default build's path.
cmake -B "$BUILD-avx2" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-mno-avx512f
cmake --build "$BUILD-avx2" -j --target test_kernels test_autograd
(cd "$BUILD-avx2" &&
  ctest --output-on-failure -R '^(test_kernels|test_autograd)$')
echo AVX2_KERNELS_CLEAN

echo "=== eagle-lint v2 (cross-file, timed) ==="
# The two-phase linter must stay fast enough to live inside plain ctest:
# record its wall time over the whole tree and enforce the 5 s budget
# (the same budget the lint_repo ctest carries as TIMEOUT).
LINT_START=$(date +%s%N)
"$BUILD/tools/lint/eagle-lint" --root=. --format=json
LINT_MS=$(( ($(date +%s%N) - LINT_START) / 1000000 ))
echo "lint wall time: ${LINT_MS} ms"
test "$LINT_MS" -lt 5000 ||
  { echo "lint exceeded its 5 s tier-1 budget"; exit 1; }
echo LINT_V2_CLEAN

echo "=== static analysis ==="
scripts/run_static_analysis.sh "$BUILD-audit"

echo "=== telemetry smoke ==="
"$BUILD/bench/bench_fig5" --samples=20 --threads=2 \
  --telemetry-out="$SMOKE/run.jsonl" --profile-out="$SMOKE/profile.json" \
  --csv="$SMOKE/" --checkpoint-dir="$SMOKE/ck"
# The JSONL must cover the whole run and the profile must contain
# trainer-phase spans (an empty traceEvents array would grep clean on
# the header alone, so match an actual span name).
test -s "$SMOKE/run.jsonl"
grep -q '"event":"run_start"' "$SMOKE/run.jsonl"
grep -q '"event":"round"' "$SMOKE/run.jsonl"
grep -q '"event":"run_end"' "$SMOKE/run.jsonl"
grep -q '"name":"train\.' "$SMOKE/profile.json"
grep -q '"name":"eval\.' "$SMOKE/profile.json"
grep -q '"name":"sim\.run"' "$SMOKE/profile.json"
# metrics_report must parse every line and render the summary tables.
"$BUILD/tools/metrics_report" --in="$SMOKE/run.jsonl" --csv="$SMOKE/report_"
test -s "$SMOKE/report_runs.csv"
test -s "$SMOKE/report_phases.csv"
# bench_table3 trains its three runs (one per RL algorithm) through
# bench::TrainOnBenchmark like the other benches, so each run honours
# --checkpoint-dir and --telemetry-out. Its checkpoints go to their own
# directory, away from the pinned ones.
"$BUILD/bench/bench_table3" --models=inception_v3 --samples=20 \
  --threads=2 --checkpoint-dir="$SMOKE/table3_ck" \
  --telemetry-out="$SMOKE/table3.jsonl" >/dev/null
ckpts=$(find "$SMOKE/table3_ck" -name '*.ckpt' 2>/dev/null | wc -l || true)
starts=$(grep -c '"event":"run_start"' "$SMOKE/table3.jsonl" || true)
test "$ckpts" -eq 3 && test "$starts" -eq 3 ||
  { echo "bench_table3: $ckpts checkpoints, $starts run_start lines," \
      "want 3 of each"; exit 1; }
echo TELEMETRY_SMOKE_CLEAN

echo "=== training checkpoint pins ==="
# The end-to-end smoke below trains only EAGLE (PPO) and Post (PPO+CE).
# The final training checkpoints of the bench_fig5 run above and of this
# bench_table2 run also cover Hierarchical Planner (attention-after,
# REINFORCE) and the fixed-grouper seq2seq-before/-after and GCN placers.
# Pinned sha256 sums, recorded on an x86-64 AVX2+FMA RelWithDebInfo build.
# A change that is meant to alter training output re-pins them: rerun the
# two benches with --checkpoint-dir, copy each file's `sha256sum` into this
# table, and say in the change description why the bytes moved (see
# docs/PERFORMANCE.md, "Subnormals").
"$BUILD/bench/bench_table2" --models=inception_v3 --samples=20 \
  --checkpoint-dir="$SMOKE/ck" | tee "$SMOKE/table2.out"
CKPT_SHA256=(
  "b45db4b6c4a496f281f9f1d0105e90fd163ebe030562342d4cfc78eb708b2884 Inception-V3_EAGLE_PPO.ckpt"
  "274df5ce456e0830db1abcab195fbbea97995c55c0ecf7e456a0d6413d9cdc74 Inception-V3_Hierarchical Planner_REINFORCE.ckpt"
  "e37811f80428c4e294737c1b308e20bbdb637ecfbfa3294996f00d686dfa9807 Inception-V3_Post_PPO+CE.ckpt"
  "d1cf1ab0425dbd63653a657f0c3c1354721832eb6e61a8a48316a3502504d6be Inception-V3_placer:before_PPO.ckpt"
  "933c45dee9b6889e5792f0e2f7c72eae430bc80104b6b547624598f78c8cc3a3 Inception-V3_placer:after_PPO.ckpt"
  "bd59c2a55cce027936ddbfbbf4eb1c99fc2e6cfd56a61f58a26c4090f7069315 Inception-V3_placer:gcn_PPO.ckpt"
)
check_checkpoint_pins() {
  for pin in "${CKPT_SHA256[@]}"; do
    want=${pin%% *}
    file=${pin#* }
    got=$(sha256sum -- "$SMOKE/ck/$file" | cut -d' ' -f1)
    test "$got" = "$want" ||
      { echo "$file: checkpoint sha256 '$got' != pinned $want"; exit 1; }
  done
}
check_checkpoint_pins
echo CHECKPOINT_PINS_CLEAN

echo "=== resume smoke ==="
# Rerun both benches with --resume into the pinned directory: every run
# resumes at its last sample and trains nothing more, so stdout (table2)
# and the curves, summary and histories (fig5, into a fresh --csv prefix)
# must match the first runs byte for byte, and no pin may move.
"$BUILD/bench/bench_table2" --models=inception_v3 --samples=20 \
  --checkpoint-dir="$SMOKE/ck" --resume \
  >"$SMOKE/table2.resumed" 2>"$SMOKE/table2.resumed.log"
"$BUILD/bench/bench_fig5" --samples=20 --threads=2 --csv="$SMOKE/resumed_" \
  --checkpoint-dir="$SMOKE/ck" --resume >/dev/null 2>"$SMOKE/fig5.resumed.log"
for bench in table2 fig5; do
  resumed=$(grep -c 'resumed from' "$SMOKE/$bench.resumed.log" || true)
  test "$resumed" -eq 3 ||
    { echo "bench_$bench: $resumed 'resumed from' lines, want 3"; exit 1; }
done
cmp "$SMOKE/table2.out" "$SMOKE/table2.resumed"
for file in fig5_best.csv fig5_samples.csv fig5_summary.csv \
  fig5_EAGLE_history.csv fig5_Hierarchical_Planner_history.csv \
  fig5_Post_history.csv; do
  cmp "$SMOKE/$file" "$SMOKE/resumed_$file"
done
check_checkpoint_pins
echo RESUME_SMOKE_CLEAN

echo "=== kernel bench smoke ==="
"$BUILD/bench/bench_micro" --smoke --out="$SMOKE/BENCH_kernels.json"
test -s "$SMOKE/BENCH_kernels.json"
grep -q '"schema": "eagle.bench_kernels.v1"' "$SMOKE/BENCH_kernels.json"
grep -q '"smoke": true' "$SMOKE/BENCH_kernels.json"
grep -q '"kernel": "gemm"' "$SMOKE/BENCH_kernels.json"
# The masked-tail tile: an output narrower than one 16-lane vector.
grep -q '"kernel": "gemm", "m": 40, "k": 32, "n": 5,' \
  "$SMOKE/BENCH_kernels.json"
grep -q '"graph": "Inception-V3"' "$SMOKE/BENCH_kernels.json"
grep -q '"graph": "fuzz4k-metis16"' "$SMOKE/BENCH_kernels.json"
grep -q '"tanh": {"elements"' "$SMOKE/BENCH_kernels.json"
grep -q '"expf": {"elements"' "$SMOKE/BENCH_kernels.json"
grep -q '"lstm_step": \[' "$SMOKE/BENCH_kernels.json"
echo BENCH_SMOKE_CLEAN

echo "=== ingestion fuzz smoke (ASan+UBSan) ==="
# A dedicated sanitizer build of just the fuzz driver: the mutation loop
# must never crash, throw, or trip a sanitizer — every corrupted input
# comes back as a structured taxonomy error, and every accepted one is
# grouped and simulated without tripping one either.
cmake -B "$BUILD-fuzz" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEAGLE_SANITIZE=address
cmake --build "$BUILD-fuzz" -j --target graph_fuzz
FUZZ="$BUILD-fuzz/tools/graph_fuzz"
"$FUZZ" --mode=generate --ops=2000 --seed=3 --out="$SMOKE/corpus.eg"
"$FUZZ" --mode=generate --ops=500 --seed=4 --out="$SMOKE/corpus.json"
"$FUZZ" --mode=fuzz --in="$SMOKE/corpus.eg" --iters=10000 --seed=5
"$FUZZ" --mode=fuzz --in="$SMOKE/corpus.json" --iters=2000 --seed=6
# The cluster importer gets the same treatment: corrupted copies of the
# shipped topology specs must come back as taxonomy errors, never a
# crash or sanitizer report.
"$FUZZ" --mode=cluster-fuzz --in=clusters/2node8.ec --iters=2000 --seed=5
"$FUZZ" --mode=cluster-fuzz --in=clusters/mixed.ec --iters=2000 --seed=6
"$FUZZ" --mode=e2e --ops=100000 --seed=7
"$FUZZ" --mode=e2e --ops=100000 --seed=7 --cluster=2node8
# A GPU-less cluster passes ClusterSpec::Validate, but the METIS-balanced
# placement has no GPU to round-robin over: both tools must refuse it
# with a one-line diagnostic and exit 2 (not divide by zero).
cat >"$SMOKE/cpus.ec" <<'SPEC'
device /cpu:0 cpu gflops=80 mem_bw=60 overhead=25 mem=128849018880
device /cpu:1 cpu gflops=80 mem_bw=60 overhead=25 mem=128849018880
link /cpu:0 /cpu:1 bw=11 lat=50 bidir
SPEC
expect_exit_2() {
  local status=0
  "$@" || status=$?
  test "$status" -eq 2 ||
    { echo "$1 on a GPU-less cluster exited $status, want 2"; exit 1; }
}
expect_exit_2 "$BUILD/tools/trace_placement" --policy=balanced \
  --cluster="$SMOKE/cpus.ec" --out="$SMOKE/cpus.trace.json"
expect_exit_2 "$FUZZ" --mode=e2e --ops=2000 --seed=7 \
  --cluster="$SMOKE/cpus.ec"
echo FUZZ_SMOKE_CLEAN

echo "=== end-to-end benchmark smoke ==="
# Pinned --smoke digests, recorded on an x86-64 AVX2+FMA Release build.
# A change that is meant to alter training output re-pins them: run
# `bash bench/e2e/run.sh --smoke`, copy each "<workload> digest <hex>"
# line into this table, and say in the change description why the
# digests moved (see docs/PERFORMANCE.md, "Subnormals").
E2E_DIGESTS=(
  "gnmt-eagle-ppo 68c9969725e4607b"
  "gnmt-post-ppoce 033dbbe163ab5d35"
  "fuzz40k-post-ppoce 28d4e859553a6569"
  "gnmt-post-2node8-faults-t4 c05fbf3375184385"
)
bash bench/e2e/run.sh --smoke | tee "$SMOKE/e2e.out"
for pin in "${E2E_DIGESTS[@]}"; do
  read -r workload want <<<"$pin"
  got=$(awk -v w="$workload" '$1 == w && $2 == "digest" { print $3 }' \
    "$SMOKE/e2e.out")
  test "$got" = "$want" ||
    { echo "$workload: smoke digest '$got' != pinned $want"; exit 1; }
done
echo E2E_SMOKE_CLEAN

echo CI_CLEAN
