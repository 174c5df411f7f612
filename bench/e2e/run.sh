#!/usr/bin/env bash
# End-to-end training benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed=7] [--workloads=a,b,...] [--seconds=N]
#                    [--trace] [--smoke]
#
# The space-separated form `--workload NAME --seed N --seconds S
# --trace 0|1` is accepted too. Builds bench/e2e into build-e2e/
# (Release, the repository's own compile flags), runs each workload in its
# own process, and checks every result file against BENCHMARK.json with
# check_json.py. Results (<workload>.json), traces (trace_<workload>.json)
# and generated inputs land in build-e2e/out/. Each workload prints its
# metrics by name and unit, then one JSON result line; the last line of
# stdout is the last workload's. Exits non-zero when a workload fails its
# correctness checks or a result misses a metric.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
seed=7
seconds=15
trace=0
smoke=0
workloads=gnmt-eagle-ppo,gnmt-post-ppoce,fuzz40k-post-ppoce,gnmt-post-2node8-faults-t4

usage() {
  sed -n '2,16p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case $1 in
    --seed=*) seed=${1#*=} ;;
    --seconds=*) seconds=${1#*=} ;;
    --workload=* | --workloads=*) workloads=${1#*=} ;;
    --trace=*) trace=${1#*=} ;;
    --seed | --seconds | --workload | --workloads)
      [[ $# -ge 2 ]] || usage
      case $1 in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) workloads=$2 ;;
      esac
      shift
      ;;
    --trace)
      if [[ $# -ge 2 && ($2 == 0 || $2 == 1) ]]; then
        trace=$2
        shift
      else
        trace=1
      fi
      ;;
    --smoke) smoke=1 ;;
    *) usage ;;
  esac
  shift
done

build=$root/build-e2e
out=$build/out
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
jobs=$(nproc)
((jobs > 4)) && jobs=4
cmake --build "$build" --target eagle_e2e -j "$jobs" >&2
mkdir -p "$out"

flags=(--seed="$seed" --seconds="$seconds" --out="$out")
[[ $trace == 1 ]] && flags+=(--trace)
[[ $smoke == 1 ]] && flags+=(--smoke)
status=0
results=()
IFS=, read -ra names <<<"$workloads"
for name in "${names[@]}"; do
  rm -f "$out/$name.json"
  "$build/eagle_e2e" --workload="$name" --prepare --out="$out"
  "$build/eagle_e2e" --workload="$name" "${flags[@]}" || status=1
  results+=("$out/$name.json")
done
python3 "$here/check_json.py" --benchmark="$root/BENCHMARK.json" \
  --trace="$trace" "${results[@]}" >&2 || status=1
exit "$status"
