#!/usr/bin/env python3
"""Records and compares sets of bench/e2e runs.

Record: run bench/e2e/run.sh once per (workload, seed) and write every
run's metrics and history digest plus, per metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median.

    python3 bench/e2e/baseline.py --seeds=7,7,7,7,7 --out=set_a.json
    python3 bench/e2e/baseline.py --seeds=7,11,13,17,19 --out=seeds.json

Compare: for two recorded sets, check that every metric's medians differ
by no more than the metric's BENCHMARK.json bound (in the worse
direction) and that runs of the same seed agree on the history digest
and on best_step_s.

    python3 bench/e2e/baseline.py --compare set_a.json set_b.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def run_once(workload, seed, seconds, trace):
    command = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{proc.stdout}{proc.stderr}{' '.join(command)} exited "
                 f"{proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "build-e2e", "out", workload + ".json")) as f:
        detail = json.load(f)
    return {"seed": seed, "digest": detail["digest"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "per_repeat": detail["per_repeat"]}


def record(args):
    spec = load_spec()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    bounds = {m["name"]: m.get("bound") for m in section}
    report = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}",
                  flush=True)
        summary = {}
        for name in units:
            summary[name] = {"unit": units[name],
                             **summarize([r["metrics"][name] for r in runs])}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                flag = "  SPREAD ABOVE BOUND"
            print(f"  {workload:28s} {name:28s} median {s['median']:<12.6g}"
                  f" spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


def compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    problems = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from {args.compare[1]}")
            problems += 1
            continue
        for name, sa in wa["summary"].items():
            sb = wb["summary"][name]
            metric = metrics.get(name)
            if metric is None:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= metric["bound"]
            problems += not ok
            print(f"{workload:28s} {name:16s} A {sa['median']:<12.6g} "
                  f"B {sb['median']:<12.6g} change {change:+.4f} "
                  f"bound {metric['bound']} {'ok' if ok else 'WORSE'}")
        by_seed = {}
        for run in wa["runs"] + wb["runs"]:
            key = (run["seed"], run["digest"], run["metrics"]["best_step_s"])
            by_seed.setdefault(run["seed"], set()).add(key)
        for seed, keys in sorted(by_seed.items()):
            if len(keys) != 1:
                print(f"{workload}: seed {seed} runs disagree: {sorted(keys)}")
                problems += 1
    print(f"{problems} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,7,7,7,7")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if not args.out:
        parser.error("--out is required when recording")
    record(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
