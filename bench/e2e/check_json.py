#!/usr/bin/env python3
"""Checks bench/e2e result files against BENCHMARK.json.

    python3 bench/e2e/check_json.py --benchmark=BENCHMARK.json [--trace=1] \
        build-e2e/out/<workload>.json ...

Fails (exit 1) when a result file is unreadable, reports failed
correctness checks, or when its end-to-end metrics (and with --trace=1 its
per-layer metrics) differ from the names BENCHMARK.json declares: a
declared metric is missing, non-finite or in another unit, or an
undeclared one is present.
"""

import argparse
import json
import math
import sys


def check(result, sections):
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correctness checks failed: {result.get('failures')}")
    for section, declared in sections:
        got = result.get(section)
        if not isinstance(got, dict):
            problems.append(f"no '{section}' object")
            continue
        for metric in declared:
            entry = got.get(metric["name"])
            if not isinstance(entry, dict):
                problems.append(f"{section}: '{metric['name']}' missing")
                continue
            value = entry.get("value")
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                problems.append(
                    f"{section}: '{metric['name']}' is not finite: {value!r}")
            if entry.get("unit") != metric["unit"]:
                problems.append(
                    f"{section}: '{metric['name']}' unit {entry.get('unit')!r},"
                    f" BENCHMARK.json says {metric['unit']!r}")
        names = {metric["name"] for metric in declared}
        for extra in sorted(set(got) - names):
            problems.append(f"{section}: '{extra}' not in BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    sections = [("end_to_end", spec["end_to_end"])]
    if args.trace:
        sections.append(("per_layer", spec["per_layer"]))

    failures = 0
    for path in args.results:
        try:
            with open(path) as f:
                problems = check(json.load(f), sections)
        except (OSError, ValueError) as error:
            problems = [str(error)]
        for problem in problems:
            print(f"check_json: {path}: {problem}")
        failures += bool(problems)
    print(f"check_json: {len(args.results)} result file(s), "
          f"{failures} with problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
