#!/usr/bin/env python3
"""Spread and regression report over recorded cellbench runs.

    python3 cellbench/run.py --workload W --seed S --seconds 25 --record runs.jsonl
    python3 cellbench/compare.py runs.jsonl
    python3 cellbench/compare.py --base parent.jsonl change.jsonl

For every workload and end-to-end metric of BENCHMARK.json it prints the
median of the recorded runs and their spread: the distance between the
first and third quartile as a share of the median.  With --base it also
prints how much worse the median is than the base's median, as a share of
the base median.  Exits 1 when a spread other than setup_s's exceeds the
metric's bound, or a median is worse than the base's by more than it.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import stats  # noqa: E402


def load(path):
    """{workload: {metric: [values]}} of the untraced runs in a record."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] != 0:
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, m in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", help="JSON-lines file written by --record")
    parser.add_argument("--base", help="runs of the commit to compare with")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    new = load(args.runs)
    base = load(args.base) if args.base else {}
    ok = True
    for workload in sorted(new):
        print("%s (%d runs)" % (workload, len(new[workload]["setup_s"])))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = new[workload][name]
            spread = stats.relative_spread(values) if len(values) > 1 else 0.0
            line = "  %-16s median %-12.6g spread %6.3f (bound %.3f)" % (
                name, statistics.median(values), spread, bound)
            if name != "setup_s" and spread > bound:
                line += "  SPREAD TOO WIDE"
                ok = False
            if workload in base:
                before = base[workload][name]
                line += "  worse by %+.3f" % stats.worsening(
                    statistics.median(before), statistics.median(values),
                    m["better"])
                if stats.regressed(before, values, m["better"], bound):
                    line += "  REGRESSED"
                    ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
