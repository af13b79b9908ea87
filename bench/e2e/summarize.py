#!/usr/bin/env python3
"""Summarizes end-to-end benchmark runs.

    summarize.py --benchmark BENCHMARK.json RESULTS.jsonl [--against BASE.jsonl]

RESULTS.jsonl holds one line per run, as bench/e2e/run.sh writes them:
    {"workload": ..., "seed": ..., "trace": 0|1, "exit": ..., "result": {...}}

For every workload it prints each metric's median and quartile spread
(the distance between the first and third quartile, over the median, as
statistics.quantiles(values, n=4) gives them), and flags:
  * a run that failed, printed no result, or disagreed with the oracle;
  * a result whose metric names differ from BENCHMARK.json;
  * an end-to-end metric whose spread exceeds its bound (setup_s is
    reported but exempt: set-up spans key generation and first-touch
    costs that vary run to run);
  * with --against: an end-to-end metric whose median is worse than the
    base set's median by more than its bound.
Exits 1 when anything is flagged, so noise fails loudly instead of passing.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def group(runs):
    groups = defaultdict(list)
    for run in runs:
        groups[(run["workload"], run["trace"])].append(run)
    return groups


def metric_values(runs):
    values = defaultdict(list)
    for run in runs:
        result = run.get("result") or {}
        for name, metric in result.get("metrics", {}).items():
            values[name].append(metric["value"])
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--against")
    parser.add_argument("results")
    args = parser.parse_args()

    bench = json.load(open(args.benchmark))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    runs = load_runs(args.results)
    base = group(load_runs(args.against)) if args.against else {}
    flags = []

    for (workload, trace), wruns in sorted(group(runs).items()):
        expected = e2e if trace == 0 else layers
        print(f"== {workload} ({'traced' if trace else 'untraced'}, {len(wruns)} runs)")
        for run in wruns:
            result = run.get("result")
            if run["exit"] != 0:
                flags.append(f"{workload} seed {run['seed']}: exit {run['exit']}")
            if result is None:
                flags.append(f"{workload} seed {run['seed']}: no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                flags.append(f"{workload} seed {run['seed']}: {result['failed']} of "
                             f"{result['attempted']} outcomes disagree with the oracle")
            if set(result["metrics"]) != set(expected):
                flags.append(f"{workload} seed {run['seed']}: metric names differ from "
                             "BENCHMARK.json")
        values = metric_values(wruns)
        base_values = metric_values(base.get((workload, trace), []))
        print(f"   {'metric':46} {'unit':>6} {'median':>14} {'spread':>8} {'bound':>7}"
              + (f" {'vs base':>9}" if args.against else ""))
        for name in expected:
            vals = values.get(name, [])
            if not vals:
                continue
            median = statistics.median(vals)
            s = spread(vals)
            bound = expected[name].get("bound")
            line = (f"   {name:46} {expected[name]['unit']:>6} {median:14.6g} {100 * s:7.2f}%"
                    f" {'' if bound is None else f'{100 * bound:6.1f}%':>7}")
            if bound is not None and name != "setup_s" and s > bound:
                flags.append(f"{workload} {name}: spread {100 * s:.2f}% exceeds bound "
                             f"{100 * bound:.1f}%")
                line += "  SPREAD"
            if args.against and base_values.get(name):
                base_median = statistics.median(base_values[name])
                change = (median - base_median) / base_median if base_median else 0.0
                line += f" {100 * change:+8.2f}%"
                worse = change if expected[name]["better"] == "lower" else -change
                if bound is not None and worse > bound:
                    flags.append(f"{workload} {name}: median {100 * change:+.2f}% vs base "
                                 f"exceeds bound {100 * bound:.1f}%")
                    line += "  WORSE"
            print(line)

    for flag in flags:
        print(f"FLAG: {flag}")
    print("OK" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
