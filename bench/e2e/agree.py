#!/usr/bin/env python3
"""Judge bench_e2e result sets against the bounds in BENCHMARK.json.

    python3 bench/e2e/agree.py SET            # how steady is one set?
    python3 bench/e2e/agree.py SET_A SET_B    # does B agree with A?

A set is a JSON-lines file of result records, one per run, as written by
`run.py --json <file>` or `bench_e2e --json=<file>`. Untraced records are
judged on the end-to-end metrics of BENCHMARK.json, per workload; traced
records and the untraced details are shown with --details, unjudged.

One set: each metric's median, quartiles and spread (the distance between
the quartiles as a share of the median) with a verdict: "steady" when the
spread is at most a third of the metric's bound, "within" when it is at
most the bound, "wide" otherwise. setup_s is exempt from the spread rule.

Two sets (A = parent, B = change): "regressed" when B's median is worse
than A's by more than the bound, "improved" when better by more than it,
"agree" otherwise, and "unresolved" when either set's spread is wider
than the bound, unless every run of B reads better than every run of A.

Exit status: 1 when a metric is wide (one set) or regressed or unresolved
(two sets), else 0. Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                sys.exit(f"agree.py: {path}:{number}: not JSON: {error}")
    return records


def values_by_key(records, traced, section):
    """{(workload, metric): [values...]} from the records of one mode."""
    table = {}
    for record in records:
        if bool(record.get("trace")) != traced:
            continue
        for name, metric in record.get(section, {}).items():
            table.setdefault((record["workload"], name), []).append(metric["value"])
    return table


def describe(values):
    """(median, q1, q3, spread) of a sample."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(middle) if middle else float("inf")
    return middle, q1, q3, spread


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def one_set(table, bounds):
    print(f"{'workload':<18} {'metric':<12} {'n':>3} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>8} {'bound':>6}  verdict")
    failing = False
    for (workload, name), values in sorted(table.items()):
        if name not in bounds:
            continue
        middle, q1, q3, spread = describe(values)
        bound = bounds[name]["bound"]
        if name == "setup_s":
            verdict = "exempt"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict = "wide"
            failing = True
        print(f"{workload:<18} {name:<12} {len(values):>3} {middle:>13.6g} {q1:>13.6g} "
              f"{q3:>13.6g} {spread:>7.1%} {bound:>6.0%}  {verdict}")
    return failing


def two_sets(table_a, table_b, bounds):
    print(f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':>40} "
          f"{'B median [q1, q3]':>40} {'worse by':>9} {'bound':>6}  verdict")
    failing = False
    for key in sorted(set(table_a) | set(table_b)):
        workload, name = key
        if name not in bounds:
            continue
        if key not in table_a or key not in table_b:
            print(f"{workload:<18} {name:<12} missing from set {'A' if key not in table_a else 'B'}")
            failing = True
            continue
        a, b = table_a[key], table_b[key]
        better = bounds[name]["better"]
        bound = bounds[name]["bound"]
        med_a, q1_a, q3_a, spread_a = describe(a)
        med_b, q1_b, q3_b, spread_b = describe(b)
        change = worse_by(med_a, med_b, better)
        b_always_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        if max(spread_a, spread_b) > bound and not b_always_better:
            verdict = "unresolved"
        elif change > bound:
            verdict = "regressed"
        elif change < -bound or (max(spread_a, spread_b) > bound and b_always_better):
            verdict = "improved"
        else:
            verdict = "agree"
        failing = failing or verdict in ("regressed", "unresolved")
        print(f"{workload:<18} {name:<12} "
              f"{f'{med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}]':>40} "
              f"{f'{med_b:.6g} [{q1_b:.6g}, {q3_b:.6g}]':>40} "
              f"{change:>8.1%} {bound:>6.0%}  {verdict}")
    return failing


def show_details(sets):
    """Medians of everything unjudged: untraced details, traced metrics and details."""
    for label, records in sets:
        for traced, section in ((False, "details"), (True, "metrics"), (True, "details")):
            table = values_by_key(records, traced, section)
            if not table:
                continue
            mode = "traced" if traced else "untraced"
            print(f"\n{label}: {mode} {section} (median of n runs, not judged)")
            for (workload, name), values in sorted(table.items()):
                print(f"  {workload:<18} {name:<40} {len(values):>3} "
                      f"{statistics.median(values):>16.6g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="SET", help="JSON-lines result file (1 or 2)")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK, help="path of BENCHMARK.json")
    parser.add_argument("--details", action="store_true", help="also show unjudged numbers")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one set, or two to compare")
    with open(args.benchmark, encoding="utf-8") as handle:
        bounds = {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}

    loaded = [(path, load_records(path)) for path in args.sets]
    for path, records in loaded:
        wrong = [r for r in records if not r.get("correct", False)]
        if wrong:
            print(f"{path}: {len(wrong)} run(s) failed their output checks")
    tables = [values_by_key(records, False, "metrics") for _, records in loaded]
    if len(tables) == 1:
        failing = one_set(tables[0], bounds)
    else:
        failing = two_sets(tables[0], tables[1], bounds)
    if args.details:
        show_details(loaded)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
