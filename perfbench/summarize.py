"""Summarize benchmark run records across seeds.

Usage (from the repository root)::

    python3 perfbench/summarize.py [--out FILE]

Reads every ``perfbench/out/<workload>-seed<n>-trace<t>.json`` record and
prints, per workload and metric, the median, the quartiles and the spread
(interquartile distance over the median) across seeds, untraced and traced
runs apart.  ``--out`` also writes the summary as JSON, which is how
``perfbench/ledger.json`` is made.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(records):
    """{workload: {metric: {median, q1, q3, spread, unit, runs}}}."""
    values = {}
    for record in records:
        workload = record["provenance"]["workload"]
        for name, metric in record["metrics"].items():
            if metric["value"] is not None:
                values.setdefault(workload, {}).setdefault(
                    name, (metric["unit"], []))[1].append(metric["value"])
    summary = {}
    for workload, metrics in sorted(values.items()):
        for name, (unit, found) in sorted(metrics.items()):
            median = statistics.median(found)
            q1, _, q3 = (statistics.quantiles(found, n=4)
                         if len(found) > 1 else (median, median, median))
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "unit": unit,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(found)}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args(argv)
    ledger = {"provenance": None, "seeds": {}}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        records = []
        for path in sorted(glob.glob(os.path.join(
                HERE, "out", f"*-seed*-trace{trace}.json"))):
            with open(path) as handle:
                records.append(json.load(handle))
        if not records:
            continue
        provenance = records[0]["provenance"]
        ledger["provenance"] = {key: provenance[key] for key in
                                ("commit", "python", "numpy", "nproc",
                                 "seconds")}
        ledger["seeds"][section] = sorted(
            {r["provenance"]["seed"] for r in records})
        ledger[section] = summarize(records)
        print(f"== {section} (trace {trace}, {len(records)} runs)")
        for workload, metrics in ledger[section].items():
            print(workload)
            for name, row in metrics.items():
                print(f"  {name:45} median {row['median']:<12.6g} "
                      f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                      f"spread {row['spread']:.3f}  {row['unit']} "
                      f"(runs={row['runs']})")
    if ledger["provenance"] is None:
        print("no run records under perfbench/out", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
