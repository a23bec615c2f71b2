"""Median and quartiles of every metric over the runs saved in ``perfbench/out``.

    python3 perfbench/summarize.py [--trace 0|1]

Groups the ``<workload>-seed<N>-trace<T>.json`` files of earlier runs by
workload and prints, per metric, the run count, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, as JSON.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", f"*-seed*-trace{args.trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["args"]["workload"], []).append(result)
    summary = {}
    for workload, results in runs.items():
        rows = {"runs": len(results), "seeds": sorted(r["args"]["seed"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results)}
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        summary[workload] = rows
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
