"""The reference figures of the full-size runs, each once in a fresh interpreter.

    python3 perfbench/reference.py

Runs the paper's whole lollipop grid (m <= 8, n <= 20, 160 cells, --jobs 1)
and the single P_20 ell^2 elimination from degree 5 that dominates it.  Both
are too long for a benchmark run; together they take about two and a half
minutes on a 2-core machine.  Results go to ``perfbench/out/reference.json``.
"""

import json
import os
import sys

import run as bench


def main() -> int:
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    results = {"env": bench.environment()}
    ok = True
    for name in ("lollipop-grid", "path-ell2"):
        spec = {"root": bench.ROOT, "workload": name, "seed": 0, "size": "paper", "trace": 0,
                "setup_only": False, "spans_file": None}
        out = bench.launch(spec, 600)
        ok = ok and out is not None and out["failed"] == 0
        results[name] = out
        if out is not None:
            print(f"{name} (paper size): wall_s {out['wall_s']:.2f} s | cpu_s {out['cpu_s']:.2f} s"
                  f" | peak_rss_mb {out['peak_rss_mb']:.0f} MB | failed {out['failed']}/{out['attempted']}")
    with open(os.path.join(bench.OUT_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
