"""One repetition of one workload, in a fresh interpreter so caches start cold.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the keys ``root``
(the checkout), ``workload``, ``seed``, ``size``, ``trace``,
``setup_only`` and ``spans_file``.  The last line of standard output is one
JSON object; ``ready`` is the ``perf_counter`` reading (a clock shared by all
processes) taken once ``wlpgraph`` and its CLI module are imported, from
which the parent derives the set-up time.
"""

import json
import os
import resource
import sys
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import wlpgraph
    import wlpgraph.cli  # noqa: F401  (part of the measured set-up)

    ready = perf_counter()
    if not os.path.abspath(wlpgraph.__file__).startswith(src + os.sep):
        print(f"wlpgraph imported from {wlpgraph.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"ready": ready}
    if not spec["setup_only"]:
        result.update(run(spec))
    print(json.dumps(result))
    return 0


def run(spec: dict) -> dict:
    import workloads
    from tracer import Tracer

    make_inputs, execute = workloads.WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec["seed"], spec["size"])
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    outcome = execute(inputs)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "wall_s": wall,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:20],
        "counters": outcome.counters,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["coverage"] = tracer.top_level_seconds() / wall
        out["slowest"] = tracer.slowest_rank_calls()
        if spec["spans_file"]:
            with open(spec["spans_file"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
