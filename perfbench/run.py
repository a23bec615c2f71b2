"""wlpgraph benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Every repetition runs in a fresh interpreter (``worker.py``), so caches start
cold as they do for every CLI invocation.  Repetitions are started until the
next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``wall_s`` (first library call to last checked result),
``setup_s`` (interpreter start until ``wlpgraph`` and ``wlpgraph.cli`` are
imported, median over extra set-up-only launches and every repetition),
``cpu_s`` (user plus system time of the process and all its children) and
``peak_rss_mb`` (larger of the process's and its children's ``ru_maxrss``).
``failed_frac`` (failed over attempted operations) is printed in the summary
line; the result line carries ``attempted`` and ``failed``.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` plus
``trace.overhead_frac`` and ``trace.coverage_frac``, the share of traced wall
time covered by top-level spans.  It also prints the ten slowest
``exact_rank_info`` calls.

The measured runs keep the caller's environment and set no BLAS thread
limits.  Each run writes its samples and environment to
``perfbench/out/<workload>-seed<N>-trace<T>.json`` and, when traced, every
span of the last traced repetition to ``perfbench/out/spans-<workload>-seed<N>.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("lollipop-grid", "cycle-wlp", "tensor-blockcheck", "verify-audit")
SETUP_SAMPLES = 8        # set-up-only launches per run, besides one per repetition
RUN_LIMIT_S = 170        # every run ends well inside three minutes
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (*Tracer().layer_metrics(), "verify.recorded_calls", "verify.crosschecked_calls",
             "trace.overhead_frac", "trace.coverage_frac")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_ratio", "_yield", "_frac")):
        return "frac"
    return "count"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def steal_seconds() -> float | None:
    """Time the hypervisor ran others on this machine's CPUs (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def launch(spec: dict, timeout: float) -> dict | None:
    """Run one worker; None if it failed, timed out or printed no result."""
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker timed out: {spec['workload']}", file=sys.stderr)
        return None
    finally:
        try:  # children left behind by a crashed worker share its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wlpgraph", "__init__.py")):
        print(f"no wlpgraph sources under {ROOT}/src", file=sys.stderr)
        return 2
    start = perf_counter()
    steal_start = steal_seconds()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}"
    base = {"root": ROOT, "workload": args.workload, "seed": args.seed, "size": "full",
            "trace": 0, "setup_only": False, "spans_file": None}

    def remaining() -> float:
        return RUN_LIMIT_S - (perf_counter() - start)

    setups = [launch(dict(base, setup_only=True), remaining()) for _ in range(SETUP_SAMPLES)]
    if args.trace:
        cycle = [base, dict(base, trace=1, spans_file=os.path.join(OUT_DIR, f"spans-{tag}.json"))]
    else:
        cycle = [base]
    plain, traced, crashed = [], [], 0
    while True:
        t_cycle = perf_counter()
        for spec in cycle:
            result = launch(spec, remaining())
            if result is None:
                crashed += 1
            else:
                (traced if spec["trace"] else plain).append(result)
        elapsed = perf_counter() - start
        if crashed or elapsed + (perf_counter() - t_cycle) > args.seconds:
            break

    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples) + crashed
    failed = sum(r["failed"] for r in samples) + crashed
    for r in samples:
        for line in r["errors"]:
            print(f"gate: {line}", file=sys.stderr)
    setup_values = [r["setup_s"] for r in setups + samples if r is not None]
    if steal_start is not None:
        env["steal_s"] = steal_seconds() - steal_start
    if args.trace:
        layers = [{**r["layers"], **r["counters"]} for r in traced]
        # each traced repetition against the untraced one just before it, so
        # that both ran at the same machine speed
        derived = {
            "trace.overhead_frac": median([t["wall_s"] / p["wall_s"] - 1
                                           for p, t in zip(plain, traced)]),
            "trace.coverage_frac": median([r["coverage"] for r in traced]),
        }
        report = {name: {"value": derived[name] if name in derived else
                         median([rep.get(name, 0) for rep in layers]),
                         "unit": unit_of(name)} for name in PER_LAYER}
    else:
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median(setup_values),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = bool(samples) and failed == 0

    print("# env " + json.dumps(env))
    if traced:
        print(f"# ten slowest exact_rank_info calls ({args.workload}, last traced repetition):")
        for call in traced[-1]["slowest"]:
            print(f"#   {call['seconds']:9.4f} s  {call['shape'][0]}x{call['shape'][1]}"
                  f"  nnz {call['nnz']}  rank {call['rank']}  {call['route']}")
    shown = " | ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in report.items()
                       if not args.trace or name.startswith("trace."))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} repetitions, {len(setup_values)} set-ups | {shown} | "
          f"failed_frac {failed / attempted:.6g} frac ({failed}/{attempted})")
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "metrics": report, "attempted": attempted,
                   "failed": failed, "setup_samples": setup_values, "samples": samples}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
