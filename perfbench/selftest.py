"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the checkout root.

Runs each workload at its tiny size and shows that its gates pass on the
frozen expected values and fire when an expected value is deliberately wrong
(a gate that never fires cannot back ``failed_frac``).  Also checks that the
tracer covers the traced wall time and restores every patched name, and that
``run.py`` fails without printing a result where the library sources are
absent.  Exit code 0 when every check holds.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

problems: list[str] = []


def check(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def run(name: str, expect=None, inputs=None):
    make_inputs, execute = workloads.WORKLOADS[name]
    inputs = make_inputs(7, "tiny") if inputs is None else inputs
    if expect is None:
        return execute(inputs)
    return execute(inputs, expect)


def gates():
    out = run("lollipop-grid")
    check(out.attempted == 48 and out.failed == 0, f"grid passes: {out.failed}/{out.attempted}")
    n_max, frozen = workloads.grid_inputs(7, "tiny")
    wrong = {**frozen, (3, 5): True}
    out = run("lollipop-grid", wrong)
    check(out.failed == 1, f"grid gate fires on one wrong cell: {out.failed}")

    out = run("cycle-wlp")
    check(out.attempted > 0 and out.failed == 0, f"cycles pass: {out.failed}/{out.attempted}")
    out = run("cycle-wlp", {**workloads.CYCLE_FAILURES, 5: ((1, "surjectivity"),)})
    check(out.failed == 1, f"cycle gate fires on one wrong failing degree: {out.failed}")
    out = run("cycle-wlp", {k: v for k, v in workloads.CYCLE_FAILURES.items() if k != 12})
    check(out.failed == 1, f"cycle gate fires on a missing failure of C_12: {out.failed}")
    bad_input = [(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 9)])]
    out = run("cycle-wlp", inputs=bad_input)
    check(out.failed == out.attempted == 3, f"cycle gate counts a raising cycle: {out.failed}")

    out = run("tensor-blockcheck")
    check(out.attempted > 0 and out.failed == 0, f"blockcheck passes: {out.failed}/{out.attempted}")
    out = run("tensor-blockcheck", False)
    check(out.failed == out.attempted, f"blockcheck gate fires on every report: {out.failed}")

    out = run("verify-audit")
    check(out.attempted == 7 and out.failed == 0, f"verify passes: {out.failed}/{out.attempted}")
    check(out.counters["verify.recorded_calls"] > 0, "verify records engine calls")
    out = run("verify-audit", dict(workloads.VERIFY_EXPECT, uncertified=1))
    check(out.failed == 1, f"verify gate fires on the uncertified count: {out.failed}")
    out = run("verify-audit", {**workloads.VERIFY_EXPECT, "block-matrix-structure": False})
    check(out.failed == 1, f"verify gate fires on one check: {out.failed}")

    out = run("path-ell2")
    check(out.attempted == 1 and out.failed == 0, f"path ell^2 rank passes: {out.failed}")
    out = run("path-ell2", 30)
    check(out.failed == 1, f"path ell^2 gate fires on a wrong rank: {out.failed}")


def tracing():
    import wlpgraph.ranks

    original = wlpgraph.ranks.exact_rank_info
    for name in ("cycle-wlp", "tensor-blockcheck"):
        tracer = Tracer()
        tracer.install()
        out = run(name)
        tracer.uninstall()
        spans = range(len(tracer.names))
        check(out.failed == 0 and tracer.layer_metrics()["ranks.calls"] > 0,
              f"{name}: traced run records rank calls")
        check(all(tracer.self_time(i) >= -1e-6 for i in spans), f"{name}: no negative self time")
        check(abs(sum(map(tracer.self_time, spans)) - tracer.top_level_seconds()) < 1e-6,
              f"{name}: self times add up to the top-level spans")
    check(wlpgraph.ranks.exact_rank_info is original, "uninstall restores the patched names")


def workers():
    """Each workload in a fresh traced worker, as run.py starts it."""
    import run as bench

    for name in workloads.WORKLOADS:
        spec = {"root": ROOT, "workload": name, "seed": 7, "size": "tiny", "trace": 1,
                "setup_only": False, "spans_file": None}
        out = bench.launch(spec, 120)
        check(out is not None and out["failed"] == 0 and out["layers"]["ranks.calls"] > 0
              and out["setup_s"] > 0, f"{name}: worker passes its gates and records rank calls")


def no_sources():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-wlp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run.py without sources exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    gates()
    tracing()
    workers()
    no_sources()
    print("selftest:", "all checks hold" if not problems else f"{len(problems)} FAILED")
    sys.exit(1 if problems else 0)
