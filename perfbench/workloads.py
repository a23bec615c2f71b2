"""The benchmark workloads: inputs from a seed, one timed execution, and the
correctness gates that count failed operations.

An operation is a grid cell, a degree verdict or a verify check.  It fails if
it raises, comes back uncertified, or disagrees with its expected value.
Every expected value below is frozen here, independent of the library, and
each ``execute`` takes it as an argument so the self-test can pass a wrong
one and watch the gate fire.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb


@dataclass
class Outcome:
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _cli_json(argv: list[str], outcome: Outcome) -> dict:
    """Run the command line in-process and parse its JSON output ({} on failure)."""
    from wlpgraph import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["--output", "json", *argv])
        return json.loads(buf.getvalue())
    except Exception as exc:  # every operation of the command then counts as failed
        outcome.errors.append(f"wlpgraph {' '.join(argv)}: {exc!r}")
        return {}


# -- lollipop-grid ----------------------------------------------------------
# The paper's classification of A(L_{m,n}) (m = 1, 2 are the paths P_{n+1},
# P_{n+2}).  The grid stops at n = 17: the full n <= 20 grid takes about 95 s,
# most of it one P_20 matrix, which no repetition of a short run can hold.  It
# runs with --jobs 1: on a machine whose second core comes and goes, the wall
# time of a two-worker pool swings by a factor of two between runs.

GRID_N_MAX = {"full": 17, "tiny": 6, "paper": 20}


def lollipop_has_wlp(m: int, n: int) -> bool:
    if m == 1:
        return n in {1, 2, 3, 4, 5, 6, 8, 9, 12}
    if m == 2:
        return n in {1, 2, 3, 4, 5, 7, 8, 11}
    return n in {1, 3, 4, 7}


def grid_inputs(seed: int, size: str):
    n_max = GRID_N_MAX[size]
    return n_max, {(m, n): lollipop_has_wlp(m, n) for m in range(1, 9) for n in range(1, n_max + 1)}


def grid_execute(inputs, expect=None) -> Outcome:
    n_max, frozen = inputs
    expect = frozen if expect is None else expect
    outcome = Outcome(len(expect), 0)
    out = _cli_json(["--jobs", "1", "classify", "--m", "1..8", "--n", f"1..{n_max}"], outcome)
    cells = {(c["m"], c["n"]): c for c in out.get("cells", [])}
    for (m, n), want in expect.items():
        cell = cells.get((m, n))
        if cell is None or not cell["agree"] or cell["computed"] != want:
            outcome.failed += 1
            outcome.errors.append(f"L({m},{n}): {cell}")
    return outcome


# -- cycle-wlp --------------------------------------------------------------
# Cycles are matched by no structured family, so wlp_report assembles every
# one-step map and ranks it with the generic engine.  Failing degrees as
# measured; all other cycles up to C_19 have the WLP.  C_19 alone takes 24 s,
# so the workload stops at C_18.

CYCLE_N_MAX = {"full": 18, "tiny": 12}
CYCLE_FAILURES = {
    12: ((3, "surjectivity"),),
    15: ((4, "surjectivity"),),
    16: ((4, "injectivity"),),
    18: ((5, "surjectivity"),),
    19: ((5, "surjectivity"),),
}


def cycle_dims(n: int) -> tuple[int, ...]:
    """Independent-set counts of C_n: n/(n-k) * C(n-k, k) sets of size k."""
    return (1,) + tuple(n * comb(n - k, k) // (n - k) for k in range(1, n // 2 + 1))


def cycle_inputs(seed: int, size: str):
    """Each cycle C_3..C_N with its vertices relabelled by the seed."""
    rng = random.Random(seed)
    graphs = []
    for n in range(3, CYCLE_N_MAX[size] + 1):
        label = rng.sample(range(n), n)
        graphs.append((n, [(label[v], label[(v + 1) % n]) for v in range(n)]))
    return graphs


def cycle_execute(inputs, expect=None) -> Outcome:
    from wlpgraph.algebra import from_graph
    from wlpgraph.graphs import custom
    from wlpgraph.indpoly import independence_polynomial
    from wlpgraph.lefschetz import wlp_report

    expect = CYCLE_FAILURES if expect is None else expect
    outcome = Outcome(0, 0)
    for n, edges in inputs:
        dims = cycle_dims(n)
        failing = dict(expect.get(n, ()))
        outcome.attempted += len(dims)
        try:
            g = custom(n, edges)
            report = wlp_report(from_graph(g))
            series = independence_polynomial(g).coeffs
        except Exception as exc:  # a raising cycle fails every one of its verdicts
            outcome.failed += len(dims)
            outcome.errors.append(f"C_{n}: {exc!r}")
            continue
        series_ok = report.hilbert.coeffs == series == dims
        got = dict(report.failing_degrees)
        verdicts = {v.degree: v for v in report.verdicts}
        for degree in range(len(dims)):
            v = verdicts.get(degree)
            h_next = dims[degree + 1] if degree + 1 < len(dims) else 0
            ok = (
                series_ok and v is not None and v.certified
                and (v.h_source, v.h_target) == (dims[degree], h_next)
                and got.get(degree) == failing.get(degree)
            )
            outcome.failed += not ok
    return outcome


# -- tensor-blockcheck ------------------------------------------------------
# Many tiny exact_rank_info calls (peel and peel+bareiss routes), tensor
# realisation and algebra assembly; the count keeps one repetition near 5 s.

TENSOR_COUNT = {"full": 2000, "tiny": 5}
BLOCK_VARS = (1, 2, 3)


def tensor_inputs(seed: int, size: str):
    return seed, TENSOR_COUNT[size]


def tensor_execute(inputs, expect=True) -> Outcome:
    seed, count = inputs
    outcome = Outcome(0, 0)
    out = _cli_json(["--seed", str(seed), "blockcheck", "--random", str(count),
                     "--block-vars", *map(str, BLOCK_VARS)], outcome)
    reports = out.get("reports", [])
    failed = [r for r in reports if r["agree"] is not expect]
    missing = count * len(BLOCK_VARS) - len({(r["algebra"], r["n"]) for r in reports})
    outcome.attempted = len(reports) + missing
    outcome.failed = len(failed) + missing
    outcome.errors += [f"algebra {r['algebra']} n={r['n']} degree {r['degree']} agree={r['agree']}"
                       for r in failed[:10]]
    if missing:
        outcome.errors.append(f"{missing} (algebra, n) pairs without a report")
    return outcome


# -- verify-audit -----------------------------------------------------------
# The verify-paper checks other than the grid, under one recording scope, so
# the Bareiss and large-prime cross-checks run on every small recorded matrix.

VERIFY_EXPECT = {
    "path-wlp-classification": True,
    "failure-localization": True,
    "tensor-verdict-equivalence": True,
    "block-matrix-structure": True,
    "hilbert-independence-identity": True,
    "tensor-failure-witnesses": True,
    "rank-engine-cross-validation": True,
    "uncertified": 0,
}


def verify_inputs(seed: int, size: str):
    return seed, size


def _verify_checks(seed: int, size: str, registry: list):
    from wlpgraph import verify

    if size == "full":
        return [
            ("path-wlp-classification", verify.check_path_classification, ()),
            ("failure-localization", verify.check_failure_localization, ()),
            ("tensor-verdict-equivalence", verify.check_theorem_equivalence, (seed,)),
            ("block-matrix-structure", verify.check_block_structure, (seed,)),
            ("hilbert-independence-identity", verify.check_hilbert_independence_identity, (seed,)),
            ("tensor-failure-witnesses", verify.check_tensor_witnesses, (seed,)),
            ("rank-engine-cross-validation",
             lambda: verify.check_rank_engines(seed, registry=registry), ()),
        ]
    return [  # the path classification alone takes 11 s, so the tiny size skips it
        ("failure-localization", verify.check_failure_localization, ()),
        ("tensor-verdict-equivalence", verify.check_theorem_equivalence, (seed, 3)),
        ("block-matrix-structure", verify.check_block_structure, (seed, 3)),
        ("hilbert-independence-identity", verify.check_hilbert_independence_identity, (seed, 10)),
        ("tensor-failure-witnesses", verify.check_tensor_witnesses, (seed, 1)),
        ("rank-engine-cross-validation",
         lambda: verify.check_rank_engines(seed, count=10, registry=registry), ()),
    ]


def verify_execute(inputs, expect=None) -> Outcome:
    from wlpgraph import ranks

    seed, size = inputs
    expect = VERIFY_EXPECT if expect is None else expect
    registry: list = []
    outcome = Outcome(0, 0)
    with ranks.recording(registry):
        for name, check, args in _verify_checks(seed, size, registry):
            outcome.attempted += 1
            try:
                result = check(*args)
            except Exception as exc:
                outcome.failed += 1
                outcome.errors.append(f"{name}: {exc!r}")
                continue
            if result.name != name or result.passed is not expect[name]:
                outcome.failed += 1
                outcome.errors.append(f"{name}: {result.detail}")
    uncertified = sum(1 for info in registry if not info.certified)
    outcome.attempted += 1
    if uncertified != expect["uncertified"]:
        outcome.failed += 1
        outcome.errors.append(f"{uncertified} uncertified engine calls recorded")
    outcome.counters = {
        "verify.recorded_calls": len(registry),
        "verify.crosschecked_calls": sum(1 for info in registry if info.crosscheck),
    }
    return outcome


# -- path-ell2 (reference only) ---------------------------------------------
# The one ell^2 elimination that dominates the full grid: P_20 from degree 5,
# 3432 x 4368, rank 3312, nullity 120.  Only reference.py runs it; it is too
# long for a benchmark run.

PATH_ELL2 = {"paper": (20, 5, 3312), "tiny": (10, 2, 31)}


def path_ell2_inputs(seed: int, size: str):
    return PATH_ELL2[size]


def path_ell2_execute(inputs, expect=None) -> Outcome:
    from wlpgraph import reductions

    n, degree, rank = inputs
    expect = rank if expect is None else expect
    try:
        got = reductions.path_ell2_rank(n, degree)
    except Exception as exc:  # includes an uncertified rank
        return Outcome(1, 1, errors=[repr(exc)])
    return Outcome(1, int(got != expect), errors=[] if got == expect else [f"rank {got} != {expect}"])


WORKLOADS = {
    "lollipop-grid": (grid_inputs, grid_execute),
    "cycle-wlp": (cycle_inputs, cycle_execute),
    "tensor-blockcheck": (tensor_inputs, tensor_execute),
    "verify-audit": (verify_inputs, verify_execute),
    "path-ell2": (path_ell2_inputs, path_ell2_execute),
}
