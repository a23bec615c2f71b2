"""Named verification checks: the library's key claims, each independently
re-derivable, bundled for the ``verify-paper`` command and the acceptance
suite.  Every check recomputes its claim from scratch and compares against
the frozen expected values."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import ranks
from .algebra import LinearForm, from_generators, from_graph, hilbert_series, multiplication_map
from .graphs import custom, lollipop, path
from .indpoly import independence_polynomial, mode_analysis, mode_of_path
from .lefschetz import PATH_WLP, classify_lollipop, failure_localization, wlp_report
from .tensor import (algebra_key, block_matrix, checked_verdicts, map_flags, tensor_failure_witness,
                     tensor_with_squarefree_block)

DEFAULT_SEED = 20250810

PATH_MODE_TABLE = (0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6)

HILBERT_EXAMPLES = {
    (4, 9): (1, 13, 63, 140, 140, 51, 3),
    (3, 1): (1, 4, 2),
    (3, 3): (1, 6, 9, 2),
    (3, 4): (1, 7, 14, 7),
    (3, 7): (1, 10, 35, 50, 25, 2),
}

PATH_PURE_SURJECTIVITY = (8, 11, 14, 15, 17)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    cpu_seconds: float = 0.0

    def line(self) -> str:
        """Deterministic one-line rendering (timings live in the JSON manifest)."""
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _timed(fn):
    # process_time counts every thread of the process, BLAS workers included
    def wrapper(*args, **kwargs) -> CheckResult:
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        result.cpu_seconds = time.process_time() - c0
        return result
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_timed
def check_path_modes(table=PATH_MODE_TABLE) -> CheckResult:
    """Modes of path independence polynomials for n = 1..20."""
    computed = tuple(mode_of_path(n) for n in range(1, 21))
    bad = [n for n, (a, b) in enumerate(zip(computed, table), start=1) if a != b]
    return CheckResult(
        "path-modes",
        not bad,
        "modes n=1..20 match the reference table" if not bad else f"mismatch at n={bad}",
    )


@_timed
def check_hilbert_examples() -> CheckResult:
    """Quoted lollipop Hilbert series, coefficient-exact."""
    bad = []
    for (m, n), want in HILBERT_EXAMPLES.items():
        got = hilbert_series(from_graph(lollipop(m, n))).coeffs
        if got != want:
            bad.append((m, n, got))
    return CheckResult(
        "hilbert-series-examples",
        not bad,
        f"{len(HILBERT_EXAMPLES)} series coefficient-exact" if not bad else f"mismatches: {bad}",
    )


@_timed
def check_path_classification() -> CheckResult:
    """WLP of A(P_n) for n = 1..20, with failure patterns for the pure cases."""
    problems = []
    for n in range(1, 21):
        report = wlp_report(from_graph(path(n)))
        want = n in PATH_WLP
        if report.has_wlp != want:
            problems.append(f"n={n}: wlp={report.has_wlp}")
            continue
        if n in PATH_PURE_SURJECTIVITY:
            expected_failing = ((mode_of_path(n), "surjectivity"),)
            if report.failing_degrees != expected_failing:
                problems.append(f"n={n}: failing={report.failing_degrees}")
    return CheckResult(
        "path-wlp-classification",
        not problems,
        "verdicts and failure patterns match for n=1..20" if not problems else "; ".join(problems),
    )


@_timed
def check_lollipop_grid() -> CheckResult:
    """Full classification grid, 1 <= m <= 8, 1 <= n <= 20."""
    cells = [(m, n) for n in range(1, 21) for m in range(1, 9)]
    bad = [(m, n) for m, n in cells if not classify_lollipop(m, n, strict=False).agrees]
    return CheckResult(
        "lollipop-classification-grid",
        not bad,
        f"{len(cells) - len(bad)}/{len(cells)} verdicts agree"
        if not bad else f"disagreements at {bad}",
    )


@_timed
def check_failure_localization() -> CheckResult:
    """Surjectivity failures land where the classification says they must."""
    problems = []
    for n in (8, 11, 14, 15):
        lam = mode_of_path(n)
        for m in (3, 4, 5):
            report = wlp_report(from_graph(lollipop(m, n)))
            kinds = {deg: kind for deg, kind in report.failing_degrees}
            if kinds.get(lam + 1) not in ("surjectivity", "both"):
                problems.append(f"L({m},{n}): failing={report.failing_degrees}")
                continue
            tags = failure_localization(report, lam)
            if not any(t.degree == lam + 1 and t.offset_from_mode == 1 for t in tags):
                problems.append(f"L({m},{n}): tags={tags}")
    report49 = wlp_report(from_graph(lollipop(4, 9)))
    kinds49 = {deg: kind for deg, kind in report49.failing_degrees}
    if kinds49.get(3) not in ("surjectivity", "both"):
        problems.append(f"L(4,9): failing={report49.failing_degrees}")
    return CheckResult(
        "failure-localization",
        not problems,
        "surjectivity failures at mode+1 for m in 3..5, n in {8,11,14,15}; L(4,9) at degree 3"
        if not problems else "; ".join(problems),
    )


def random_artinian_algebra(rng: random.Random, max_vars: int = 4, socle_range=(1, 5)):
    """A random Artinian monomial algebra within the sampling bounds.

    Every draw, rejected ones included, is built by :func:`from_generators`.
    The sampler is skewed towards few algebras: at seed 1, 2 000 draws with
    the default bounds hold 440 distinct generator sets and only 276 distinct
    up to a permutation of the variables.
    """
    while True:
        k = rng.randint(1, max_vars)
        gens = []
        for j in range(k):
            e = rng.randint(2, 4)
            gens.append(tuple(e if v == j else 0 for v in range(k)))
        for _ in range(rng.randint(0, 2 * k)):
            mono = tuple(rng.randint(0, 2) for _ in range(k))
            if 2 <= sum(mono) <= 4:
                gens.append(mono)
        algebra = from_generators(k, gens)
        if socle_range[0] <= algebra.socle_degree <= socle_range[1]:
            return algebra


@_timed
def check_theorem_equivalence(seed: int = DEFAULT_SEED, count: int = 50) -> CheckResult:
    """Predicted vs direct block-matrix verdicts on random algebras; a draw
    equal to an earlier one up to variable order is checked once, and its
    verdicts are counted again."""
    rng = random.Random(seed)
    draws = [random_artinian_algebra(rng) for _ in range(count)]
    rows = list(checked_verdicts(draws, (1, 2, 3)))
    disagreements = [(trial, n, i) for trial, n, i, agree, _, _ in rows if not agree]
    distinct = len({algebra_key(a) for a in draws})
    return CheckResult(
        "tensor-verdict-equivalence",
        not disagreements,
        f"{len(rows)} degree verdicts agree across {count} random algebras "
        f"({distinct} distinct up to variable order) x n=1..3"
        if not disagreements else f"disagreements: {disagreements[:5]}",
    )


def _expected_block_layout(tb, i: int) -> list[list[int]]:
    inner = tb.inner
    n = tb.n
    ell = LinearForm.all_ones(inner.num_vars)
    d_top = inner.socle_degree
    h = inner.dim
    m_step = multiplication_map(inner, ell, i, 1).matrix.to_dense() if i < d_top else None
    m_prev = multiplication_map(inner, ell, i - 1, 1).matrix.to_dense() if i >= 1 else None
    rows_below = h(i + 1) if i < d_top else 0
    nrows = n * h(i) + rows_below
    ncols = n * h(i - 1) + h(i) if i >= 1 else 1
    out = [[0] * ncols for _ in range(nrows)]
    if i == 0:
        for j in range(n):
            out[j][0] = 1
        for r in range(h(1)):
            out[n + r][0] = m_step[r][0]
        return out
    for j in range(n):
        for r in range(h(i)):
            for c in range(h(i - 1)):
                out[j * h(i) + r][j * h(i - 1) + c] = m_prev[r][c]
        for r in range(h(i)):
            out[j * h(i) + r][n * h(i - 1) + r] = 1
    if i < d_top:
        for r in range(h(i + 1)):
            for c in range(h(i)):
                out[n * h(i) + r][n * h(i - 1) + c] = m_step[r][c]
    return out


@_timed
def check_block_structure(seed: int = DEFAULT_SEED, count: int = 20) -> CheckResult:
    """Assembling the block layout from inner matrices reproduces the direct one."""
    rng = random.Random(seed + 1)
    mismatches = []
    for trial in range(count):
        algebra = random_artinian_algebra(rng, max_vars=3, socle_range=(1, 4))
        n = rng.randint(1, 3)
        tb = tensor_with_squarefree_block(n, algebra)
        for i in range(algebra.socle_degree + 1):
            direct = block_matrix(tb, i).matrix.to_dense()
            expected = _expected_block_layout(tb, i)
            if direct != expected:
                mismatches.append((trial, n, i))
    return CheckResult(
        "block-matrix-structure",
        not mismatches,
        f"{count} random tensor algebras assemble entry-exact"
        if not mismatches else f"mismatches: {mismatches[:5]}",
    )


def brute_force_independence_counts(g) -> tuple[int, ...]:
    """Independent-set counts by enumeration of all vertex subsets."""
    n = g.vertex_count
    masks = g.neighbor_masks
    counts = [0] * (n + 1)
    for sub in range(1 << n):
        ok = True
        rest = sub
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if masks[v] & sub:
                ok = False
                break
        if ok:
            counts[bin(sub).count("1")] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def random_graph(rng: random.Random, max_vertices: int = 12):
    n = rng.randint(1, max_vertices)
    prob = rng.choice((0.1, 0.2, 0.35, 0.5))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return custom(n, edges)


@_timed
def check_hilbert_independence_identity(seed: int = DEFAULT_SEED, count: int = 100) -> CheckResult:
    """Hilbert series = independent-set basis sizes = brute-force enumeration.

    The Hilbert series of a graph algebra is its independence polynomial;
    the basis is enumerated separately, and the brute force checks every
    vertex subset against the edges.
    """
    rng = random.Random(seed + 2)
    bad = 0
    for _ in range(count):
        g = random_graph(rng)
        a = from_graph(g)
        try:
            enumerated = tuple(len(level) for level in a.bases)
        except RuntimeError:  # the enumeration disagrees with the polynomial
            enumerated = None
        if not (hilbert_series(a).coeffs == enumerated == brute_force_independence_counts(g)):
            bad += 1
    return CheckResult(
        "hilbert-independence-identity",
        bad == 0,
        f"{count} random graphs, three routes coincide" if not bad else f"{bad} mismatches",
    )


@_timed
def check_rank_engines(seed: int = DEFAULT_SEED, count: int = 200,
                       registry: list | None = None) -> CheckResult:
    """Bareiss vs 3-prime modular rank on seeded random matrices, plus the
    cross-checks recorded on matrices arising in the other checks."""
    rng = random.Random(seed + 3)
    disagreements = 0
    for trial in range(count):
        nr = rng.randint(1, 60)
        nc = rng.randint(1, 60)
        density = rng.choice((0.15, 0.4, 0.8))
        m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(nc)]
             for _ in range(nr)]
        if ranks.rank_bareiss(m) != ranks.rank_modular(m):
            disagreements += 1
    detail = f"{count} random matrices agree (bareiss = 3-prime modular)"
    passed = disagreements == 0
    if registry is not None:
        crosschecked = sum(1 for info in registry if info.crosscheck)
        uncertified = [info for info in registry if not info.certified]
        distinct = ranks.distinct_recorded_matrices(registry)
        detail += f"; {len(registry)} engine calls recorded, "
        if distinct is not None:
            detail += f"{distinct} distinct matrices, "
        detail += f"{crosschecked} cross-checked, {len(uncertified)} uncertified"
        passed = passed and not uncertified
    return CheckResult("rank-engine-cross-validation", passed, detail)


@_timed
def check_mode_propositions() -> CheckResult:
    """Lollipop modes: unimodal, within {lambda_n, lambda_n + 1}, stabilizing."""
    problems = []
    for n in range(1, 21):
        lam = mode_of_path(n)
        hit = None
        for m in range(1, 11):
            analysis = mode_analysis(independence_polynomial(lollipop(m, n)))
            if not analysis.is_unimodal:
                problems.append(f"L({m},{n}) not unimodal")
                continue
            if analysis.mode not in (lam, lam + 1):
                problems.append(f"L({m},{n}) mode {analysis.mode} not in {{{lam},{lam + 1}}}")
            if analysis.mode == lam + 1 and hit is None:
                hit = m
            if hit is not None and analysis.mode != lam + 1:
                problems.append(f"L({m},{n}) mode dropped after m0={hit}")
    return CheckResult(
        "lollipop-mode-propositions",
        not problems,
        "modes bounded and stabilizing for m<=10, n<=20" if not problems else "; ".join(problems[:4]),
    )


@_timed
def check_tensor_witnesses(seed: int = DEFAULT_SEED, extra: int = 5) -> CheckResult:
    """Failure propagation into tensor products, frozen and randomized cases."""
    a8 = from_graph(path(8))
    problems = []
    if tensor_failure_witness(a8, 2, a8, 2, "surjective") is not True:
        problems.append("path-8 pair witness failed")
    rng = random.Random(seed + 4)
    found = 0
    attempts = 0
    while found < extra and attempts < 400:
        attempts += 1
        a1 = random_artinian_algebra(rng, max_vars=3, socle_range=(1, 4))
        a2 = random_artinian_algebra(rng, max_vars=3, socle_range=(1, 4))
        mode = rng.choice(("surjective", "injective"))
        pick = 1 if mode == "surjective" else 0
        ell1 = LinearForm.all_ones(a1.num_vars)
        ell2 = LinearForm.all_ones(a2.num_vars)
        candidates = []
        for i in range(a1.socle_degree):
            for j in range(a2.socle_degree):
                if not map_flags(a1, ell1, i, 1)[pick] and not map_flags(a2, ell2, j, 1)[pick]:
                    candidates.append((i, j))
        if not candidates:
            continue
        i, j = rng.choice(candidates)
        if tensor_failure_witness(a1, i, a2, j, mode) is not True:
            problems.append(f"witness failed: mode={mode} i={i} j={j}")
        found += 1
    if found < extra:
        problems.append(f"only {found} randomized witnesses found")
    return CheckResult(
        "tensor-failure-witnesses",
        not problems,
        f"frozen pair plus {found} randomized witnesses all fail as predicted"
        if not problems else "; ".join(problems),
    )


@dataclass
class Manifest:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "seconds": round(c.seconds, 2),
                 "cpu_seconds": round(c.cpu_seconds, 2)}
                for c in self.checks
            ],
        }


def run_all(seed: int = DEFAULT_SEED, progress=None) -> Manifest:
    """Execute the whole verification suite in this process, under one
    engine-recording scope, so the audit sees every rank computation."""
    manifest = Manifest()
    registry: list = []

    def emit(result: CheckResult):
        manifest.checks.append(result)
        if progress is not None:
            progress(result)

    with ranks.recording(registry):
        emit(check_path_modes())
        emit(check_hilbert_examples())
        emit(check_path_classification())
        emit(check_lollipop_grid())
        emit(check_failure_localization())
        emit(check_theorem_equivalence(seed))
        emit(check_block_structure(seed))
        emit(check_hilbert_independence_identity(seed))
        emit(check_mode_propositions())
        emit(check_tensor_witnesses(seed))
        emit(check_rank_engines(seed, registry=registry))
    return manifest
