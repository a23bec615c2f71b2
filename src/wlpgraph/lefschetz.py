"""Weak Lefschetz Property decisions for Artinian monomial algebras.

For a monomial ideal it suffices to test the all-ones linear form: the
algebra has the WLP exactly when the sum of the variables is a Lefschetz
element.  The report scans every pair of consecutive degrees, including the
top map into the zero space (surjective by convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from . import ranks, reductions
from .algebra import LinearForm, MonomialAlgebra, from_graph, hilbert_series, multiplication_map
from .graphs import classify_family, lollipop
from .indpoly import IntPolynomial, mode_analysis


@dataclass(frozen=True)
class DegreeVerdict:
    """Multiplication-map verdict between degrees ``degree`` and ``degree+1``."""

    degree: int
    h_source: int
    h_target: int
    rank: int
    injective: bool
    surjective: bool
    maximal_rank: bool
    # every rank is certified: an uncertified one raises ranks.UncertifiedRankError
    certified: ClassVar[bool] = True

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "h_i": self.h_source,
            "h_next": self.h_target,
            "rank": self.rank,
            "injective": self.injective,
            "surjective": self.surjective,
        }


@dataclass(frozen=True)
class WlpReport:
    hilbert: IntPolynomial
    socle_degree: int
    linear_form: LinearForm | None  # None only for the zero-variable algebra
    verdicts: tuple[DegreeVerdict, ...]
    has_wlp: bool
    failing_degrees: tuple[tuple[int, str], ...]
    hilbert_unimodal: bool

    def to_json_dict(self) -> dict:
        return {
            "hilbert": self.hilbert.to_json(),
            "socle_degree": self.socle_degree,
            "wlp": self.has_wlp,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "failing": [{"degree": d, "kind": k} for d, k in self.failing_degrees],
        }


def _verdict(degree: int, h_source: int, h_target: int, rank: int) -> DegreeVerdict:
    injective = rank == h_source
    surjective = rank == h_target
    return DegreeVerdict(
        degree, h_source, h_target, rank, injective, surjective, injective or surjective
    )


def _failure_kind(v: DegreeVerdict) -> str:
    if v.h_source < v.h_target:
        return "injectivity"
    if v.h_source > v.h_target:
        return "surjectivity"
    return "both"


def _oracle_rank(kind, a: MonomialAlgebra, i: int):
    """Rank from the structured reductions, cross-checked against the engine
    on small matrices whenever a recording registry is active."""
    if kind[0] == "path":
        r = reductions.path_ell_rank(kind[1], i)
    else:
        r = reductions.lollipop_ell_rank(kind[1], kind[2], i)
    ranks.crosscheck_structured_rank(
        r, min(a.dim(i), a.dim(i + 1)),
        lambda: multiplication_map(a, LinearForm.all_ones(a.num_vars), i, 1).matrix,
        f"at degree {i}",
    )
    return r


def wlp_report_with_form(a: MonomialAlgebra, ell: LinearForm) -> WlpReport:
    """Per-degree maximal-rank verdicts for multiplication by ``ell``.

    For non-all-ones forms this decides whether this particular form is a
    Lefschetz element, which for monomial ideals is sufficient but not
    necessary for the WLP.
    """
    hs = hilbert_series(a)
    d_top = a.socle_degree
    family = None
    if ell.is_all_ones and a.graph is not None:
        family = classify_family(a.graph)
    verdicts = []
    for i in range(d_top + 1):
        h_i = a.dim(i)
        h_next = a.dim(i + 1)
        if h_next == 0:
            verdicts.append(_verdict(i, h_i, 0, 0))
            continue
        if family is not None:
            rank = _oracle_rank(family, a, i)
        else:
            rank = multiplication_map(a, ell, i, 1).rank
        verdicts.append(_verdict(i, h_i, h_next, rank))
    failing = tuple(
        (v.degree, _failure_kind(v)) for v in verdicts if not v.maximal_rank
    )
    analysis = mode_analysis(hs)
    return WlpReport(
        hilbert=hs,
        socle_degree=d_top,
        linear_form=ell,
        verdicts=tuple(verdicts),
        has_wlp=not failing,
        failing_degrees=failing,
        hilbert_unimodal=analysis.is_unimodal,
    )


def wlp_report(a: MonomialAlgebra) -> WlpReport:
    """WLP decision with the all-ones form (sufficient for monomial ideals)."""
    if a.num_vars == 0:
        # the base field: one graded piece, and the only map lands in zero space
        return WlpReport(
            hilbert=hilbert_series(a),
            socle_degree=0,
            linear_form=None,
            verdicts=(_verdict(0, 1, 0, 0),),
            has_wlp=True,
            failing_degrees=(),
            hilbert_unimodal=True,
        )
    return wlp_report_with_form(a, LinearForm.all_ones(a.num_vars))


def expected_lollipop_wlp(m: int, n: int) -> bool:
    """The classification's predicted verdict for A(L_{m,n})."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m == 1:
        return n in {1, 2, 3, 4, 5, 6, 8, 9, 12}
    if m == 2:
        return n in {1, 2, 3, 4, 5, 7, 8, 11}
    return n in {1, 3, 4, 7}


@dataclass(frozen=True)
class LollipopClassification:
    m: int
    n: int
    report: WlpReport
    expected: bool

    @property
    def agrees(self) -> bool:
        return self.report.has_wlp == self.expected


def classify_lollipop(m: int, n: int, strict: bool = True) -> LollipopClassification:
    """Compute the WLP verdict for A(L_{m,n}) and attach the predicted one.

    With ``strict`` (the default) a disagreement raises instead of being
    reported quietly.
    """
    report = wlp_report(from_graph(lollipop(m, n)))
    result = LollipopClassification(m, n, report, expected_lollipop_wlp(m, n))
    if strict and not result.agrees:
        raise RuntimeError(
            f"lollipop ({m}, {n}): computed WLP={report.has_wlp} "
            f"contradicts the expected verdict {result.expected}"
        )
    return result


@dataclass(frozen=True)
class FailureTag:
    degree: int
    kind: str
    offset_from_mode: int
    label: str


def failure_localization(report: WlpReport, mode: int) -> tuple[FailureTag, ...]:
    """Tag each failing degree relative to the supplied mode."""
    if report.has_wlp:
        raise ValueError("failure localization requires a report without the WLP")
    tags = []
    for degree, kind in report.failing_degrees:
        offset = degree - mode
        where = "mode" if offset == 0 else f"mode{offset:+d}"
        tags.append(FailureTag(degree, kind, offset, f"{kind} failure at {where}"))
    return tuple(tags)
