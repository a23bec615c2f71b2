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

# The paths P_n whose algebra A(P_n) has the WLP.
PATH_WLP = frozenset({1, 2, 3, 4, 5, 6, 7, 9, 10, 13})


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
    """Rank from the structured reductions of a path or lollipop, cross-checked
    against the engine on small matrices whenever a recording registry is
    active."""
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
    necessary for the WLP.  A graph algebra with the all-ones form of its
    arity gets its ranks from the path and lollipop reductions where its
    graph is one of those; every other rank comes from
    :meth:`MonomialAlgebra.map_rank`, which checks ``ell`` against the
    algebra, gives the top map into the zero space rank 0, and splits the
    rest over commuting involutions of the graph, if it has any.
    """
    hs = hilbert_series(a)
    d_top = a.socle_degree
    all_ones = a.graph is not None and ell == LinearForm.all_ones(a.num_vars)
    family = classify_family(a.graph) if all_ones else None
    verdicts = []
    for i in range(d_top + 1):
        rank = _oracle_rank(family, a, i) if family else a.map_rank(ell, i)
        verdicts.append(_verdict(i, a.dim(i), a.dim(i + 1), rank))
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
    """The classification's predicted verdict for A(L_{m,n}); for m <= 2 the
    lollipop is the path P_{n+m}."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m <= 2:
        return n + m in PATH_WLP
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
