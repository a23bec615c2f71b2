"""Exact rank formulas for multiplication maps on path and lollipop algebras.

For the algebra of a lollipop graph (clique x_1..x_m, path y_1..y_n, bridge
x_m y_1) the degree-i basis splits by clique content: monomials with no x, a
block x_j * (path monomial) for each clique vertex j < m, and x_m * (monomial
of the shorter path y_2..y_n).  In that splitting the matrix of
multiplication by the all-ones form is block structured: identity blocks from
the no-x part into each x_j block, path matrices on the diagonal, and a
selector coupling the x_m block.  Elementary row and column operations (all
invertible over Q) reduce it to a block diagonal, giving, for 1 <= i < socle
degree and m >= 2,

    rank_L(m, n, i) = h_i(P_n)
                      + (m - 2) * rank(ell: P_n, i-1 -> i)
                      + rank(ell: P_{n-1}, i-1 -> i)
                      + rank(ell^2: P_n, i-1 -> i+1)

The selector block commutes with the path maps (an independent set avoiding
y_1 extends exactly the same way in either path), which is what lets the
coupling be cleared.  Since P_{n+2} is the lollipop with m = 2, the same
identity recursively expresses every path ell-rank through ell^2 ranks of
shorter paths; those ell^2 ranks are the only eliminations actually run, and
they are certified exactly by the rank engine.  Each is first split by the
reflection of the path into a sigma-even and a sigma-odd block, of about
half the size each, whose ranks add up to it.

Everything here is validated against the generic engine over small and
medium instances in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from . import ranks
from .algebra import LinearForm, MonomialAlgebra, from_graph, multiplication_map
from .graphs import path
from .indpoly import independence_polynomial


@lru_cache(maxsize=None)
def path_dims(n: int) -> tuple[int, ...]:
    """Graded dimensions of the path algebra A(P_n); P_0 is the base field."""
    if n == 0:
        return (1,)
    return independence_polynomial(path(n)).coeffs


@lru_cache(maxsize=8)
def _path_algebra(n: int) -> MonomialAlgebra:
    return from_graph(path(n))


def path_ell_matrix(n: int, i: int) -> ranks.SparseCols:
    """Matrix of the all-ones multiplication [A(P_n)]_i -> [A(P_n)]_{i+1}."""
    return multiplication_map(_path_algebra(n), LinearForm.all_ones(n), i).matrix


@lru_cache(maxsize=None)
def path_ell2_rank(n: int, j: int) -> int:
    """Exact rank of ell^2: [A(P_n)]_j -> [A(P_n)]_{j+2}, engine-certified.

    :meth:`MonomialAlgebra.map_rank` adds up the certified ranks of the
    sigma-even and sigma-odd blocks and, under :func:`ranks.recording`,
    compares the sum with the unsplit matrix wherever that is small enough.
    An error names the path, the power and the degree.
    """
    if n <= 0 or j < 0 or j + 2 >= len(path_dims(n)):
        return 0
    what = f"ell^2 rank of P_{n} at degree {j}"
    try:
        return _path_algebra(n).map_rank(LinearForm.all_ones(n), j, 2)
    except ranks.UncertifiedRankError as exc:
        raise ranks.UncertifiedRankError(f"{what} not certified: {exc}") from exc
    except ranks.RankComputationError as exc:
        raise ranks.RankComputationError(f"{exc} for {what}") from exc


@lru_cache(maxsize=None)
def path_ell_rank(n: int, i: int) -> int:
    """Exact rank of the all-ones multiplication [A(P_n)]_i -> [A(P_n)]_{i+1}.

    Computed through the lollipop reduction with m = 2 (P_n is L_{2,n-2});
    only ell^2 ranks of shorter paths are ever eliminated.
    """
    if n <= 0 or i < 0:
        return 0
    dims = path_dims(n)
    if i + 1 >= len(dims):
        return 0
    if i == 0:
        return 1
    # n >= 3 here: paths of length <= 2 have socle degree 1
    inner = path_dims(n - 2)
    h_i = inner[i] if i < len(inner) else 0
    return h_i + path_ell_rank(n - 3, i - 1) + path_ell2_rank(n - 2, i - 1)


def lollipop_ell_rank(m: int, n: int, i: int) -> int:
    """Exact rank of the all-ones multiplication on A(L_{m,n}) from degree i."""
    if m < 1 or n < 1:
        raise ValueError("lollipop parameters must be positive")
    if m == 1:
        return path_ell_rank(n + 1, i)
    if m == 2:
        return path_ell_rank(n + 2, i)
    if i < 0:
        return 0
    alpha = _lollipop_socle(m, n)
    if i + 1 > alpha:
        return 0
    if i == 0:
        return 1
    dims = path_dims(n)
    h_i = dims[i] if i < len(dims) else 0
    return (
        h_i
        + (m - 2) * path_ell_rank(n, i - 1)
        + path_ell_rank(n - 1, i - 1)
        + path_ell2_rank(n, i - 1)
    )


def _lollipop_socle(m: int, n: int) -> int:
    # independence number of L_{m,n} for m >= 2: one clique vertex plus a
    # maximum independent set of the path, so alpha(P_n) + 1
    return len(path_dims(n))


def lollipop_dims(m: int, n: int) -> tuple[int, ...]:
    """Graded dimensions of A(L_{m,n}) from the basis splitting."""
    dims = path_dims(n)
    dims_short = path_dims(n - 1) if n >= 2 else (1,)
    if m == 1:
        return path_dims(n + 1)
    top = max(len(dims), len(dims_short) + 1)
    out = []
    for i in range(top + 1):
        h = (dims[i] if i < len(dims) else 0) \
            + (m - 1) * (dims[i - 1] if 0 <= i - 1 < len(dims) else 0) \
            + (dims_short[i - 1] if 0 <= i - 1 < len(dims_short) else 0)
        out.append(h)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)
