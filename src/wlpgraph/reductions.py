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
coupling be cleared.  P_{n+2} is the lollipop with m = 2, so the path
ell-rank is this formula at m = 2, and every path ell-rank comes down to
ell^2 ranks of shorter paths; those are the only eliminations actually run.
Each is split by the reflection of the path into a sigma-even and a
sigma-odd block, of about half the size each, whose certified ranks add up.

The one cache here, ``_path_algebra``, keeps each path algebra for the life
of the process; it holds the path's graded dimensions and, in the memo of
:meth:`MonomialAlgebra.map_rank`, its certified ranks.  Clearing it forces
every path rank to be computed again.

Everything here is validated against the generic engine over small and
medium instances in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from . import ranks
from .algebra import LinearForm, MonomialAlgebra, from_graph, multiplication_map
from .graphs import path


@lru_cache(maxsize=None)
def _path_algebra(n: int) -> MonomialAlgebra:
    return from_graph(path(n))


def path_dims(n: int) -> tuple[int, ...]:
    """Graded dimensions of the path algebra A(P_n); P_0 is the base field."""
    return _path_algebra(n).dims if n else (1,)


def path_ell_matrix(n: int, i: int) -> ranks.SparseCols:
    """Matrix of the all-ones multiplication [A(P_n)]_i -> [A(P_n)]_{i+1}."""
    return multiplication_map(_path_algebra(n), LinearForm.all_ones(n), i).matrix


def path_ell2_rank(n: int, j: int) -> int:
    """Exact rank of ell^2: [A(P_n)]_j -> [A(P_n)]_{j+2}, engine-certified.

    :meth:`MonomialAlgebra.map_rank` adds up the certified ranks of the
    sigma-even and sigma-odd blocks and, under :func:`ranks.recording`,
    compares the sum with the unsplit matrix wherever that is small enough;
    a map into the zero space has rank 0 there, before anything is built.
    An error names the path, the power and the degree.
    """
    if n <= 0 or j < 0:
        return 0
    what = f"ell^2 rank of P_{n} at degree {j}"
    try:
        return _path_algebra(n).map_rank(LinearForm.all_ones(n), j, 2)
    except ranks.UncertifiedRankError as exc:
        raise ranks.UncertifiedRankError(f"{what} not certified: {exc}") from exc
    except ranks.RankComputationError as exc:
        raise ranks.RankComputationError(f"{exc} for {what}") from exc


def path_ell_rank(n: int, i: int) -> int:
    """Exact rank of the all-ones multiplication [A(P_n)]_i -> [A(P_n)]_{i+1}:
    the lollipop formula at m = 2, since P_n is L_{2,n-2}."""
    if n <= 2:  # socle degree 1 at most: only the map from degree 0 is nonzero
        return int(n > 0 and i == 0)
    return lollipop_ell_rank(2, n - 2, i)


def lollipop_ell_rank(m: int, n: int, i: int) -> int:
    """Exact rank of the all-ones multiplication on A(L_{m,n}) from degree i."""
    if m < 1 or n < 1:
        raise ValueError("lollipop parameters must be positive")
    if m == 1:
        return path_ell_rank(n + 1, i)
    dims = path_dims(n)
    # the socle degree of L_{m,n}, m >= 2, is alpha(P_n) + 1 = len(dims)
    if i < 0 or i + 1 > len(dims):
        return 0
    if i == 0:
        return 1
    rank = dims[i]
    if m > 2:  # at m = 2 the clique term is zero: skip its recursion
        rank += (m - 2) * path_ell_rank(n, i - 1)
    return rank + path_ell_rank(n - 1, i - 1) + path_ell2_rank(n, i - 1)
