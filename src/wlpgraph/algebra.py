"""Artinian monomial algebras as per-degree standard-monomial bases.

A monomial is a tuple of variable exponents.  A quotient by a monomial ideal
is materialized as the ordered list of standard monomials (those divisible by
no generator) in each degree.  The ideal must contain a pure power of every
variable, which is exactly the Artinian condition for monomial ideals.

Basis order is graded, with each degree sorted in the lexicographic term
order with x_1 > x_2 > ... (exponent tuples descending); for algebras built
from graphs this makes the degree-d basis correspond, position by position,
to the size-d independent sets in their enumeration order.  A graph algebra
takes its graded dimensions from the independence polynomial and enumerates
the independent sets, as vertex bit masks, only when its basis is first
needed; its multiplication maps are read off the masks, and the exponent
tuples of ``bases`` are built from them on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import ranks
from .graphs import Graph
from .indpoly import IntPolynomial, independence_polynomial, independent_set_masks_by_size
from .symmetry import involution_group, symmetric_blocks

Monomial = tuple  # exponent tuple, one entry per variable


class EmptyGeneratorsError(ValueError):
    pass


class NotArtinianError(ValueError):
    pass


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_divides(d: Monomial, m: Monomial) -> bool:
    return all(a <= b for a, b in zip(d, m))


# the bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple((x >> k) & 1 for k in range(8)) for x in range(256))


def _mask_to_monomial(mask: int, num_vars: int) -> Monomial:
    out = _BYTE_BITS[mask & 255]
    for shift in range(8, num_vars, 8):
        out += _BYTE_BITS[(mask >> shift) & 255]
    return out[:num_vars]


@dataclass(frozen=True)
class LinearForm:
    """An integer linear form; coefficient k belongs to variable k."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))
        if not any(self.coefficients):
            raise ValueError("linear form must be nonzero")

    @staticmethod
    @lru_cache(maxsize=None)
    def all_ones(num_vars: int) -> "LinearForm":
        """x_1 + ... + x_n; one shared (immutable) instance per arity."""
        return LinearForm((1,) * num_vars)

    @property
    def is_all_ones(self) -> bool:
        return all(c == 1 for c in self.coefficients)


class MonomialAlgebra:
    """Artinian quotient of a polynomial ring by a monomial ideal.

    Immutable once built; the lazily materialized caches (bases, per-degree
    index, ranks of multiplication maps) are idempotent, so a concurrent first
    access may compute twice but never observes torn state.
    """

    def __init__(self, num_vars, generators, bases=None, var_labels=None, graph=None,
                 dims=None):
        self.num_vars = num_vars
        self.generators = tuple(tuple(g) for g in generators)
        self.var_labels = tuple(var_labels) if var_labels else tuple(
            f"x{j + 1}" for j in range(num_vars)
        )
        self.graph = graph
        self._explicit_bases = None
        if bases is not None:
            self._explicit_bases = tuple(tuple(tuple(m) for m in level) for level in bases)
            self.dims = tuple(len(level) for level in self._explicit_bases)
        else:
            # a graph algebra: its bases are the graph's independent sets
            self.dims = tuple(dims)
        self.socle_degree = len(self.dims) - 1
        self._index_cache: dict[int, dict[Monomial, int]] = {}
        self._rank_cache: dict[tuple[tuple[int, ...], int, int], int] = {}

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """A graph algebra's basis as vertex bit masks, per degree, in basis
        order; the counts are checked against ``dims`` here, once."""
        groups = independent_set_masks_by_size(self.graph)
        sizes = tuple(len(level) for level in groups)
        if sizes != self.dims:
            raise RuntimeError(
                f"independent sets by size {list(sizes)} disagree with the "
                f"graded dimensions {list(self.dims)}"
            )
        return tuple(tuple(level) for level in groups)

    @cached_property
    def bases(self) -> tuple[tuple[Monomial, ...], ...]:
        if self._explicit_bases is not None:
            return self._explicit_bases
        return tuple(
            tuple(_mask_to_monomial(m, self.num_vars) for m in level) for level in self.masks
        )

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        if 0 <= degree <= self.socle_degree:
            return self.bases[degree]
        return ()

    def dim(self, degree: int) -> int:
        if 0 <= degree <= self.socle_degree:
            return self.dims[degree]
        return 0

    def basis_index(self, degree: int) -> dict[Monomial, int]:
        """Monomial -> row position within the degree's basis."""
        idx = self._index_cache.get(degree)
        if idx is None:
            idx = {m: k for k, m in enumerate(self.basis(degree))}
            self._index_cache[degree] = idx
        return idx

    def map_rank(self, ell: LinearForm, i: int, t: int = 1) -> int:
        """The certified rank of ell^t from degree i, memoized per algebra.

        With the all-ones form on a graph with commuting involutions it is the
        sum of the ranks of the blocks of :func:`symmetry.symmetric_blocks`,
        compared under :func:`ranks.recording` with the unsplit map where that
        is small enough; otherwise ``multiplication_map(self, ell, i, t).rank``.
        Only the integer is kept.  An uncertified rank raises
        :class:`ranks.UncertifiedRankError`, naming the degree, and is not
        stored.
        """
        key = (ell.coefficients, i, t)
        rank = self._rank_cache.get(key)
        if rank is not None:
            return rank
        gens = involution_group(self.graph) if self.graph is not None and ell.is_all_ones else ()
        if gens:
            matrices = symmetric_blocks(self, gens, i, t)
        else:
            matrices = [multiplication_map(self, ell, i, t).matrix]
        where = f"at degree {i}"
        try:
            infos = [ranks.exact_rank_info(m) for m in matrices]
        except ranks.UncertifiedRankError as exc:  # the engine refused a matrix
            raise ranks.UncertifiedRankError(f"{exc} {where}") from exc
        rank = sum(info.rank for info in infos)
        for info in infos:
            info.certified_rank(f"rank {rank} {where}")
        if gens:
            ranks.crosscheck_structured_rank(
                rank, min(self.dim(i), self.dim(i + t)),
                lambda: multiplication_map(self, ell, i, t).matrix, where)
        self._rank_cache[key] = rank
        return rank

    def __repr__(self):
        return (
            f"MonomialAlgebra(vars={self.num_vars}, socle_degree={self.socle_degree}, "
            f"dims={list(self.dims)})"
        )


def from_graph(g: Graph) -> MonomialAlgebra:
    """A(G): kill all variable squares and all edge products x_u x_v.

    The degree-d basis corresponds bijectively, in order, to the size-d
    independent sets of g.  The dimensions come from the independence
    polynomial; the sets are enumerated on the first read of ``bases``,
    which checks their counts against it.
    """
    gens = [tuple(2 if v == w else 0 for v in range(g.vertex_count)) for w in range(g.vertex_count)]
    for e in sorted(tuple(sorted(edge)) for edge in g.edges):
        gens.append(tuple(1 if v in e else 0 for v in range(g.vertex_count)))
    labels = tuple(g.label(v) for v in range(g.vertex_count))
    return MonomialAlgebra(
        g.vertex_count, gens, var_labels=labels, graph=g,
        dims=independence_polynomial(g).coeffs,
    )


def from_generators(num_vars: int, gens, var_labels=None) -> MonomialAlgebra:
    """Artinian quotient by the given monomial generators.

    The generating set is minimalized; a missing pure power of some variable
    raises :class:`NotArtinianError`.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be positive")
    gens = [tuple(int(e) for e in g) for g in gens]
    if not gens:
        raise EmptyGeneratorsError("generator list is empty")
    for g in gens:
        if len(g) != num_vars:
            raise ValueError(f"generator {g} has wrong arity (expected {num_vars} variables)")
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in generator {g}")
        if any(e >= 256 for e in g):
            raise ValueError("exponents are capped at 255")
        if monomial_degree(g) == 0:
            raise ValueError("the constant monomial cannot generate a proper ideal")
    labels = tuple(var_labels) if var_labels else tuple(f"y{j + 1}" for j in range(num_vars))

    minimal: list[Monomial] = []
    for g in sorted(set(gens), key=lambda m: (monomial_degree(m), [-e for e in m])):
        if not any(monomial_divides(d, g) for d in minimal):
            minimal.append(g)

    caps = [None] * num_vars
    for g in minimal:
        support = [j for j, e in enumerate(g) if e]
        if len(support) == 1:
            j = support[0]
            if caps[j] is None or g[j] < caps[j]:
                caps[j] = g[j]
    for j, cap in enumerate(caps):
        if cap is None:
            raise NotArtinianError(
                f"no pure power of variable {labels[j]} among the generators"
            )

    # generators indexed by variable, for the incremental divisibility test
    by_var: list[list[Monomial]] = [[] for _ in range(num_vars)]
    for g in minimal:
        for j, e in enumerate(g):
            if e:
                by_var[j].append(g)

    bases: list[list[Monomial]] = [[(0,) * num_vars]]
    while True:
        level = bases[-1]
        nxt: set[Monomial] = set()
        for m in level:
            for j in range(num_vars):
                if m[j] + 1 >= caps[j]:
                    continue  # the pure power of x_j already divides the candidate
                cand = m[:j] + (m[j] + 1,) + m[j + 1:]
                if cand in nxt:
                    continue
                target = m[j] + 1
                divisible = False
                for g in by_var[j]:
                    if g[j] == target and monomial_divides(g, cand):
                        divisible = True
                        break
                if not divisible:
                    nxt.add(cand)
        if not nxt:
            break
        bases.append(sorted(nxt, key=lambda mm: [-e for e in mm]))
    return MonomialAlgebra(num_vars, minimal, bases=bases, var_labels=labels)


def hilbert_series(a: MonomialAlgebra) -> IntPolynomial:
    """Generating polynomial of the graded dimensions."""
    return IntPolynomial(a.dims)


@dataclass
class GradedMap:
    """Matrix of multiplication by a power of a linear form between two graded
    pieces, in the algebra's canonical bases; shape is (target dim, source dim)."""

    source_degree: int
    target_degree: int
    matrix: ranks.SparseCols
    form: LinearForm

    _rank_info: ranks.RankInfo | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.matrix.nrows, self.matrix.ncols)

    @property
    def rank(self) -> int:
        """The exact rank; raises :class:`ranks.UncertifiedRankError` where
        :attr:`rank_info` holds only a lower bound."""
        info = self.rank_info
        return info.certified_rank(f"rank {info.rank} at degree {self.source_degree}")

    @property
    def rank_info(self) -> ranks.RankInfo:
        if self._rank_info is None:
            self._rank_info = ranks.exact_rank_info(self.matrix)
        return self._rank_info

    def to_json_dict(self) -> dict:
        return self.matrix.to_json_dict(rank=self.rank)


def multiplication_map(a: MonomialAlgebra, ell: LinearForm, i: int, t: int = 1) -> GradedMap:
    """The map given by multiplying degree-i basis monomials by ell^t.

    Monomials divisible by an ideal generator vanish; for t >= 2 the matrix is
    the composition of t single-step maps (an exact integer product).
    """
    if i < 0:
        raise ValueError("degree must be non-negative")
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(ell.coefficients) != a.num_vars:
        raise ValueError("linear form arity does not match the algebra")
    matrix = _single_step_matrix(a, ell, i)
    for step in range(1, t):
        matrix = _single_step_matrix(a, ell, i + step).matmul(matrix)
    return GradedMap(i, i + t, matrix, ell)


def _single_step_matrix(a: MonomialAlgebra, ell: LinearForm, i: int) -> ranks.SparseCols:
    if a.graph is not None:
        return _graph_step_matrix(a, ell, i)
    src = a.basis(i)
    tgt_index = a.basis_index(i + 1) if i + 1 <= a.socle_degree else {}
    nrows = a.dim(i + 1)
    cols = []
    coeffs = ell.coefficients
    for m in src:
        col = []
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            cand = m[:j] + (m[j] + 1,) + m[j + 1:]
            row = tgt_index.get(cand)
            if row is not None:
                col.append((row, c))
        col.sort()
        cols.append(col)
    return ranks.SparseCols(nrows, len(src), cols)


def _graph_step_matrix(a: MonomialAlgebra, ell: LinearForm, i: int) -> ranks.SparseCols:
    """The same matrix for a graph algebra, read off its masks: x_j takes
    the set s to s | {j}, or to zero where that is no basis element."""
    top = a.socle_degree
    src = a.masks[i] if 0 <= i <= top else ()
    tgt_index = {m: r for r, m in enumerate(a.masks[i + 1])} if 0 <= i + 1 <= top else {}
    terms = [(1 << j, c) for j, c in enumerate(ell.coefficients) if c]
    cols = []
    for s in src:
        col = []
        for bit, c in terms:
            row = tgt_index.get(s | bit) if not s & bit else None
            if row is not None:
                col.append((row, c))
        col.sort()
        cols.append(col)
    return ranks.SparseCols(a.dim(i + 1), len(src), cols)


def exact_rank(matrix) -> int:
    """Certified rank over the rationals of an integer matrix (or a GradedMap)."""
    if isinstance(matrix, GradedMap):
        return matrix.rank
    return ranks.exact_rank(matrix)


_TOKEN = re.compile(r"^([A-Za-z_]+)(\d+)(?:\^(\d+))?$")


def parse_generators(text: str):
    """Parse the generator file format: one monomial per line, factors like
    ``y1^2`` or ``y3`` separated by spaces; ``#`` comments allowed.

    Returns ``(num_vars, generators, labels)`` with variables ordered by
    (name prefix, index) and numbered contiguously.
    """
    factor_lists = []
    names: set[tuple[str, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        factors = []
        for tok in line.split():
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"line {lineno}: bad factor {tok!r} (expected e.g. y1^2)")
            prefix, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if exp < 1:
                raise ValueError(f"line {lineno}: exponent must be >= 1 in {tok!r}")
            factors.append(((prefix, idx), exp))
            names.add((prefix, idx))
        if factors:
            factor_lists.append(factors)
    if not factor_lists:
        raise EmptyGeneratorsError("no generators in input")
    order = {name: k for k, name in enumerate(sorted(names))}
    num_vars = len(order)
    gens = []
    for factors in factor_lists:
        exps = [0] * num_vars
        for name, e in factors:
            exps[order[name]] += e
        gens.append(tuple(exps))
    labels = [f"{prefix}{idx}" for prefix, idx in sorted(names)]
    return num_vars, gens, labels
