"""Independence polynomials, independent-set enumeration, and mode analysis.

The counting recursion deletes a highest-degree vertex v:

    I(G) = I(G - v) + t * I(G - N[v])

memoized on the bit mask of surviving vertices of the original graph, with a
connected-component split (polynomials of components multiply) before each
recursion step.  Coefficients are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, mask_bits, path


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of t^k.

    Trailing zeros are trimmed; the zero polynomial has an empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = _trim(self.coeffs)
        if trimmed != tuple(self.coeffs):
            object.__setattr__(self, "coeffs", trimmed)
        else:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_add(self.coeffs, other.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_mul(self.coeffs, other.coeffs))

    def shift(self, k: int = 1) -> "IntPolynomial":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def to_text(self) -> str:
        """Human-readable rendering, e.g. ``1 + 4t + 3t^2``; zero terms suppressed."""
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}t" if c != 1 else "t")
            else:
                terms.append(f"{c}t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(terms)

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings (arbitrary precision safe)."""
        return [str(c) for c in self.coeffs]

    def __str__(self):
        return self.to_text()


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


@dataclass(frozen=True)
class ModeAnalysis:
    """Unimodality verdict; ``mode`` is present exactly when unimodal."""

    is_unimodal: bool
    mode: int | None = None


def mode_analysis(p: IntPolynomial) -> ModeAnalysis:
    """Decide unimodality and locate the mode.

    The mode of a unimodal coefficient sequence a_0..a_n (with a_{-1} = 0) is
    the unique i with a_{i-1} < a_i >= a_{i+1} >= ... >= a_n, i.e. the first
    index attaining the maximum.
    """
    if p.is_zero:
        raise ValueError("mode analysis needs a nonzero polynomial")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("mode analysis needs nonnegative coefficients")
    fell = False
    for prev, cur in zip(p.coeffs, p.coeffs[1:]):
        if cur > prev:
            if fell:
                return ModeAnalysis(False)
        elif cur < prev:
            fell = True
    return ModeAnalysis(True, p.coeffs.index(max(p.coeffs)))


def independence_polynomial(g: Graph) -> IntPolynomial:
    """I(G; t): coefficient of t^k counts the k-element independent sets."""
    full = (1 << g.vertex_count) - 1
    return IntPolynomial(_indpoly_mask(g.neighbor_masks, full, {}))


def _indpoly_mask(masks, alive: int, memo: dict) -> tuple:
    if alive == 0:
        return (1,)
    cached = memo.get(alive)
    if cached is not None:
        return cached
    comps = _components(masks, alive)
    if len(comps) > 1:
        result = (1,)
        for comp in comps:
            result = _mul(result, _indpoly_component(masks, comp, memo))
    else:
        result = _indpoly_component(masks, alive, memo)
    memo[alive] = result
    return result


def _indpoly_component(masks, alive: int, memo: dict) -> tuple:
    cached = memo.get(alive)
    if cached is not None:
        return cached
    # pivot on a maximum-degree vertex of the induced subgraph, smallest index wins ties
    best_v, best_deg = -1, -1
    m = alive
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        deg = (masks[v] & alive).bit_count()
        if deg > best_deg:
            best_v, best_deg = v, deg
    if best_deg <= 0:
        # no edges left: every subset is independent
        k = alive.bit_count()
        result = tuple(_binomial_row(k))
    else:
        without = _indpoly_mask(masks, alive & ~(1 << best_v), memo)
        closed = masks[best_v] | (1 << best_v)
        with_v = _indpoly_mask(masks, alive & ~closed, memo)
        result = _add(without, (0,) + with_v)
    memo[alive] = result
    return result


def _binomial_row(k: int) -> list[int]:
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return row


def _components(masks, alive: int) -> list[int]:
    comps = []
    rem = alive
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= masks[v] & alive
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def independent_set_masks_by_size(g: Graph) -> list[list[int]]:
    """All independent sets as bit masks, grouped by size, each group in
    lexicographic order of the sorted member list."""
    n = g.vertex_count
    masks = g.neighbor_masks
    alpha_bound = n
    groups: list[list[int]] = [[] for _ in range(alpha_bound + 1)]
    groups[0].append(0)

    def extend(start: int, size: int, chosen: int, blocked: int):
        for v in range(start, n):
            bit = 1 << v
            if blocked & bit:
                continue
            groups[size + 1].append(chosen | bit)
            extend(v + 1, size + 1, chosen | bit, blocked | masks[v])

    extend(0, 0, 0, 0)
    while groups and not groups[-1]:
        groups.pop()
    return groups


def independent_sets_of_size(g: Graph, k: int):
    """Independent sets of cardinality exactly k, lexicographic on sorted members."""
    if k < 0:
        raise ValueError("k must be non-negative")
    groups = independent_set_masks_by_size(g)
    if k >= len(groups):
        return []
    return [frozenset(mask_bits(m)) for m in groups[k]]


@lru_cache(maxsize=None)
def mode_of_path(n: int) -> int:
    """Mode of I(P_n; t).  Path independence polynomials are always unimodal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    analysis = mode_analysis(independence_polynomial(path(n)))
    assert analysis.is_unimodal and analysis.mode is not None
    return analysis.mode


def check_unimodal_sum(f: IntPolynomial, g: IntPolynomial) -> ModeAnalysis:
    """Mode analysis of f + g for unimodal f, g whose modes differ by at most 1.

    Under that hypothesis the sum is unimodal with mode in {min, min + 1};
    the hypothesis is checked and its failure reported as a domain error.
    """
    mf = mode_analysis(f)
    mg = mode_analysis(g)
    if not (mf.is_unimodal and mg.is_unimodal):
        raise ValueError("both summands must be unimodal")
    if abs(mf.mode - mg.mode) > 1:
        raise ValueError(f"modes differ by more than one: {mf.mode} vs {mg.mode}")
    result = mode_analysis(f + g)
    lo = min(mf.mode, mg.mode)
    assert result.is_unimodal and result.mode in (lo, lo + 1)
    return result
