"""Tensor products with a complete quadratic block, and their block matrices.

B is the inner algebra A tensored with k[x_1..x_n]/(x_1..x_n)^2.  ``_product``
builds it from the factors' bases, the quadratic block first and A second,
and that order is the block ordering of B's graded basis: for 1 <= i <= D the
degree-i basis is x_1 * (degree i-1 basis of A), ..., x_n * (degree i-1
basis of A), then the degree-i basis of A itself.  With that ordering the
matrix of multiplication by the all-ones form literally shows the block
layout: copies of the inner one-step matrix on the diagonal, identity blocks
in the last column block, and the next inner matrix in the corner.  The
products A1 tensor A2 of the failure witnesses are built by ``_product`` too.

The rank of the big matrix then matches a prediction computed purely from
the inner algebra: for interior degrees the map is injective (surjective)
exactly when both the one-step and the two-step inner maps are; the bottom
map is always injective and the top map has maximal rank exactly when the
last inner one-step map is surjective.  Both sides of that equivalence are
computed independently here; tests assert they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .algebra import (
    GradedMap,
    LinearForm,
    MonomialAlgebra,
    Monomial,
    multiplication_map,
)

# elements of one boolean (monomial, generator, variable) comparison block
_CHECK_ELEMS = 1 << 20

# algebra_key tries every permutation of at most this many variables (5040)
_KEY_MAX_VARS = 7


class TensorAlgebra:
    """B = k[x_1..x_n]/(x)^2 tensor A, with the block basis ordering."""

    def __init__(self, n: int, inner: MonomialAlgebra):
        if n < 1:
            raise ValueError("n must be positive")
        if inner.socle_degree < 1:
            raise ValueError("inner algebra must have positive socle degree")
        self.n = n
        self.inner = inner
        block = _quadratic(n)
        self.realized = _product(block, inner, block.var_labels + inner.var_labels)

    def __repr__(self):
        return f"TensorAlgebra(n={self.n}, inner={self.inner!r})"


def _quadratic(n: int) -> MonomialAlgebra:
    """k[x_1..x_n]/(x_1..x_n)^2, with basis 1, x_1, ..., x_n."""
    units = [tuple(int(v == j) for v in range(n)) for j in range(n)]
    gens = [tuple(p + q for p, q in zip(units[a], units[b]))
            for a in range(n) for b in range(a, n)]
    return MonomialAlgebra(n, gens, bases=[[(0,) * n], units])


def _product(a1: MonomialAlgebra, a2: MonomialAlgebra, labels) -> MonomialAlgebra:
    """a1 tensor a2, on a1's variables followed by a2's.

    x + y is standard exactly when x is standard in a1 and y in a2, so the
    degree-k basis is every x + y with x in [a1]_i and y in [a2]_{k-i}: the x
    in descending tuple order, and for each x the y in a2's basis order.  The
    generators are a1's, padded with zeros, then a2's.  Raises AssertionError
    when a factor's basis holds a monomial that its generators divide.
    """
    pad1, pad2 = (0,) * a2.num_vars, (0,) * a1.num_vars
    gens = [g + pad1 for g in a1.generators] + [pad2 + g for g in a2.generators]
    xs = sorted((x for level in a1.bases for x in level), reverse=True)
    bases = [[x + y for x in xs for y in a2.basis(k - sum(x))]
             for k in range(a1.socle_degree + a2.socle_degree + 1)]
    _check_standard([m for level in bases for m in level], gens)
    return MonomialAlgebra(a1.num_vars + a2.num_vars, gens, bases=bases, var_labels=labels)


def _check_standard(monomials: list[Monomial], gens: list[Monomial]) -> None:
    """Raise AssertionError unless no generator divides any of the monomials.

    g divides m exactly when m >= g in every coordinate; the comparison runs
    over blocks of monomials so that its boolean array stays bounded.
    """
    g = np.array(gens, dtype=np.int64)
    step = max(1, _CHECK_ELEMS // g.size)
    for start in range(0, len(monomials), step):
        m = np.array(monomials[start:start + step], dtype=np.int64)
        hit = (m[:, None, :] >= g[None]).all(2)
        if hit.any():
            k, j = np.argwhere(hit)[0]
            raise AssertionError(
                f"realised basis monomial {monomials[start + k]} is divisible "
                f"by generator {gens[j]}"
            )


def tensor_with_squarefree_block(n: int, a: MonomialAlgebra) -> TensorAlgebra:
    """Tensor a with the complete quadratic algebra on n new variables."""
    return TensorAlgebra(n, a)


def block_matrix(tb: TensorAlgebra, i: int) -> GradedMap:
    """Matrix of the all-ones multiplication [B]_i -> [B]_{i+1} in the block bases."""
    if not 0 <= i <= tb.inner.socle_degree:
        raise ValueError(f"degree {i} outside 0..{tb.inner.socle_degree}")
    return multiplication_map(
        tb.realized, LinearForm.all_ones(tb.realized.num_vars), i, 1
    )


@dataclass(frozen=True)
class Verdict:
    injective: bool | None
    surjective: bool | None
    maximal_rank: bool | None

    def to_json_dict(self) -> dict:
        return {
            "injective": self.injective,
            "surjective": self.surjective,
            "maximal_rank": self.maximal_rank,
        }


@dataclass(frozen=True)
class BlockMatrixReport:
    degree: int
    predicted: Verdict
    direct: Verdict
    direct_rank: int

    @property
    def agree(self) -> bool:
        for name in ("injective", "surjective", "maximal_rank"):
            want = getattr(self.predicted, name)
            got = getattr(self.direct, name)
            if want is not None and want != got:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "predicted": self.predicted.to_json_dict(),
            "direct": self.direct.to_json_dict(),
            "agree": self.agree,
        }


def map_flags(a: MonomialAlgebra, ell: LinearForm, i: int, t: int) -> tuple[bool, bool]:
    """(injective, surjective) of ell^t from degree i.  A map from the zero
    space is injective and a map into it surjective, as
    :meth:`MonomialAlgebra.map_rank` gives either rank 0.

    Raises :class:`ranks.UncertifiedRankError` when the rank is not certified.
    """
    rank = a.map_rank(ell, i, t)
    return rank == a.dim(i), rank == a.dim(i + t)


def verdict_via_theorem(tb: TensorAlgebra, i: int) -> BlockMatrixReport:
    """Predicted verdict from the inner ranks next to the directly computed one."""
    inner = tb.inner
    d_top = inner.socle_degree
    if not 0 <= i <= d_top:
        raise ValueError(f"degree {i} outside 0..{d_top}")
    ell = LinearForm.all_ones(inner.num_vars)
    if i == 0:
        predicted = Verdict(injective=True, surjective=None, maximal_rank=None)
    elif i == d_top:
        # top rank is h_D + (n-1) * rank(ell at D-1): for n = 1 the identity
        # block alone already spans every row, so the map is always surjective
        inj1, surj1 = map_flags(inner, ell, d_top - 1, 1)
        predicted = Verdict(
            injective=None, surjective=None, maximal_rank=surj1 or tb.n == 1
        )
    else:
        inj1, surj1 = map_flags(inner, ell, i - 1, 1)
        inj2, surj2 = map_flags(inner, ell, i - 1, 2)
        # The block reduction gives rank = h_i + (n-1)*rank(ell) + rank(ell^2),
        # so with a single extra variable the one-step factor drops out of the
        # surjectivity side entirely; the injectivity side is unaffected since
        # an injective two-step map forces an injective first step.
        pred_inj = inj1 and inj2
        pred_surj = (surj1 or tb.n == 1) and surj2
        predicted = Verdict(
            injective=pred_inj,
            surjective=pred_surj,
            maximal_rank=pred_inj or pred_surj,
        )
    h_src = tb.realized.dim(i)
    h_tgt = tb.realized.dim(i + 1)
    rank = block_matrix(tb, i).rank
    direct = Verdict(
        injective=rank == h_src,
        surjective=rank == h_tgt,
        maximal_rank=rank == min(h_src, h_tgt),
    )
    return BlockMatrixReport(i, predicted, direct, rank)


def algebra_key(a: MonomialAlgebra) -> tuple:
    """The minimal generators up to a permutation of the variables.

    Permuting the variables of A fixes the all-ones form and the quadratic
    block, so every verdict and direct rank of the sweep is constant on a
    permutation orbit.  The key is the least sorted generator tuple over all
    permutations; above ``_KEY_MAX_VARS`` variables it is the generator set
    itself, which never merges two algebras but may miss a permuted repeat.
    """
    k = a.num_vars
    if k > _KEY_MAX_VARS:
        return k, a.generators
    return k, min(tuple(sorted(tuple(g[v] for v in perm) for g in a.generators))
                  for perm in permutations(range(k)))


def checked_verdicts(algebras, block_vars, keep=None):
    """Check the theorem on each algebra A and block size n, degree by degree.

    Yields ``(index, n, degree, agree, direct_rank, keep(report))`` (None
    without ``keep``) as each verdict is computed, and drops the report.  The
    rows of an algebra whose :func:`algebra_key` came earlier are computed
    once and yielded again under the repeat's own index; the key is computed
    once per distinct generator set.
    """
    keys: dict[tuple, tuple] = {}
    checked: dict[tuple, list[tuple]] = {}
    for idx, algebra in enumerate(algebras):
        raw = algebra.num_vars, algebra.generators
        key = keys.get(raw)
        if key is None:
            key = keys[raw] = algebra_key(algebra)
        rows = checked.get(key)
        if rows is not None:
            for row in rows:
                yield (idx, *row)
            continue
        rows = checked[key] = []
        for n in block_vars:
            tb = tensor_with_squarefree_block(n, algebra)
            for i in range(algebra.socle_degree + 1):
                rep = verdict_via_theorem(tb, i)
                rows.append((n, i, rep.agree, rep.direct_rank, keep(rep) if keep else None))
                yield (idx, *rows[-1])


def tensor_failure_witness(
    a1: MonomialAlgebra, i: int, a2: MonomialAlgebra, j: int, mode: str
) -> bool:
    """Check that a failure of ``mode`` propagates to the tensor product.

    Both all-ones maps (degree i -> i+1 on a1, degree j -> j+1 on a2) must
    fail the given mode; the combined all-ones map on a1 (x) a2 is then
    computed at degree i+j+1 (surjective mode) or i+j (injective mode) and
    True is returned exactly when it fails the mode too -- which is forced:
    a product of two non-surjective (non-injective) maps stays deficient one
    degree up in the tensor product.
    """
    if mode not in ("injective", "surjective"):
        raise ValueError("mode must be 'injective' or 'surjective'")
    flags1 = map_flags(a1, LinearForm.all_ones(a1.num_vars), i, 1)
    flags2 = map_flags(a2, LinearForm.all_ones(a2.num_vars), j, 1)
    pick = 0 if mode == "injective" else 1
    if flags1[pick]:
        raise ValueError(f"the first map (degree {i}) does not fail {mode}")
    if flags2[pick]:
        raise ValueError(f"the second map (degree {j}) does not fail {mode}")
    labels = tuple(f"a_{lbl}" for lbl in a1.var_labels) + tuple(
        f"b_{lbl}" for lbl in a2.var_labels
    )
    combined = _product(a1, a2, labels)
    degree = i + j + 1 if mode == "surjective" else i + j
    inj, surj = map_flags(combined, LinearForm.all_ones(combined.num_vars), degree, 1)
    return not (surj if mode == "surjective" else inj)
