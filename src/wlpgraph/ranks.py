"""Exact rank of integer matrices over the rationals.

Small matrices go through fraction-free Bareiss elimination over
arbitrary-precision integers -- unconditional -- in their wide orientation,
with partial pivoting on magnitude (smallest nonzero pivot, to limit entry
growth) and each row's scaling deferred until it is next eliminated.

Larger ones are peeled of singleton rows and columns (an exact rank split)
and the core is factored once, in its tall orientation, by a blocked LU
modulo a small prime.  That one factorization gives both halves of the
certificate:

* the rank mod p, a lower bound for the rational rank (a nonzero minor mod
  p is nonzero over Z), which settles full rank on its own;
* for a deficient core of any nullity, a kernel basis mod p read from the
  same echelon form by back substitution of U over the free columns.  One
  loop certifies it: the basis is step 1 of Dixon's p-adic lifting on the
  pivot block of the same factors, each vector is rationally reconstructed
  at p, p^2, p^4, ... and checked by one exact product, and only the vectors
  that need it are lifted further, in int64 where that cannot overflow and
  in Python integers otherwise.  A verified set of independent null vectors
  caps the rank.  If a prime is unlucky the next one is tried.
  A core whose dense image would exceed ``DENSE_ELEMS_CAP`` is not ranked:
  :func:`_dense_mod` raises :class:`UncertifiedRankError` instead.

The LU runs over float64 with primes below 2^23, so panel updates become BLAS
matrix products.  Residues are kept centred, |r| <= p/2 + 2, by one
``x - rint(x/p) * p`` step, and reduction is delayed to where exactness needs
it: a panel update adds at most 64 (p/2 + 2)^2 < 2^51 to an entry, so the
trailing block takes several updates unreduced, with a running bound on its
entries, and is reduced only when the next one could pass 2^53 - p.  The
separate :func:`rank_modular` route, an independent cross-check of the
Bareiss route, row-reduces one dense int64 image modulo random primes above
2^30, drawn once per seed, and stops at the first prime that reaches full
rank.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

# Blocked-LU panel width.  With an odd p < 2^23 a centred residue has
# |r| <= h = p//2 + 2 <= 2^22 + 1, so one panel update adds at most
# 64 h^2 < 2^51 to an entry (see _BlockedLU); float64 is exact below 2^53.
_PANEL = 64
_SMALL_PRIME_BOUND = 1 << 23
# Elements per row block of the in-place reductions and trailing updates.
_REDUCE_BLOCK = 1 << 16

# Route-selection and memory caps (correctness never depends on them: the
# first picks which exact route runs, the second which matrices are refused).
BAREISS_OPS_CAP = 1_000_000  # rows*cols*min budget for Bareiss (so min dim <= 100)
DENSE_ELEMS_CAP = 70_000_000  # budget of every dense image (~560 MB in float64)
DIXON_MAX_STEPS = 700

CROSSCHECK_CAP = 110       # registry mode: run Bareiss + >2^30 modular up to this min-dim


class RankComputationError(RuntimeError):
    """Internal disagreement between independent rank routes."""


class UncertifiedRankError(RuntimeError):
    """An exact rank was asked for but not certified: the engine only bounded
    it from below, or the matrix's dense image would exceed the budget."""


# ---------------------------------------------------------------------------
# sparse column-major representation


class SparseCols:
    """Integer matrix stored as per-column sorted lists of (row, value)."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: list[list[tuple[int, int]]]):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def from_dense(cls, rows) -> "SparseCols":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    cols[j].append((i, int(v)))
        return cls(nrows, ncols, cols)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col:
                out[i][j] = v
        return out

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    def max_abs(self) -> int:
        best = 0
        for col in self.cols:
            for _, v in col:
                a = -v if v < 0 else v
                if a > best:
                    best = a
        return best

    def transpose(self) -> "SparseCols":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col:
                cols[i].append((j, v))
        return SparseCols(self.ncols, self.nrows, cols)

    def matmul(self, other: "SparseCols") -> "SparseCols":
        """Exact integer product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols: list[list[tuple[int, int]]] = []
        for bcol in other.cols:
            acc: dict[int, int] = {}
            for k, vb in bcol:
                for i, va in self.cols[k]:
                    acc[i] = acc.get(i, 0) + va * vb
            cols.append(sorted((i, v) for i, v in acc.items() if v))
        return SparseCols(self.nrows, other.ncols, cols)

    def matvec(self, vec) -> list[int]:
        """Exact integer product self @ vec (vec indexed by columns)."""
        out = [0] * self.nrows
        for j, col in enumerate(self.cols):
            x = vec[j]
            if x:
                for i, v in col:
                    out[i] += v * x
        return out

    def to_json_dict(self, rank: int | None = None) -> dict:
        triples = [[i, j, v] for j, col in enumerate(self.cols) for i, v in col]
        out = {"shape": [self.nrows, self.ncols], "entries": triples}
        if rank is not None:
            out["rank"] = rank
        return out


def _coerce(matrix) -> SparseCols:
    if isinstance(matrix, SparseCols):
        return matrix
    if isinstance(matrix, np.ndarray):
        return SparseCols.from_dense(matrix.tolist())
    return SparseCols.from_dense([list(row) for row in matrix])


# ---------------------------------------------------------------------------
# Bareiss fraction-free elimination


def rank_bareiss(matrix) -> int:
    """Rank over Q by fraction-free integer elimination (Bareiss, 1968).

    Runs on the wide orientation (rank is transpose-invariant), so a step
    touches at most min-dim rows.  Pivots have the smallest nonzero magnitude
    in their column, keeping the (minor-valued) entries as small as pivoting
    allows.  Row scaling is deferred: row i is stored at the scale of the
    step that last touched it, whose pivot is ``stamp[i]``; the skipped
    factors telescope, so the true row is ``stored * prev // stamp[i]``.  Rows
    with a zero in the pivot column are not touched, and the others become
    ``(stored * piv - f * pivot_row) // stamp[i]``, an exact division.
    """
    sp = _coerce(matrix)
    if sp.nrows > sp.ncols:
        sp = sp.transpose()
    m = sp.to_dense()
    nrows = sp.nrows
    stamp = [1] * nrows
    r = 0
    prev = 1
    for c in range(sp.ncols):
        if r == nrows:
            break
        piv_i = -1
        piv_abs = 0
        for i in range(r, nrows):
            v = m[i][c]
            if v:
                s = stamp[i]
                a = abs(v if s == prev else v * prev // s)
                if piv_i < 0 or a < piv_abs:
                    piv_i, piv_abs = i, a
        if piv_i < 0:
            continue
        if piv_i != r:
            m[piv_i], m[r] = m[r], m[piv_i]
            stamp[piv_i], stamp[r] = stamp[r], stamp[piv_i]
        row_r = m[r]
        s = stamp[r]
        if s != prev:
            row_r[c:] = [a * prev // s for a in row_r[c:]]
        piv = row_r[c]
        tail = row_r[c + 1:]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            if f:
                s = stamp[i]
                row_i[c + 1:] = [(a * piv - f * b) // s for a, b in zip(row_i[c + 1:], tail)]
                stamp[i] = piv
        prev = piv
        r += 1
    return r


# ---------------------------------------------------------------------------
# primes


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3 * 10^24 with these bases
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    out = []
    n = limit - 1
    while len(out) < count:
        if _is_probable_prime(n):
            out.append(n)
        n -= 2 if n % 2 else 1
    return tuple(out)


SMALL_PRIMES: tuple[int, ...] = _primes_below(_SMALL_PRIME_BOUND, 60)


def random_primes(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """Distinct probable primes sampled uniformly-ish from (lo, hi)."""
    out: set[int] = set()
    while len(out) < count:
        n = rng.randrange(lo + 1, hi) | 1
        while n < hi and not _is_probable_prime(n):
            n += 2
        if n < hi:
            out.add(n)
    return sorted(out)


# ---------------------------------------------------------------------------
# structural peeling (exact, field-independent rank splits)


def _peel(sp: SparseCols):
    """Strip singleton rows/columns; returns (core, base_rank).

    A column with a single nonzero entry contributes 1 to the rank and its
    pivot row can be deleted outright (clearing the pivot row only alters the
    row being deleted); symmetrically for singleton rows.  Zero rows/columns
    are dropped.  All of this is exact over any field, in particular over Q.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for j, col in enumerate(sp.cols):
        for i, v in col:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    base = 0

    def kill_row(i: int):
        for j in list(rows[i]):
            cols[j].discard(i)
            if not cols[j]:
                del cols[j]
        del rows[i]

    def kill_col(j: int):
        for i in list(cols[j]):
            del rows[i][j]
            if not rows[i]:
                del rows[i]
        del cols[j]

    changed = True
    while changed:
        changed = False
        for j in [j for j, rs in cols.items() if len(rs) == 1]:
            if j not in cols or len(cols[j]) != 1:
                continue
            (i,) = cols[j]
            kill_col(j)
            if i in rows:
                kill_row(i)
            base += 1
            changed = True
        for i in [i for i, cs in rows.items() if len(cs) == 1]:
            if i not in rows or len(rows[i]) != 1:
                continue
            (j,) = rows[i]
            kill_row(i)
            if j in cols:
                kill_col(j)
            base += 1
            changed = True
    if not rows:
        return SparseCols(0, 0, []), base
    row_idx = sorted(rows)
    col_idx = sorted(cols)
    rpos = {r: k for k, r in enumerate(row_idx)}
    cpos = {c: k for k, c in enumerate(col_idx)}
    out_cols: list[list[tuple[int, int]]] = [[] for _ in col_idx]
    for i, cs in rows.items():
        for j, v in cs.items():
            out_cols[cpos[j]].append((rpos[i], v))
    for col in out_cols:
        col.sort()
    return SparseCols(len(row_idx), len(col_idx), out_cols), base


# ---------------------------------------------------------------------------
# dense modular elimination


def _dense_mod(sp: SparseCols, p: int | None, dtype=np.float64) -> np.ndarray:
    """Dense image of sp with entries reduced into [0, p) (exact if p is None).

    Every dense image of the engine is made here, so this is where the memory
    budget holds: an image of more than ``DENSE_ELEMS_CAP`` elements raises
    :class:`UncertifiedRankError`, naming its shape, before it is allocated.
    """
    if sp.nrows * sp.ncols > DENSE_ELEMS_CAP:
        raise UncertifiedRankError(
            f"dense image {sp.nrows}x{sp.ncols} exceeds the budget of "
            f"{DENSE_ELEMS_CAP} elements (DENSE_ELEMS_CAP)")
    a = np.zeros((sp.nrows, sp.ncols), dtype=dtype)
    rows = [i for col in sp.cols for i, _ in col]
    cols = [j for j, col in enumerate(sp.cols) for _ in col]
    vals = [v for col in sp.cols for _, v in col]
    a[rows, cols] = vals if p is None else [v % p for v in vals]
    return a


def _reduce(x: np.ndarray, fp: float) -> np.ndarray:
    """Centre integral float64 ``x`` modulo fp in place: |x| <= 2^53 - p on
    entry, x congruent and |x| <= p/2 + 2 on return.

    Computes x - q * p with q = rint(x * (1/p)).  The computed quotient is
    within |x/p| * 2^-52 < 2/p of x/p, so |x/p - q| <= 1/2 + 2/p, that is
    |x - q * p| <= p/2 + 2; and |q * p| <= |x| + p/2 + 2 <= 2^53, so every
    step is exact.  The work runs a block of rows at a time, so no temporary
    larger than ``_REDUCE_BLOCK`` elements is allocated.
    """
    step = max(1, _REDUCE_BLOCK * x.shape[0] // max(x.size, 1))
    buf = np.empty((min(step, x.shape[0]),) + x.shape[1:])
    for i0 in range(0, x.shape[0], step):
        blk = x[i0:i0 + step]
        q = buf[:blk.shape[0]]
        np.multiply(blk, 1.0 / fp, out=q)
        np.rint(q, out=q)
        q *= fp
        blk -= q
    return x


def _sub_product(c: np.ndarray, left: np.ndarray, right: np.ndarray):
    """c <- c - left @ right in place, a block of rows at a time, so the
    product never needs a temporary as large as c.  No reduction: the caller
    keeps every entry within 2^53 - p."""
    step = max(1, _REDUCE_BLOCK // max(c.shape[1], 1))
    buf = np.empty((min(step, c.shape[0]), c.shape[1]))
    for i0 in range(0, c.shape[0], step):
        blk = c[i0:i0 + step]
        prod = buf[:blk.shape[0]]
        np.matmul(left[i0:i0 + step], right, out=prod)
        blk -= prod


def _rank_mod_p_int64(a: np.ndarray, p: int) -> int:
    """Plain row-reduction rank mod p (p < 2^31) of an int64 or object image;
    rows are not normalized, as |row * piv - f * pivot_row| stays below 2^62."""
    a = np.asarray(a % p, dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:  # rows r..i-1 are zero in column c, so the swap moves a zero there
            a[[r, i]] = a[[i, r]]
        if nz.size > 1:
            rows = r + nz[1:]
            a[rows, c:] = (a[rows, c:] * a[r, c] - a[rows, c:c + 1] * a[r, c:]) % p
        r += 1
    return r


class _BlockedLU:
    """In-place blocked LU mod p (p < 2^23) over float64 with BLAS updates.

    Handles rectangular, rank-deficient input whose entries are residues,
    |a| < p.  On return P A Q = L U mod p: row k of the factors is row
    ``perm[k]`` of A, column c is column ``col_perm[c]``, L is unit lower
    triangular and U (``rank`` rows) is in row echelon form.  Both share
    ``a``, whose entries stay residues (centred or in [0, p)).  Each panel's
    pivots fill one square block, recorded in ``panels`` as (r0, r1, k0):
    pivots r0..r1-1 sit in columns k0..k0+r1-r0-1, and the panel's non-pivot
    columns follow them.  The pivot rows and columns give a nonsingular
    r x r system that :meth:`solve` solves; :meth:`kernel_basis` reads the
    kernel.

    Reduction is delayed to where exactness needs it.  Let h = p//2 + 2, the
    bound of a centred residue from :func:`_reduce`; an odd p < 2^23 gives
    h <= 2^22 + 1.  Every product the factorization forms sums at most
    ``_PANEL`` = 64 terms whose factors are residues, |x| < p, so it stays
    below 64 p^2 < 2^52 and is exact.  The trailing update subtracts
    L21 @ U12 with both factors centred, which moves an entry by at most
    64 h^2 < 2^51.  So the trailing block is not reduced after an update: a
    running bound on its entries is kept, and the block is reduced only when
    the next update could take it past 2^53 - p, the limit of
    :func:`_reduce`.  The primes of ``SMALL_PRIMES`` lie within 2^14 of
    2^23, so h < 2^22, 64 h^2 < 2^50 and p + 8 * 64 h^2 < 2^53 - p while
    9 * 64 h^2 > 2^53: the block is reduced once every eight panels.  A
    panel's columns are reduced as they are copied out, and its U row block
    before and after the product with L11^-1.

    Within a panel the multiplier columns are stored unscaled (pivot times
    multiplier): each column step applies the pivot inverses to the
    length-t vector of U entries and to the new row of L11^-1, and L21 and
    the strict lower part of L11 are scaled once when the panel is done.
    """

    def __init__(self, a: np.ndarray, p: int):
        if p >= _SMALL_PRIME_BOUND:
            raise ValueError("blocked LU requires p < 2^23")
        self.p = p
        self.a = a
        self.nrows, self.ncols = a.shape
        self.perm = np.arange(self.nrows)
        self.col_perm = np.arange(self.ncols)
        self.piv_inv: list[int] = []
        self.panels: list[tuple[int, int, int]] = []
        self._factor()

    def _factor(self):
        a, p = self.a, self.p
        nrows, ncols = self.nrows, self.ncols
        fp = float(p)
        h = p // 2 + 2  # bound of a centred residue
        growth = _PANEL * h * h  # what one trailing update adds, at most
        bound = p  # on the entries of the trailing block a[r:, k0:]
        r = 0
        k0 = 0
        while k0 < ncols and r < nrows:
            k1 = min(k0 + _PANEL, ncols)
            r0 = r
            w = k1 - k0
            # factor the panel in a Fortran-order scratch block (contiguous
            # columns); pivot columns are swapped to the panel front so the
            # L/U blocks stay contiguous slices
            panel = np.asfortranarray(_reduce(a[r0:, k0:k1], fp))
            orig = list(range(k0, k1))
            src = np.arange(r0, nrows)  # row of a that each panel row came from
            linv = np.identity(w)  # inverse of the unit-lower multiplier triangle
            inv = np.empty(w)  # pivot inverses
            t = 0
            for jl in range(w):
                col = panel[:, jl]
                if t:
                    # panel[t:, :t] holds the multipliers times their pivots
                    u = linv[:t, :t] @ col[:t] % fp
                    col[:t] = u
                    col[t:] -= panel[t:, :t] @ (u * inv[:t] % fp)
                    _reduce(col[t:], fp)
                if t == nrows - r0:
                    continue
                il = t + int((col[t:] != 0).argmax())
                if not col[il]:
                    continue
                if il != t:
                    panel[t], panel[il] = panel[il].copy(), panel[t].copy()
                    src[t], src[il] = src[il], src[t]
                if jl != t:
                    panel[:, t], panel[:, jl] = col.copy(), panel[:, t].copy()
                    orig[t], orig[jl] = orig[jl], orig[t]
                piv = pow(int(panel[t, t]), -1, p)
                self.piv_inv.append(piv)
                inv[t] = piv
                if t:
                    linv[t, :t] = -((panel[t, :t] * inv[:t] % fp) @ linv[:t, :t]) % fp
                t += 1
            np_ = t
            if np_:
                lower = np.tril_indices(np_, -1)
                panel[lower] = panel[lower] * inv[lower[1]] % fp
                l21 = panel[np_:, :np_]
                l21 *= inv[:np_]
                _reduce(l21.T, fp)
            # apply the panel's row swaps to the rest of the matrix
            moved = np.flatnonzero(src != np.arange(r0, nrows))
            if moved.size:
                dst, rows = r0 + moved, src[moved]
                a[dst, :k0] = a[rows, :k0]
                a[dst, k1:] = a[rows, k1:]
                self.perm[dst] = self.perm[rows]
            # and its column swaps to the U rows above it
            if r0 and orig != list(range(k0, k1)):
                a[:r0, k0:k1] = a[:r0, orig]
            self.col_perm[k0:k1] = orig
            a[r0:, k0:k1] = panel
            r = r0 + np_
            if np_:
                self.panels.append((r0, r, k0))
                if k1 < ncols:
                    ublk = _reduce(a[r0:r, k1:], fp)
                    ublk[...] = linv[:np_, :np_] @ ublk
                    _reduce(ublk, fp)
                    if r < nrows:
                        if bound + growth > (1 << 53) - p:
                            _reduce(a[r:, k1:], fp)
                            bound = h
                        _sub_product(a[r:, k1:], panel[np_:, :np_], ublk)
                        bound += growth
            k0 = k1
        self.rank = r

    @property
    def piv_pos(self) -> list[int]:
        """Factor column of each pivot."""
        return [k0 + k for r0, r1, k0 in self.panels for k in range(r1 - r0)]

    # -- exact mod-p solves on the pivot rows and columns ----------------------

    def _block_dot(self, y: np.ndarray, r0: int, r1: int, panels):
        """y[r0:r1] <- y[r0:r1] - sum of a[r0:r1, panel pivots] @ y[panel rows], mod p."""
        blk = y[r0:r1]
        for s0, s1, j0 in panels:
            blk -= self.a[r0:r1, j0:j0 + s1 - s0] @ y[s0:s1]
            _reduce(blk, float(self.p))

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve (P A Q)[:r, piv_pos] x = y mod p in place: the pivot rows and
        columns, so y is indexed like ``perm[:r]`` and x like
        ``col_perm[piv_pos]``.
        y holds residues in [0, p) and may carry several right-hand sides as
        columns.  For a square matrix of full rank this solves A x = b with
        y = b[perm]."""
        a, fp = self.a, float(self.p)
        for k, (r0, r1, k0) in enumerate(self.panels):  # forward, unit L
            self._block_dot(y, r0, r1, self.panels[:k])
            for i in range(r0 + 1, r1):
                y[i] = (y[i] - a[i, k0:k0 + i - r0] @ y[r0:i]) % fp
        return self._solve_upper(y)

    def _solve_upper(self, x: np.ndarray) -> np.ndarray:
        a, fp = self.a, float(self.p)
        for k in range(len(self.panels) - 1, -1, -1):
            r0, r1, k0 = self.panels[k]
            self._block_dot(x, r0, r1, self.panels[k + 1:])
            for i in range(r1 - 1, r0 - 1, -1):
                c = k0 + i - r0
                if i + 1 < r1:
                    x[i] = (x[i] - a[i, c + 1:k0 + r1 - r0] @ x[i + 1:r1]) % fp
                x[i] = x[i] * self.piv_inv[i] % fp
        return x

    def kernel_basis(self, count: int) -> tuple[list[int], np.ndarray]:
        """Kernel vectors mod p for the first ``count`` non-pivot columns.

        Returns the columns (of A) and a matrix whose k-th column is the
        solution of U y = 0 with 1 at the k-th of them and 0 at the other
        non-pivot columns, by back substitution of U; rows follow A's columns.
        """
        r, fp = self.rank, float(self.p)
        pos = self.piv_pos
        is_piv = np.zeros(self.ncols, dtype=bool)
        is_piv[pos] = True
        free = np.flatnonzero(~is_piv)[:count]
        x = self._solve_upper((fp - self.a[:r, free]) % fp)
        y = np.zeros((self.ncols, free.size))
        y[pos] = x
        y[free, np.arange(free.size)] = 1.0
        out = np.empty_like(y)
        out[self.col_perm] = y
        return self.col_perm[free].tolist(), out


@lru_cache(maxsize=1024)
def _crosscheck_primes(seed: int, count: int) -> tuple[int, ...]:
    """The primes of :func:`rank_modular`, drawn once per (seed, count)."""
    return tuple(random_primes(1 << 30, 1 << 31, count, random.Random(seed)))


def rank_modular(matrix, prime_count: int = 3, seed: int = 0) -> int:
    """Max of ranks modulo ``prime_count`` random primes in (2^30, 2^31).

    Always a lower bound for the rational rank; equality holds unless every
    sampled prime divides the pivotal minor.  Serves as the independent
    cross-check of the Bareiss route.  The primes are drawn once per (seed,
    count), and one dense integer image is reduced modulo each in turn until
    one reaches full rank, min(rows, cols), which no other prime can exceed.
    """
    sp = _coerce(matrix)
    if sp.nrows == 0 or sp.ncols == 0:
        return 0
    a = _dense_mod(sp, None, np.int64 if sp.max_abs() < 1 << 63 else object)
    best = 0
    for p in _crosscheck_primes(seed, prime_count):
        best = max(best, _rank_mod_p_int64(a, p))
        if best == min(sp.nrows, sp.ncols):
            break
    return best


# ---------------------------------------------------------------------------
# exact null vectors: Dixon lifting from the LU's kernel basis


def _rational_reconstruct(a: int, m: int):
    """Wang reconstruction of a mod m as n/d with |n|, d <= sqrt(m/2)."""
    a %= m
    if a == 0:
        return (0, 1)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    n, d = r1, t1
    if d < 0:
        n, d = -n, -d
    if gcd(n, d) != 1:
        return None
    return (n, d)


def _try_reconstruct_vector(xacc, m: int):
    """(nums, den) with nums[i] / den congruent to xacc[i] mod m, or None.

    Exact whenever the true vector's numerators and least common denominator
    are all at most sqrt(m/2) (Wang's bound, so 2 * N * D < m).  A running
    common denominator is kept, and it always divides the true one, so an
    entry whose residue times it is already that small costs one multiply;
    only the others run Euclid.
    """
    bound = isqrt(m // 2)
    top = m - bound
    nums: list[int] = []
    den = 1
    for v in xacc:
        u = v * den % m
        if u <= bound:
            nums.append(u)
            continue
        if u >= top:
            nums.append(u - m)
            continue
        recon = _rational_reconstruct(u, m)
        if recon is None or den * recon[1] > bound:
            return None
        n, d = recon
        nums = [x * d for x in nums]
        nums.append(n)
        den *= d
    return nums, den


def _int64_safe(sp: SparseCols, p: int) -> bool:
    """Whether Dixon's integer side fits int64 for sp at p."""
    return sp.max_abs() * max(sp.nrows, sp.ncols, 1) * p < (1 << 62)


def exact_right_null_vectors(matrix, count: int, seed: int = 0,
                             lu: _BlockedLU | None = None) -> list[list[int]]:
    """Up to ``count`` independent integer vectors v with M v = 0, each verified
    in exact arithmetic.

    All of them come from one LU of M modulo a small prime: ``lu`` when the
    caller has factored M already, else a fresh one at a prime drawn from
    ``seed``.  Back substitution of U gives a kernel basis mod p in which
    vector k carries the k-th non-pivot column's unit coordinate, so the
    vectors are independent.  Its pivot entries solve the pivot system mod p:
    step 1 of Dixon's p-adic lifting on the same factors.  One loop
    reconstructs each vector at p, p^2, p^4, ... and checks it by one exact
    product: zero everywhere keeps it; zero on the pivot rows only makes it
    the pivot system's exact solution but no kernel vector, so p is unlucky
    for that column, which is dropped; anything else is lifted further.  The
    exact image that lifting needs (int64 where that cannot overflow, else
    Python integers) is built only once some vector needs it.
    """
    sp = _coerce(matrix)
    if sp.ncols == 0:
        return []
    if lu is None:
        p = SMALL_PRIMES[random.Random(seed).randrange(len(SMALL_PRIMES))]
        lu = _BlockedLU(_dense_mod(sp, p), p)
    p = lu.p
    free, basis = lu.kernel_basis(count)
    rows, cols = lu.perm[:lu.rank].tolist(), lu.col_perm[lu.piv_pos].tolist()
    xacc = basis[cols].astype(np.int64)  # step 1: the pivot solutions mod p
    vectors: list[list[int]] = []
    a_int = residual = None
    step, pk = 1, p
    while True:
        lifting = []
        for c, f in enumerate(free):
            recon = _try_reconstruct_vector(xacc[:, c].tolist(), pk)
            if recon is None:
                lifting.append(c)
                continue
            v = [0] * sp.ncols
            for j, x in zip(cols, recon[0]):
                v[j] = x
            v[f] = recon[1]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
            out = sp.matvec(v)
            if not any(out):
                vectors.append(v)
            elif any(out[i] for i in rows):
                lifting.append(c)
        if not lifting or step == DIXON_MAX_STEPS:
            return vectors
        free = [free[c] for c in lifting]
        xacc = xacc[:, lifting]
        if a_int is None:
            dense = _dense_mod(sp, None, np.int64 if _int64_safe(sp, p) else object)
            a_int = dense[np.ix_(rows, cols)]
            residual = (-dense[np.ix_(rows, free)] - a_int @ xacc) // p
            xacc = xacc.astype(object)
        else:
            residual = residual[:, lifting]
        for step in range(step + 1, min(2 * step, DIXON_MAX_STEPS) + 1):  # to the next attempt
            xi = lu.solve((residual % p).astype(np.float64)).astype(np.int64)
            residual = (residual - a_int @ xi) // p
            xacc += xi.astype(object) * pk
            pk *= p


# ---------------------------------------------------------------------------
# the exact-rank front end


@dataclass
class RankInfo:
    """Outcome of a rank computation, with certification bookkeeping."""

    rank: int
    certified: bool          # the value is unconditional
    method: str
    shape: tuple[int, int]
    nnz: int
    crosscheck: dict = field(default_factory=dict)

    def certified_rank(self, what: str) -> int:
        """``rank``; an uncertified rank is only a lower bound, from which no
        injective or surjective verdict follows, so it raises."""
        if not self.certified:
            raise UncertifiedRankError(f"{what} not certified (method {self.method})")
        return self.rank


_registry: list | None = None
_recorded_digests: set | None = None  # of the matrices recorded into _registry


@contextmanager
def recording(registry: list):
    """Route every rank computation into ``registry`` and cross-check the
    Bareiss and >2^30 modular engines on small enough matrices."""
    global _registry, _recorded_digests
    prev = _registry, _recorded_digests
    _registry, _recorded_digests = registry, set()
    try:
        yield registry
    finally:
        _registry, _recorded_digests = prev


def distinct_recorded_matrices(registry: list) -> int | None:
    """How many distinct matrices, keyed by shape and entries, the innermost
    :func:`recording` scope has ranked into ``registry``; None if that scope
    records into another list."""
    return len(_recorded_digests) if registry is _registry else None


def _digest(sp: SparseCols) -> bytes:
    # imported here, under recording only: loading hashlib maps OpenSSL,
    # about 3.5 MB of resident memory that no other run needs
    import hashlib

    return hashlib.sha256(repr((sp.nrows, sp.ncols, sp.cols)).encode()).digest()


def exact_rank(matrix) -> int:
    """Rank over the rationals; raises :class:`UncertifiedRankError` where
    :func:`exact_rank_info` returns only a lower bound."""
    info = exact_rank_info(matrix)
    return info.certified_rank(f"rank {info.rank} of a {info.shape[0]}x{info.shape[1]} matrix")


def exact_rank_info(matrix, seed: int = 0) -> RankInfo:
    """Rank over Q with the route picked by size.

    Small matrices go through Bareiss (unconditional).  Larger ones are
    peeled, and the core is factored once modulo a small prime: full modular
    rank certifies itself, and a deficient rank, of any nullity, is certified
    by exact integer null vectors of the core (one per unit of its nullity)
    read from the same factorization.  If a certificate cannot be completed
    at up to five primes, the best modular rank is returned with
    ``certified=False``; a core whose dense image would exceed
    ``DENSE_ELEMS_CAP`` raises :class:`UncertifiedRankError`.
    """
    sp = _coerce(matrix)
    info = _exact_rank_info_inner(sp, seed)
    if _registry is not None:
        if min(sp.nrows, sp.ncols) and min(sp.nrows, sp.ncols) <= CROSSCHECK_CAP:
            rb = rank_bareiss(sp)
            rm = rank_modular(sp, prime_count=3, seed=seed)
            info.crosscheck = {"bareiss": rb, "modular": rm}
            if not (rb == rm == info.rank):
                raise RankComputationError(
                    f"rank routes disagree: engine={info.rank} bareiss={rb} modular={rm}"
                )
        _registry.append(info)
        _recorded_digests.add(_digest(sp))
    return info


def crosscheck_structured_rank(rank: int, min_dim: int, build, where: str) -> None:
    """Under :func:`recording`, compare a rank obtained without the engine
    (``rank``, of a matrix with smaller dimension ``min_dim``) with the
    engine's rank of ``build()``, if ``min_dim <= CROSSCHECK_CAP``; a
    disagreement raises.  Outside a recording scope this does nothing, and
    ``build`` is not called."""
    if _registry is None or min_dim > CROSSCHECK_CAP:
        return
    info = exact_rank_info(build())
    if info.rank != rank:
        raise RankComputationError(
            f"structured rank {rank} disagrees with engine rank {info.rank} {where}"
        )


def _engine_primes(shape: tuple[int, int], seed: int, max_entry: int) -> list[int]:
    """The small primes the engine tries, in order, for a matrix of this shape."""
    rng = random.Random(seed ^ (shape[0] * 1_000_003 + shape[1]))
    primes = list(SMALL_PRIMES)
    rng.shuffle(primes)
    return [p for p in primes if p > max_entry] or primes


def _exact_rank_info_inner(sp: SparseCols, seed: int) -> RankInfo:
    shape = (sp.nrows, sp.ncols)
    nnz = sp.nnz
    if sp.nrows == 0 or sp.ncols == 0 or nnz == 0:
        return RankInfo(0, True, "trivial", shape, nnz)
    core, base = _peel(sp)
    if core.nrows == 0 or core.ncols == 0:
        return RankInfo(base, True, "peel", shape, nnz)
    mind = min(core.nrows, core.ncols)
    if core.nrows * core.ncols * mind <= BAREISS_OPS_CAP:
        return RankInfo(base + rank_bareiss(core), True, "peel+bareiss", shape, nnz)
    # rank(sp) = base + rank(core) exactly, so certifying the core suffices;
    # in its tall orientation the kernel to certify is a right kernel
    tall = core if core.nrows >= core.ncols else core.transpose()
    r = 0
    for p in _engine_primes(shape, seed, core.max_abs())[:5]:
        lu = _BlockedLU(_dense_mod(tall, p), p)
        if lu.rank == mind:
            return RankInfo(base + mind, True, "peel+modular-full", shape, nnz)
        if lu.rank <= r:
            continue
        # the prime bounds the rank from below; exact kernel vectors of the
        # same factorization cap it from above
        r = lu.rank
        vecs = exact_right_null_vectors(tall, mind - r, seed, lu=lu)
        if len(vecs) == mind - r:
            return RankInfo(base + r, True, "peel+modular+nullcert", shape, nnz)
    return RankInfo(base + r, False, "modular-consensus", shape, nnz)
