"""Exact rank of integer matrices over the rationals.

A matrix is a :class:`SparseCols`, its nonzeros as three flat lists in column
order, as the functions of the package that make maps append them (the
triplet form of Davis, *Direct Methods for Sparse Linear Systems*, SIAM 2006,
ch. 2); the stages after the peel read the core's row-ordered twin
:class:`_Rows`.

Small matrices, of rows * cols * min(rows, cols) <= ``BAREISS_OPS_CAP`` =
200 000 (so min dim <= 58), go through fraction-free Bareiss elimination over
arbitrary-precision integers -- unconditional -- in their wide orientation,
with partial pivoting on magnitude (smallest nonzero pivot, to limit entry
growth) and each row's scaling deferred until it is next eliminated.

Larger ones are peeled of singleton rows and columns (an exact rank split),
by counts of each line's nonzeros kept as lines are deleted (:func:`_peel`).
A core of full column rank in its tall orientation (m x n, m >= n) is then
certified without a prime, by a verified Cholesky factorization
(:func:`_cholesky_certifies`): A has full column rank over Q exactly when
G = A^T A is positive definite.

1. G is formed exactly in float64: every partial sum is an integer of
   magnitude at most m max|a|^2, which is checked to be below 2^53.
2. c is the smallest power of two with c > 2 gamma/(1 - gamma) trace(G),
   where gamma = (n+1)u / (1 - (n+1)u) and u = 2^-53 (compared in integer
   arithmetic).  The shift G - cI is exact: 2^53 c > trace(G) >= g_ii, so
   g_ii - c is a multiple of c below 2^53 c.
3. G - cI is factored in place.  If the factorization completes, the rank is
   n; otherwise G is freed and the echelon form below is computed.

Why a completed factorization is a proof (Demmel; Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., Thm 10.3; Rump, BIT 46 (2006)
433-452): the computed factor satisfies R^T R = G - cI + E with
|e_ij| <= gamma |r_i| |r_j| for the columns r_i of R.  With the diagonal
h_ii = g_ii - c, |r_i|^2 <= h_ii / (1 - gamma), so
|e_ij| <= gamma/(1 - gamma) sqrt(h_ii h_jj) and
||E||_2 <= gamma/(1 - gamma) trace(G - cI) < c/2.  R^T R is positive
definite, hence lambda_min(G) > c - c/2 > 0.  The hypotheses:

- IEEE binary64 with rounding to nearest.  Each l_ij is computed from
  (h_ij - sum_k l_ik l_jk) / l_jj, and l_jj as a square root, with the sum in
  any order, with or without fused multiply-adds, and the division done
  directly or by a computed reciprocal: at most n + 1 roundings per entry,
  as in LAPACK and BLAS.  No Strassen-like products.
- No underflow.  This is enforced: a nonzero |l_ij| < 2^-400 refuses the
  certificate.  Then every product and quotient of nonzero entries is normal,
  and a sum that falls below the normal range is exact.

The factorization runs in panels of ``_PANEL`` columns, left-looking: the
panel is updated by one product with the columns before it, its diagonal
block factored by LAPACK, and the rows below it found by substitution, as
``np.linalg.solve`` on the order-reversed system, which is upper triangular,
so partial pivoting keeps the diagonal and the multipliers are exact zeros.
It holds G and O(``_BLOCK`` n) elements, and is tried only where that is no
more than the echelon form below would hold.

Every other core (deficient, or refused by that stage) has its rows streamed
in blocks through a reduced row echelon form [I | X] modulo one fixed prime,
p = ``ENGINE_PRIME`` = 2^20 - 3 (:func:`_echelon`), so that no result depends
on a prime drawn at random; it holds only X and one row block.  Pivots are
leftmost, so the pivot set is the column rank profile mod p.  The echelon
form gives both halves of the certificate: the rank mod p, a lower bound for
the rational rank (a nonzero minor mod p is nonzero over Z), which settles
full rank on its own; and for a deficient core the kernel basis mod p
[-X; I], whose vectors, rationally reconstructed and checked exactly, cap
the rank (:func:`exact_right_null_vectors`, with a CRT fallback over the
primes below p).  The core's nonzeros are sorted by row once, in its tall
orientation (:class:`_Rows`), and every stage, prime and check reads them
from there.

The elimination runs over float64, so its products are BLAS matrix
products.  Residues are kept centred, |x| <= h = p//2 + 2 < 2^19 + 2
(:func:`_reduce`), so a product with inner dimension K is exact while
K h^2 + p < 2^53, that is for K <= 2^14 = ``_EXACT_TERMS``; longer products
are split into pieces of that many terms, with a reduction between them.

The products whose size is bounded run with OpenBLAS held at one thread
(:func:`_one_blas_thread`): each row block's leaf echelon (:func:`_rref`, at
most ``_BLOCK`` rows) and the Cholesky stage (n <= 1024).  Idle workers sleep
at once (``OPENBLAS_THREAD_TIMEOUT``, set on import), and on 2 cores a
128x128x472 product that woke one took about 7 ms, against 0.24 ms on one
thread.  The block reduction against X and the joins into X keep the worker
pool: their operands grow with the core.

The memory budget counts the elements an elimination holds: X, at most n^2/4
for n columns, and ``_BLOCK * n`` of the row block, not the certificate's
arrays or the algebra; one over ``DENSE_ELEMS_CAP`` raises
:class:`UncertifiedRankError` instead.  The separate :func:`rank_modular`
route, an independent cross-check of the Bareiss route, row-reduces one
dense int64 image modulo the three fixed primes ``CROSSCHECK_PRIMES``, the
largest below 2^31, and stops at the first prime that reaches full rank.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, ldexp
from typing import NamedTuple

import numpy as np

# Rows per streamed block, and per leaf of a block's echelonization.
_BLOCK = 256
_LEAF = 16
# Inner terms of an exact float64 product of centred residues mod p < 2^20.
_EXACT_TERMS = 1 << 14
# Columns per panel of the verified Cholesky factorization, and the least
# nonzero magnitude of its factor (below it, the certificate is refused).
# The stage runs on one BLAS thread; there, on 2 vCPUs, panels of 64 factored
# n = 480 and 963 in 3.2 and 16 ms, against 3.8-4.4 and 20-22 ms with
# panels of 128 or 256.
_PANEL = 64
_TINY = 2.0 ** -400

# Route-selection and memory caps (correctness never depends on them: the
# first picks which exact route runs, the second which matrices are refused).
BAREISS_OPS_CAP = 200_000  # rows*cols*min budget for Bareiss (so min dim <= 58)
DENSE_ELEMS_CAP = 70_000_000  # one elimination only: X + a row block (~560 MB as float64)
CRT_MAX_PRIMES = 805  # fallback primes of the null-vector certificate (~2^16000)

CROSSCHECK_CAP = 110       # registry mode: run Bareiss + fixed-prime modular up to this min-dim


class RankComputationError(RuntimeError):
    """Internal disagreement between independent rank routes."""


class UncertifiedRankError(RuntimeError):
    """An exact rank was asked for but not certified: the engine only bounded
    it from below, or its elimination would exceed the memory budget."""


# ---------------------------------------------------------------------------
# sparse representation: the nonzeros as flat lists, in column order


def integral(v, where: str) -> int:
    """v as an int where it equals one (a bool, a numpy integer, an integral
    float); any other value raises ValueError naming its position ``where``."""
    try:
        n = int(v)
        if n == v:
            return n
    except (TypeError, ValueError, OverflowError):  # nan, inf, None, "x"
        pass
    raise ValueError(f"{where} is not an integer: {v!r}")


class SparseCols:
    """Integer matrix held as its nonzeros, in three flat lists: entry k is
    ``vals[k]`` at row ``rows[k]`` and column ``cols[k]``.  They run in
    column order: columns non-decreasing, rows ascending within a column, no
    zero value and no repeated position, so equal matrices hold equal lists.
    :class:`_Rows` holds the same triples in row order, as arrays."""

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals")

    def __init__(self, nrows: int, ncols: int, rows: list[int], cols: list[int], vals: list[int]):
        self.nrows, self.ncols, self.rows, self.cols, self.vals = nrows, ncols, rows, cols, vals

    @classmethod
    def from_dense(cls, rows) -> "SparseCols":
        """The matrix with the given rows, iterables of integral entries, or
        of a 2-D array; anything else, rows of unequal length among them,
        raises ValueError."""
        try:
            rows = list(rows.tolist() if isinstance(rows, np.ndarray) else rows)
        except TypeError:
            raise ValueError(f"matrix is not 2-D: {rows!r}") from None
        for i, row in enumerate(rows):
            try:
                rows[i] = list(row)
            except TypeError:
                raise ValueError(f"matrix is not 2-D: row {i} is {row!r}") from None
            if len(rows[i]) != len(rows[0]):
                raise ValueError(f"matrix is not 2-D: rows 0 and {i} differ in length")
        out = cls(len(rows), len(rows[0]) if rows else 0, [], [], [])
        for j, col in enumerate(zip(*rows)):
            for i, v in enumerate(col):
                if type(v) is not int:
                    if isinstance(v, (list, tuple)):
                        raise ValueError(f"matrix is not 2-D: entry ({i}, {j}) is {v!r}")
                    v = integral(v, f"entry ({i}, {j})")
                if v:
                    out.rows.append(i)
                    out.cols.append(j)
                    out.vals.append(v)
        return out

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, v in zip(self.rows, self.cols, self.vals):
            out[i][j] = v
        return out

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def max_abs(self) -> int:
        return max(map(abs, self.vals), default=0)

    def matmul(self, other: "SparseCols") -> "SparseCols":
        """Exact integer product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # self's (row, value) pairs per column, which each entry of other reads
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
        for i, k, v in zip(self.rows, self.cols, self.vals):
            cols[k].append((i, v))
        acc: list[dict[int, int]] = [{} for _ in range(other.ncols)]
        for k, j, vb in zip(other.rows, other.cols, other.vals):
            col = acc[j]
            for i, va in cols[k]:
                col[i] = col.get(i, 0) + va * vb
        out = SparseCols(self.nrows, other.ncols, [], [], [])
        for j, col in enumerate(acc):
            for i, v in sorted(col.items()):
                if v:
                    out.rows.append(i)
                    out.cols.append(j)
                    out.vals.append(v)
        return out

    def to_json_dict(self, rank: int | None = None) -> dict:
        triples = list(map(list, zip(self.rows, self.cols, self.vals)))
        out = {"shape": [self.nrows, self.ncols], "entries": triples}
        if rank is not None:
            out["rank"] = rank
        return out


def _coerce(matrix) -> SparseCols:
    if isinstance(matrix, SparseCols):
        return matrix
    return SparseCols.from_dense(matrix)


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
    m = sp.to_dense()
    if sp.nrows > sp.ncols:
        m = [list(col) for col in zip(*m)]
    nrows = len(m)
    stamp = [1] * nrows
    r = 0
    prev = 1
    for c in range(max(sp.nrows, sp.ncols)):
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


def _is_prime(n: int) -> bool:
    """Trial division, by 2 and the odd numbers up to sqrt(n): the primes the
    package makes lie below 2^20."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2)))


def _primes_down(n: int):
    """The primes below n, descending, made as they are asked for."""
    return (k for k in range(n - 1 - n % 2, 2, -2) if _is_prime(k))


# The one prime of the engine's elimination, the largest below 2^20; the
# certificate's fallback primes lie below it.
ENGINE_PRIME = next(_primes_down(1 << 20))
# The primes of the cross-check :func:`rank_modular`, the three largest below
# 2^31, fixed so that no result depends on a prime drawn at random.
CROSSCHECK_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)


# ---------------------------------------------------------------------------
# structural peeling (exact, field-independent rank splits)


def _peel(sp: SparseCols):
    """Strip singleton rows/columns; returns (core, base_rank).

    A column with a single nonzero entry contributes 1 to the rank and its
    pivot row can be deleted outright (clearing the pivot row only alters the
    row being deleted); symmetrically for singleton rows.  Zero rows/columns
    are dropped.  All of this is exact over any field, in particular over Q.
    Each line's nonzeros are counted once; a deletion lowers the counts of the
    lines it crosses, and a count that reaches 1 queues its line.  A matrix
    whose counts all start at 2 or more is its own core, and comes back as is.
    """
    rows: list[list[int]] = [[] for _ in range(sp.nrows)]
    cdeg = [0] * sp.ncols
    for i, j in zip(sp.rows, sp.cols):
        rows[i].append(j)
        cdeg[j] += 1
    rdeg = [len(row) for row in rows]
    if min(rdeg, default=0) > 1 and min(cdeg, default=0) > 1:
        return sp, 0
    starts = list(accumulate(cdeg, initial=0))  # column j's entries are starts[j]:starts[j + 1]
    todo_c = [j for j, d in enumerate(cdeg) if d == 1]
    todo_r = [i for i, d in enumerate(rdeg) if d == 1]
    base = 0
    while todo_c or todo_r:
        if todo_c:
            j = todo_c.pop()
            if cdeg[j] != 1:
                continue
            i = next(i for i in sp.rows[starts[j]:starts[j + 1]] if rdeg[i])
        else:
            i = todo_r.pop()
            if rdeg[i] != 1:
                continue
            j = next(j for j in rows[i] if cdeg[j])
        # delete row i and column j; one of them held no other live nonzero
        rdeg[i] = cdeg[j] = 0
        for c in rows[i]:
            if cdeg[c]:
                cdeg[c] -= 1
                if cdeg[c] == 1:
                    todo_c.append(c)
        for r in sp.rows[starts[j]:starts[j + 1]]:
            if rdeg[r]:
                rdeg[r] -= 1
                if rdeg[r] == 1:
                    todo_r.append(r)
        base += 1
    if base == min(sp.nrows, sp.ncols):  # no row or no column is left, so neither is
        return SparseCols(0, 0, [], [], []), base
    # the new positions of the rows and columns left, and the entries they share
    rpos = {i: k for k, i in enumerate(i for i, d in enumerate(rdeg) if d)}
    cpos = {j: k for k, j in enumerate(j for j, d in enumerate(cdeg) if d)}
    live = [k for j in cpos for k in range(starts[j], starts[j + 1]) if rdeg[sp.rows[k]]]
    return SparseCols(len(rpos), len(cpos), [rpos[sp.rows[k]] for k in live],
                      [cpos[sp.cols[k]] for k in live], [sp.vals[k] for k in live]), base


# ---------------------------------------------------------------------------
# BLAS threads


@lru_cache(maxsize=1)
def _blas_threads():
    """The get and set thread-count functions of numpy's bundled OpenBLAS,
    found through ctypes on first use; None where they are not found (numpy
    built on MKL or on a system BLAS)."""
    try:
        from numpy._core import _multiarray_umath as blas_user
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as blas_user
    lib = ctypes.CDLL(blas_user.__file__)  # looks up symbols in its dependencies too
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, and restore the count it had on exit, also
    on an exception (why, in the module docstring).  The count is
    process-wide.  Without the controls this does nothing."""
    controls = _blas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


# ---------------------------------------------------------------------------
# streamed echelon form modulo a prime


def _budget(sp: SparseCols | _Rows, held: int) -> None:
    """Refuse an elimination of sp that would hold over ``DENSE_ELEMS_CAP`` elements."""
    if held > DENSE_ELEMS_CAP:
        raise UncertifiedRankError(
            f"elimination of {sp.nrows}x{sp.ncols} exceeds the budget of "
            f"{DENSE_ELEMS_CAP} elements (DENSE_ELEMS_CAP): it would hold {held}")


def _dense(sp: SparseCols) -> np.ndarray:
    """Dense integer image of sp: int64, or Python ints if some |entry| >= 2^63."""
    _budget(sp, sp.nrows * sp.ncols)
    a = np.zeros((sp.nrows, sp.ncols), dtype=np.int64 if sp.max_abs() < 1 << 63 else object)
    a[sp.rows, sp.cols] = sp.vals
    return a


class _Rows(NamedTuple):
    """The row-ordered twin of :class:`SparseCols`: its triples sorted by
    row, once for every stage that reads a matrix by rows, as arrays of row,
    column (ascending within a row) and value, int64 or, if some
    |entry| >= 2^63, Python ints in an object array."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    max_abs: int


def _by_rows(sp: SparseCols) -> _Rows:
    """sp by rows in its tall orientation: a wide sp is transposed, its
    columns becoming rows that are in order already."""
    rows, cols = np.array(sp.rows, dtype=np.int64), np.array(sp.cols, dtype=np.int64)
    shape = (sp.nrows, sp.ncols)
    if sp.nrows < sp.ncols:
        shape, rows, cols = shape[::-1], cols, rows
    big = sp.max_abs()
    vals = np.array(sp.vals, dtype=np.int64 if big < 1 << 63 else object)
    order = np.argsort(rows, kind="stable")
    return _Rows(*shape, rows[order], cols[order], vals[order], big)


def _row_blocks(a: _Rows, vals: np.ndarray):
    """Per block of ``_BLOCK`` rows of a: its row count, and the row within
    it, column and value (from ``vals``, in a's order) of its nonzeros."""
    starts = np.searchsorted(a.rows, np.arange(0, a.nrows + _BLOCK, _BLOCK))
    for k, i0 in enumerate(range(0, a.nrows, _BLOCK)):
        s = slice(starts[k], starts[k + 1])
        yield min(_BLOCK, a.nrows - i0), a.rows[s] - i0, a.cols[s], vals[s]


def _reduce(x: np.ndarray, fp: float) -> np.ndarray:
    """Centre integral float64 ``x`` modulo fp in place: |x| <= 2^53 - p on
    entry, x congruent and |x| <= p/2 + 2 on return.

    Computes x - q * p with q = rint(x * (1/p)).  The computed quotient is
    within |x/p| * 2^-52 < 2/p of x/p, so |x/p - q| <= 1/2 + 2/p, that is
    |x - q * p| <= p/2 + 2; and |q * p| <= |x| + p/2 + 2 <= 2^53, so every
    step is exact.
    """
    q = x * (1.0 / fp)
    x -= np.multiply(np.rint(q, out=q), fp, out=q)
    return x


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


class _Echelon(NamedTuple):
    """Reduced row echelon form mod p: row i has a 1 in column ``piv[i]``,
    0 in the other pivots and ``x[i]`` in the columns ``free`` (ascending), so
    A[:, free] = A[:, piv] x mod p and [-x; I] spans the kernel mod p."""

    p: int
    piv: np.ndarray
    free: np.ndarray
    x: np.ndarray


def _absorb(x: np.ndarray, new: np.ndarray, y: np.ndarray, fp: float, out=None) -> np.ndarray:
    """Echelon rows x joined by rows y with pivots at x's columns ``new``:
    [x[:, rest] - x[:, new] @ y; y] mod p, into the flat buffer ``out``, which
    may hold x (a row moves only forward, so it is read before overwritten)."""
    r, f = x.shape
    rest = np.delete(np.arange(f), new)
    shape = (r + new.size, rest.size)
    res = np.empty(shape) if out is None else out[:shape[0] * shape[1]].reshape(shape)
    for i0 in range(0, r, _BLOCK):
        blk = x[i0:i0 + _BLOCK]
        res[i0:i0 + len(blk)] = _reduce(blk[:, rest] - blk[:, new] @ y, fp)
    res[r:] = y
    return res


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Leftmost pivot columns and pivot rows (on the other columns) of the
    reduced echelon form of the rows of ``a`` mod p, overwritten.  Halves are
    joined by :func:`_absorb` down to ``_LEAF`` rows; there each row is
    cleared on the pivots so far, its leftmost nonzero scaled to the new
    pivot 1, and that column cleared from the earlier rows."""
    fp, t = float(p), a.shape[0]
    if t > _LEAF:
        new1, y1 = _rref(a[:t // 2], p)
        rest1 = np.delete(np.arange(a.shape[1]), new1)
        low = a[t // 2:]
        new2, y2 = _rref(_reduce(low[:, rest1] - low[:, new1] @ y1, fp), p)
        return np.concatenate([new1, rest1[new2]]), _absorb(y1, new2, y2, fp)
    piv: list[int] = []
    for i, row in enumerate(a):
        k = len(piv)
        row -= row[piv] @ a[:k]
        _reduce(row, fp)
        nz = row.nonzero()[0]
        if nz.size:
            c = int(nz[0])
            row *= pow(int(row[c]), -1, p)
            _reduce(row, fp)
            a[:k] -= a[:k, c, None] * row
            _reduce(a[:k], fp)
            a[[k, i]] = a[[i, k]]
            piv.append(c)
    piv = np.array(piv, dtype=np.int64)
    return piv, np.delete(a[:piv.size], piv, axis=1)


def _echelon(a: _Rows, p: int) -> _Echelon:
    """The echelon form of a mod p (p < 2^20), streaming its rows: a block,
    pivot columns first, is reduced against X in pieces of ``_EXACT_TERMS``
    terms, echelonized on one BLAS thread and joined to X in place, until all
    columns pivot."""
    n = a.ncols
    held = -(-n * n // 4)  # r (n - r) <= n^2 / 4
    _budget(a, held + _BLOCK * n)
    fp, buf = float(p), np.empty(held)
    piv, free, pos = np.empty(0, dtype=np.int64), np.arange(n), np.arange(n)
    x = buf[:0].reshape(0, n)
    res = (a.vals % p).astype(np.float64)
    res[res > p // 2] -= p
    for t, rows, cols, vals in _row_blocks(a, res):
        r = piv.size
        blk = np.zeros((t, n))
        blk[rows, pos[cols]] = vals
        rem = blk[:, r:]
        for k0 in range(0, r, _EXACT_TERMS):
            rem -= blk[:, k0:min(k0 + _EXACT_TERMS, r)] @ x[k0:k0 + _EXACT_TERMS]
            _reduce(rem, fp)
        if rem.any():
            with _one_blas_thread():
                new, y = _rref(rem, p)
            x = _absorb(x, new, y, fp, buf)
            piv, free = np.concatenate([piv, free[new]]), np.delete(free, new)
            if not free.size:
                break
            pos[np.concatenate([piv, free])] = np.arange(n)
    # a copy of a shrunken X lets the buffer's pages go
    return _Echelon(p, piv, free, x.copy() if 2 * x.size <= held else x)


def rank_modular(matrix) -> int:
    """Max of the ranks modulo ``CROSSCHECK_PRIMES``, the three largest primes
    below 2^31.

    Always a lower bound for the rational rank; equality holds unless each
    of the three divides the pivotal minor.  Serves as the independent
    cross-check of the Bareiss route.  One dense integer image is reduced
    modulo each prime in order until one reaches full rank, min(rows, cols),
    which no other prime can exceed.
    """
    sp = _coerce(matrix)
    if sp.nrows == 0 or sp.ncols == 0:
        return 0
    a = _dense(sp)
    best = 0
    for p in CROSSCHECK_PRIMES:
        best = max(best, _rank_mod_p_int64(a, p))
        if best == min(sp.nrows, sp.ncols):
            break
    return best


# ---------------------------------------------------------------------------
# full column rank by a verified Cholesky factorization of A^T A


def _gram(a: _Rows) -> np.ndarray:
    """A^T A in float64, summed from the products of the nonzeros that share
    a row; exact while nrows max|a|^2 < 2^53, as every partial sum is then an
    integer below it.  The products are formed ``_PANEL`` ncols / 2 at a
    time, so that their temporaries hold about as much as a panel of the
    factorization."""
    n = a.ncols
    ptr = np.searchsorted(a.rows, np.arange(a.nrows + 1))
    first, deg = ptr[a.rows], np.diff(ptr)[a.rows]  # of each nonzero's row
    ends = np.cumsum(deg)
    vals = a.vals.astype(np.float64)
    g = np.zeros(n * n)
    e0 = 0
    while e0 < ends.size:
        done = ends[e0 - 1] if e0 else 0
        e1 = int(np.searchsorted(ends, done + _PANEL * n // 2, side="right"))
        d = deg[e0:e1]
        left = np.repeat(np.arange(e0, e1), d)
        right = np.repeat(first[e0:e1] - (np.cumsum(d) - d), d) + np.arange(left.size)
        np.add.at(g, a.cols[left] * n + a.cols[right], vals[left] * vals[right])
        e0 = e1
    return g.reshape(n, n)


def _positive_definite(g: np.ndarray) -> bool:
    """Whether a completed Cholesky factorization of G - cI proves that the
    integer matrix ``g`` (exact in float64, overwritten) is positive definite;
    the shift c and the proof are in the module docstring.  The factor takes
    the lower triangle, panel by panel; a nonzero entry of it below ``_TINY``
    in magnitude refuses."""
    n = len(g)
    # c = 2^e > 2 gamma/(1 - gamma) trace(G) = num / den, as gamma/(1 - gamma)
    # = (n+1) u / (1 - 2 (n+1) u); e >= -55, as num >= 0 and den < 2^53
    num, den = 2 * (n + 1) * sum(map(int, g.diagonal().tolist())), (1 << 53) - 2 * (n + 1)
    e = num.bit_length() - den.bit_length() - 1
    while den << (e + 64) <= num << 64:
        e += 1
    g.flat[::n + 1] -= ldexp(1.0, e)
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        col, b = g[k0:, k0:k1], k1 - k0
        if k0:
            col -= g[k0:, :k0] @ g[k0:k1, :k0].T
        try:
            col[:b] = np.linalg.cholesky(col[:b])
        except np.linalg.LinAlgError:
            return False
        if k1 < n:
            # L21 L11^T = A21, reversed so that the system is upper triangular
            col[b:] = np.linalg.solve(col[b - 1::-1, ::-1], col[b:, ::-1].T)[::-1].T
        mag = np.abs(col)
        if ((mag > 0) & (mag < _TINY)).any():
            return False
    return True


def _cholesky_certifies(a: _Rows) -> bool:
    """Whether :func:`_positive_definite` proves that the tall matrix ``a``
    has full column rank, from G = A^T A.  Refused before G is allocated
    where it would hold more than the budget, or than the echelon form would
    (so for n > 1024), where G could be inexact, or where its products of
    nonzeros sharing a row, sum(row length^2), outnumber the m n entries of
    the dense image (the echelon form's own work is of that order)."""
    m, n = a.nrows, a.ncols
    if (n * n + _BLOCK * n > DENSE_ELEMS_CAP
            or n * n > -(-n * n // 4) + 3 * _BLOCK * n
            or m * a.max_abs ** 2 >= 1 << 53
            or (np.bincount(a.rows, minlength=m) ** 2).sum() > m * n):
        return False
    with _one_blas_thread():
        return _positive_definite(_gram(a))


# ---------------------------------------------------------------------------
# exact null vectors: the echelon form's kernel basis, over one or more primes


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


def _annihilated(a: _Rows, v: np.ndarray) -> np.ndarray:
    """Which columns of the integer matrix ``v`` a maps to zero, exactly, by
    row blocks: in float64 where max|a| ncols max|v| < 2^53, else in ints."""
    exact = a.max_abs * a.ncols * int(np.abs(v).max()) < 1 << 53
    dtype = np.float64 if exact else object
    v, zero = v.astype(dtype, copy=False), np.ones(v.shape[1], dtype=bool)
    for t, rows, cols, blk_vals in _row_blocks(a, a.vals.astype(dtype)):
        blk = np.zeros((t, a.ncols), dtype=dtype)
        blk[rows, cols] = blk_vals
        zero &= ~(blk @ v != 0).any(axis=0)
    return zero


def _crt(acc: np.ndarray, m: int, res: np.ndarray, q: int) -> np.ndarray:
    """Centred residues mod m*q of ``acc`` mod m and ``res`` (int64) mod q."""
    t = (res - (acc % q).astype(np.int64)) * pow(m, -1, q) % q
    out = acc + m * t.astype(object)
    out[out > m * q // 2] -= m * q
    return out


class NullVectors(list):
    """Independent integer kernel vectors, each verified exactly, and
    ``rank``, the rank mod p of the echelon form whose kernel basis they were
    read from: a lower bound for the rational rank, so they certify it when
    they number ncols - rank."""

    def __init__(self, vectors=(), rank: int = 0):
        super().__init__(vectors)
        self.rank = rank


def exact_right_null_vectors(matrix, count: int, ech: _Echelon) -> NullVectors:
    """Up to ``count`` independent integer vectors v with M v = 0, each verified
    exactly, from the first ``count`` columns of [-X; I] in ``ech``, M's
    echelon form mod p (unit free coordinates make them independent).
    ``matrix`` holds M's nonzeros sorted by row (:func:`_by_rows`), which
    every fallback prime and check reads.

    Each is rationally reconstructed and checked by :func:`_annihilated`.
    While some fail, X is combined on them by CRT with the echelon form at
    the next fallback prime (the primes below p, descending), if its rank
    and pivot set (column rank profile) agree: the rational form reduces to
    it there.  An unlucky prime only lowers the rank or moves a pivot right,
    so a higher rank, or a lexicographically smaller pivot set, restarts the
    combination.  The vectors returned belong to the last start, and
    ``rank`` is its rank mod p, so a certificate completed after a restart
    at a higher rank certifies that rank.
    """
    primes = _primes_down(ech.p)
    best, vectors = None, []
    for tried in range(CRT_MAX_PRIMES + 1):
        if tried:
            ech = _echelon(matrix, next(primes))
        order = np.argsort(ech.piv)
        key = (-ech.piv.size, ech.piv[order].tolist())
        if best is None or key < best:
            best, m, vectors, piv, free = key, ech.p, [], ech.piv[order], ech.free
            todo = np.arange(min(count, free.size))
            acc = -ech.x[np.ix_(order, todo)].astype(np.int64)
        elif key == best:
            acc, m = _crt(acc, m, -ech.x[np.ix_(order, todo)].astype(np.int64), ech.p), m * ech.p
        else:
            continue
        # integral columns pass at once; the others until one fails
        bound = isqrt(m // 2)
        good = ((acc >= -bound) & (acc <= bound)).all(axis=0)
        rational = {}
        for k in np.flatnonzero(~good):
            recon = _try_reconstruct_vector(acc[:, k].tolist(), m)
            if recon is None:
                break
            rational[k], good[k] = recon, True
        if good.any():
            cand = np.flatnonzero(good)
            v = np.zeros((matrix.ncols, cand.size), dtype=acc.dtype)
            v[piv] = acc[:, cand]
            v[free[todo[cand]], np.arange(cand.size)] = 1
            for j, k in enumerate(cand):
                if k in rational:
                    v[piv, j], v[free[todo[k]], j] = rational[k]
            passed = _annihilated(matrix, v)
            vectors += v[:, passed].T.tolist()
            todo, acc = np.delete(todo, cand[passed]), np.delete(acc, cand[passed], axis=1)
        if not todo.size:
            break
    return NullVectors(vectors, piv.size)


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
    Bareiss and fixed-prime modular engines on small enough matrices."""
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

    # the shape, then the three lists of the layout: equal matrices hold equal
    # lists of Python ints, whichever function made them; their reprs are
    # hashed one at a time, so only one is held
    h = hashlib.sha256(repr((sp.nrows, sp.ncols)).encode())
    for part in (sp.rows, sp.cols, sp.vals):
        h.update(repr(part).encode())
    return h.digest()


def exact_rank(matrix) -> int:
    """Rank over the rationals; raises :class:`UncertifiedRankError` where
    :func:`exact_rank_info` returns only a lower bound."""
    info = exact_rank_info(matrix)
    return info.certified_rank(f"rank {info.rank} of a {info.shape[0]}x{info.shape[1]} matrix")


def exact_rank_info(matrix) -> RankInfo:
    """Rank over Q with the route picked by size.

    Small matrices go through Bareiss (unconditional).  Larger ones are
    peeled, and the core is echelonized once modulo ``ENGINE_PRIME``: full
    modular rank certifies itself, and a deficient rank, of any nullity, is
    certified by exact integer null vectors of the core (one per unit of its
    nullity) read from the same echelon form, or from the fallback primes of
    the certificate, which lie below ``ENGINE_PRIME``.  If it cannot be
    completed, the highest rank mod p it reached is returned with
    ``certified=False``; a core whose elimination would hold more than
    ``DENSE_ELEMS_CAP`` elements raises :class:`UncertifiedRankError`.
    """
    sp = _coerce(matrix)
    info = _exact_rank_info_inner(sp)
    if _registry is not None:
        if min(sp.nrows, sp.ncols) and min(sp.nrows, sp.ncols) <= CROSSCHECK_CAP:
            rb = rank_bareiss(sp)
            rm = rank_modular(sp)
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
    engine's rank of ``build()``, if ``0 < min_dim <= CROSSCHECK_CAP``; a
    disagreement raises.  Outside a recording scope, or for a map from or
    into a zero space, this does nothing, and ``build`` is not called."""
    if _registry is None or not 0 < min_dim <= CROSSCHECK_CAP:
        return
    info = exact_rank_info(build())
    if info.rank != rank:
        raise RankComputationError(
            f"structured rank {rank} disagrees with engine rank {info.rank} {where}"
        )


def _exact_rank_info_inner(sp: SparseCols) -> RankInfo:
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
    tall = _by_rows(core)
    if _cholesky_certifies(tall):
        return RankInfo(base + mind, True, "peel+modular-full", shape, nnz)
    # the rank mod p bounds the rank from below; exact kernel vectors cap it
    ech = _echelon(tall, ENGINE_PRIME)
    if ech.piv.size == mind:
        return RankInfo(base + mind, True, "peel+modular-full", shape, nnz)
    vecs = exact_right_null_vectors(tall, mind - ech.piv.size, ech)
    if len(vecs) == mind - vecs.rank:
        return RankInfo(base + vecs.rank, True, "peel+modular+nullcert", shape, nnz)
    return RankInfo(base + vecs.rank, False, "modular-consensus", shape, nnz)
