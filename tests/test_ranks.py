import random
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlpgraph import ranks
from wlpgraph.ranks import (
    SMALL_PRIMES,
    SparseCols,
    _BlockedLU,
    _dense_mod,
    _engine_primes,
    _int64_safe,
    _peel,
    _rank_mod_p_int64,
    _rational_reconstruct,
    _reduce,
    _try_reconstruct_vector,
    exact_right_null_vectors,
    exact_rank_info,
    rank_bareiss,
    rank_modular,
    random_primes,
    recording,
)

from conftest import rank_by_fractions


def random_matrix(rng, max_dim=40, low_rank=False):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    if low_rank and nr > 2 and nc > 2:
        k = rng.randint(1, min(nr, nc) - 1)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
                for i in range(nr)]
    density = rng.choice((0.2, 0.5, 0.9))
    return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)]


def _spy(monkeypatch, name):
    """Record (args, kwargs, result) of every call to ``ranks.<name>``."""
    calls = []
    original = getattr(ranks, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(ranks, name, wrapper)
    return calls


def _spy_solves(monkeypatch):
    """Right-hand-side shape of every ``_BlockedLU.solve`` call; each call is
    one Dixon lifting step past the kernel basis."""
    shapes = []
    original = _BlockedLU.solve

    def solve(self, y):
        shapes.append(y.shape)
        return original(self, y)

    monkeypatch.setattr(_BlockedLU, "solve", solve)
    return shapes


class TestSparseCols:
    def test_roundtrip(self):
        m = [[0, 2], [3, 0], [0, 0]]
        sp = SparseCols.from_dense(m)
        assert sp.to_dense() == m
        assert sp.nnz == 2
        assert sp.transpose().to_dense() == [[0, 3, 0], [2, 0, 0]]

    def test_matmul_matches_dense(self, rng):
        for _ in range(25):
            p, q, r = (rng.randint(1, 8) for _ in range(3))
            a = [[rng.randint(-4, 4) for _ in range(q)] for _ in range(p)]
            b = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(q)]
            want = [[sum(a[i][k] * b[k][j] for k in range(q)) for j in range(r)]
                    for i in range(p)]
            got = SparseCols.from_dense(a).matmul(SparseCols.from_dense(b)).to_dense()
            assert got == want

    def test_matvec(self):
        sp = SparseCols.from_dense([[1, 2], [0, 5]])
        assert sp.matvec([3, -1]) == [1, -5]

    def test_json_dict(self):
        sp = SparseCols.from_dense([[1, 0], [0, 2]])
        d = sp.to_json_dict(rank=2)
        assert d == {"shape": [2, 2], "entries": [[0, 0, 1], [1, 1, 2]], "rank": 2}


@st.composite
def _integer_matrices(draw):
    """Tall, wide and square matrices with entries up to 2^40 in magnitude,
    zeros among them, and rows that are combinations of earlier ones."""
    nr = draw(st.integers(1, 9))
    nc = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40))
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(nc)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


class TestBareiss:
    def test_known(self):
        assert rank_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert rank_bareiss([[1, 1], [1, 1]]) == 1
        assert rank_bareiss([[0, 0], [0, 0]]) == 0

    def test_against_fraction_elimination(self, rng):
        for trial in range(120):
            m = random_matrix(rng, low_rank=trial % 2 == 0)
            assert rank_bareiss(m) == rank_by_fractions(m)

    @settings(max_examples=200, deadline=None)
    @given(_integer_matrices())
    def test_against_fractions_large_entries(self, m):
        assert rank_bareiss(m) == rank_by_fractions(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 5), (5, 1), (4, 6)])
    def test_degenerate_shapes(self, shape):
        nr, nc = shape
        zero = SparseCols(nr, nc, [[] for _ in range(nc)])
        assert rank_bareiss(zero) == rank_modular(zero) == exact_rank_info(zero).rank == 0
        if nr == 1 or nc == 1:
            line = SparseCols.from_dense([[0, 3, 0, -2, 0]])
            one = line if nr == 1 else line.transpose()
            assert rank_bareiss(one) == rank_modular(one) == exact_rank_info(one).rank == 1

    def test_deferred_scaling(self):
        # the pivots 2, 6, 30, 90, -870 are not units; rows 1, 2, 3 and 5 are
        # zero in the pivot columns before their own, so they wait at scale 1
        # while prev grows: rows 1, 2 and 5 are brought up to date as pivot
        # rows, and row 3 is eliminated from scale 1 at prev 30; row 4 =
        # 2 r0 + r1 + r2 is eliminated at each of the first three steps and
        # ends at zero
        r0 = [2, 4, 0, 0, 6, 1, 0]
        r1 = [0, 3, 9, 0, 0, 2, 1]
        r2 = [0, 0, 0, 5, 10, 0, 3]
        r3 = [0, 0, 0, 0, 0, 7, 2]
        r4 = [2 * a + b + c for a, b, c in zip(r0, r1, r2)]
        r5 = [0, 0, 0, 0, 0, 3, 5]
        m = [r0, r1, r2, r3, r4, r5]
        assert rank_bareiss(m) == rank_by_fractions(m) == 5
        assert rank_bareiss([list(col) for col in zip(*m)]) == 5
        # pivots 3, 3, 6, -204: s0 and s4 wait at scale 1 while prev becomes
        # 3, then s4 is brought up to date as the pivot and s0 is eliminated
        # from scale 1; the dependent row 2 (s0 + s2 + s3) is eliminated at
        # every step, and a slip in the stamps (a division by prev instead of
        # the row's stamp, a stale pivot row, a swap that leaves the stamps
        # behind) leaves it nonzero and the rank at 5
        s0 = [0, 2, 2, 0, 3, 0]
        s2 = [3, 0, 5, 3, 0, 1]
        s3 = [5, 0, -1, -1, 2, 0]
        s4 = [0, 1, 0, 3, 5, 0]
        dep = [2 * (a + b + c) for a, b, c in zip(s0, s2, s3)]
        m = [s0, dep, s2, s3, s4]
        assert rank_bareiss(m) == rank_by_fractions(m) == 4


class TestModular:
    def test_agrees_with_bareiss(self, rng):
        for trial in range(60):
            m = random_matrix(rng, low_rank=trial % 3 == 0)
            assert rank_modular(m, seed=trial) == rank_bareiss(m)

    def test_entries_beyond_int64(self):
        big = [[1 << 70, 3, 1], [1 << 71, 6, 2], [1, -(1 << 65), 1]]
        assert rank_modular(big) == rank_bareiss(big) == rank_by_fractions(big) == 2

    def test_primes_drawn_once_per_seed(self, monkeypatch):
        want = random_primes(1 << 30, 1 << 31, 4, random.Random(918273))
        ranks._crosscheck_primes.cache_clear()
        draws = _spy(monkeypatch, "random_primes")
        used = _spy(monkeypatch, "_rank_mod_p_int64")
        # rank-deficient (the last row is the sum of the first two), so no
        # prime reaches full rank and every one of them runs
        rng = random.Random(5)
        m = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(6)]
        m.append([a + b for a, b in zip(m[0], m[1])])
        assert rank_bareiss(m) == 6
        for _ in range(2):
            assert rank_modular(m, 4, seed=918273) == rank_bareiss(m)
        assert len(draws) == 1
        assert [args[1] for args, _, _ in used] == want * 2

    def test_stops_at_full_rank(self, monkeypatch):
        # the maximum over the primes is capped by min(rows, cols), so once a
        # prime reaches it the others cannot change the value
        want = random_primes(1 << 30, 1 << 31, 3, random.Random(4))
        ranks._crosscheck_primes.cache_clear()
        used = _spy(monkeypatch, "_rank_mod_p_int64")
        m = [[3, 1, 0, 2], [1, 0, 5, 0], [0, 2, 1, 1]]
        assert rank_modular(m, 3, seed=4) == rank_bareiss(m) == 3
        assert [args[1] for args, _, _ in used] == want[:1]

    def test_primes_are_large(self):
        primes = random_primes(1 << 30, 1 << 31, 5, random.Random(1))
        assert len(set(primes)) == 5
        assert all((1 << 30) < p < (1 << 31) for p in primes)

    def test_blocked_lu_matches_int64(self, rng):
        for trial in range(30):
            m = random_matrix(rng, max_dim=60, low_rank=trial % 2 == 0)
            p = SMALL_PRIMES[trial % len(SMALL_PRIMES)]
            sp = SparseCols.from_dense(m)
            assert (
                _BlockedLU(_dense_mod(sp, p), p).rank
                == _rank_mod_p_int64(_dense_mod(sp, p, np.int64), p)
            )

    def test_blocked_lu_solve(self, rng):
        for trial in range(15):
            n = rng.randint(1, 150)
            p = SMALL_PRIMES[trial % 7]
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                         dtype=np.float64)
            lu = _BlockedLU(a.copy(), p)
            if lu.rank < n:
                continue
            x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.float64)
            b = np.zeros(n)
            for c0 in range(0, n, 64):
                b = (b + a[:, c0:c0 + 64] @ x[c0:c0 + 64]) % p
            assert np.array_equal(lu.solve(b[lu.perm]), x)


@st.composite
def _prime_and_values(draw):
    """A prime below 2^23 and integers with |x| <= 2^53 - p - 1, the range
    :func:`_reduce` accepts, biased to the edges: multiples of p plus or minus
    one, +-p/2, where rounding to the centred residue ties, and the extremes."""
    p = draw(st.sampled_from((2, 3, 5, 65537, *SMALL_PRIMES)))
    lim = (1 << 53) - p - 1
    near = st.builds(lambda k, d: k * p + d,
                     st.integers(-(lim // p) + 1, lim // p - 1), st.sampled_from((-1, 0, 1)))
    edge = st.sampled_from((0, lim, -lim, p // 2, -(p // 2), p // 2 + 1, -(p // 2) - 1))
    value = st.one_of(st.integers(-lim, lim), near, edge)
    return p, draw(st.lists(value, min_size=1, max_size=60))


def _assert_factors(lu, a):
    """P A Q = L U mod p, with L and U read from ``lu.a`` and A given by its
    residues ``a`` (an int64 array)."""
    p, r = lu.p, lu.rank
    f = lu.a.astype(np.int64) % p
    lower = np.zeros((lu.nrows, r), dtype=np.int64)
    upper = np.zeros((r, lu.ncols), dtype=np.int64)
    for k, c in enumerate(lu.piv_pos):
        lower[k, k] = 1
        lower[k + 1:, k] = f[k + 1:, c]
        upper[k, c:] = f[k, c:]
    assert np.array_equal(a[lu.perm][:, lu.col_perm], lower @ upper % p)


class TestModularKernels:
    @settings(max_examples=300, deadline=None)
    @given(_prime_and_values(), st.integers(1, 7))
    @example((SMALL_PRIMES[0], [(1 << 53) - SMALL_PRIMES[0] - 1, -(1 << 53) + SMALL_PRIMES[0] + 1,
                                0, SMALL_PRIMES[0] + 1, -SMALL_PRIMES[0] - 1]), 2)
    def test_centred_reduction(self, case, width):
        p, values = case
        values = values + [0] * (-len(values) % width)
        x = np.array(values, dtype=np.float64).reshape(-1, width)
        assert np.array_equal(x, np.array(values, dtype=np.int64).reshape(-1, width))
        saved = ranks._REDUCE_BLOCK
        ranks._REDUCE_BLOCK = 2 * width  # several row blocks even for short inputs
        try:
            got = _reduce(x, float(p))
        finally:
            ranks._REDUCE_BLOCK = saved
        assert got is x
        assert all(r == int(r) for r in got.ravel())
        residues = [int(r) for r in got.ravel()]
        assert [r % p for r in residues] == [v % p for v in values]
        assert all(2 * abs(r) <= p + 4 for r in residues)

    def test_delayed_trailing_reduction(self, rng, monkeypatch):
        # ten panels of residues near +-p/2 at the largest small prime: eight
        # trailing updates fit below 2^53 - p, so the ninth is preceded by the
        # one reduction of the whole trailing block; columns 100, 450 and 599
        # depend on earlier ones, so the kernel is read too
        p = max(SMALL_PRIMES)
        nr = nc = 600
        half = p // 2
        a = [[rng.choice((-1, 1)) * rng.randint(half - 40, half) for _ in range(nc)]
             for _ in range(nr)]
        for row in a:
            row[100] = (row[3] + row[7] + half) % p - half
            row[450] = (2 * row[5] + half) % p - half
            row[599] = row[0]
        calls = []
        for name in ("_reduce", "_sub_product"):
            def spy(x, *args, _name=name, _original=getattr(ranks, name)):
                calls.append((_name, x.ctypes.data, x.shape))
                return _original(x, *args)
            monkeypatch.setattr(ranks, name, spy)
        lu = _BlockedLU(np.array(a, dtype=np.float64), p)
        r = lu.rank
        assert r == nc - 3 and len(lu.panels) == 10
        # a reduction of the very block that the next call updates
        fired = [c for c, d in zip(calls, calls[1:])
                 if (c[0], d[0]) == ("_reduce", "_sub_product") and c[1:] == d[1:]]
        assert sum(c[0] == "_sub_product" for c in calls) == 9 and len(fired) == 1
        assert np.abs(lu.a).max() < p
        am = np.array(a, dtype=np.int64) % p
        _assert_factors(lu, am)
        free, basis = lu.kernel_basis(nc)
        assert sorted(free) == [100, 450, 599]
        assert ((basis >= 0) & (basis < p)).all()
        assert not (am @ basis.astype(np.int64) % p).any()

    def test_factors_after_panel_column_swaps(self, rng, monkeypatch):
        # column 5 depends on columns 1, 2 and column 70 on column 3, so each
        # panel has a non-pivot column ahead of pivot columns; the second
        # panel's swaps must also reorder the U rows above it
        nr, nc = 150, 140
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        for row in m:
            row[5] = row[1] + row[2]
            row[70] = 2 * row[3]
            row[100] = 0
        p = SMALL_PRIMES[0]
        sp = SparseCols.from_dense(m)
        lu = _BlockedLU(_dense_mod(sp, p), p)
        r = lu.rank
        assert r == rank_bareiss(m) == nc - 3
        assert lu.col_perm.tolist() != list(range(nc))
        assert any(r0 > 0 and lu.col_perm[k0 + r1 - r0 - 1] != k0 + r1 - r0 - 1
                   for r0, r1, k0 in lu.panels)
        a = np.array(m, dtype=np.int64) % p
        _assert_factors(lu, a)
        free, basis = lu.kernel_basis(nc)
        assert sorted(free) == [5, 70, 100]
        assert not (a @ basis.astype(np.int64) % p).any()
        # every kernel vector is read off the single prime: no lifting step
        solves = _spy_solves(monkeypatch)
        assert len(exact_right_null_vectors(sp, nc, lu=lu)) == len(free)
        assert not solves


    def test_rational_kernel_read_off_one_prime(self, rng, monkeypatch):
        # M = [2B | B w]: the kernel vector with 1 in the last column is
        # (-w/2, 1), so the symmetric lift fails and Wang reconstruction at
        # the single prime recovers it; Dixon never lifts past step 1
        b = [[rng.randint(-3, 3) for _ in range(11)] for _ in range(30)]
        w = [2 * rng.randint(-3, 3) + 1 for _ in range(11)]
        m = [[2 * x for x in row] + [sum(x * y for x, y in zip(row, w))] for row in b]
        assert rank_bareiss(m) == 11
        solves = _spy_solves(monkeypatch)
        (v,) = exact_right_null_vectors(m, 1, seed=4)
        assert not solves
        assert v in ([-x for x in w] + [2], w + [-2])


class TestPeel:
    def test_diagonal_fully_peels(self):
        core, base = _peel(SparseCols.from_dense([[3, 0], [0, 2]]))
        assert base == 2 and core.nrows == 0

    def test_peel_preserves_rank(self, rng):
        for trial in range(60):
            nr, nc = rng.randint(1, 25), rng.randint(1, 25)
            m = [[rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(nc)]
                 for _ in range(nr)]
            sp = SparseCols.from_dense(m)
            core, base = _peel(sp)
            assert base + rank_bareiss(core) == rank_bareiss(m)


class TestReconstruction:
    def test_rational_reconstruct(self):
        m = 2 ** 61 - 1
        for num, den in [(3, 7), (-12, 5), (0, 1), (123456, 789)]:
            a = num * pow(den, -1, m) % m
            got = _rational_reconstruct(a, m)
            from math import gcd

            g = gcd(num, den)
            assert got == (num // g, den // g)

    def test_null_vectors_exact(self, rng):
        for trial in range(15):
            nr = rng.randint(4, 30)
            k = rng.randint(1, nr - 2)
            nc = rng.randint(k + 1, 30 + k)
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
            b = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
            m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
                 for i in range(nr)]
            sp = SparseCols.from_dense(m)
            true_rank = rank_bareiss(m)
            want = nc - true_rank
            vecs = exact_right_null_vectors(sp, want, seed=trial)
            assert len(vecs) == want
            for v in vecs:
                assert any(v)
                assert not any(sp.matvec(v))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(2, 30), st.data())
    def test_null_vectors_independent(self, nrows, ncols, data):
        # a low-rank product with scaled columns, so that some kernel vectors
        # have rational coordinates against their unit free entry: whatever
        # is returned is exact kernel vectors, and independent ones, so their
        # count bounds the nullity from below
        k = data.draw(st.integers(1, min(nrows, ncols) - 1), label="k")
        rng2 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = rng2.integers(-3, 4, size=(nrows, k)) @ rng2.integers(-3, 4, size=(k, ncols))
        sp = SparseCols.from_dense((m * rng2.integers(1, 4, size=ncols)).tolist())
        want = ncols - rank_bareiss(sp)
        vecs = exact_right_null_vectors(sp, want, seed=data.draw(st.integers(0, 99), label="p"))
        assert len(vecs) <= want
        assert all(any(v) and not any(sp.matvec(v)) for v in vecs)
        assert rank_bareiss(vecs) == len(vecs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_vector_reconstruction(self, data):
        # numerators and the shared denominator within Wang's bound sqrt(m/2),
        # so 2 * N * D < m: the rationals come back exactly, over their least
        # common denominator, with one Euclid run per growth of the running
        # denominator rather than one per entry
        m = data.draw(st.sampled_from((10007, SMALL_PRIMES[0], SMALL_PRIMES[3] ** 2, 2 ** 61 - 1)))
        bound = isqrt(m // 2)
        den = data.draw(st.integers(1, bound))
        nums = data.draw(st.lists(st.integers(-bound, bound), max_size=20))
        xs = [Fraction(n, den) for n in nums]
        euclid = []
        original = ranks._rational_reconstruct
        ranks._rational_reconstruct = lambda a, mod: euclid.append(a) or original(a, mod)
        try:
            got = _try_reconstruct_vector([n * pow(den, -1, m) % m for n in nums], m)
        finally:
            ranks._rational_reconstruct = original
        assert got is not None
        got_nums, got_den = got
        assert [Fraction(n, got_den) for n in got_nums] == xs
        assert got_den == lcm(*(x.denominator for x in xs))
        # Euclid runs only where the running denominator grows, at least 2x
        assert len(euclid) < got_den.bit_length()

    def test_empty_vector_reconstruction(self):
        assert _try_reconstruct_vector([], SMALL_PRIMES[0]) == ([], 1)


class TestExactRankInfo:
    def test_small_goes_bareiss(self):
        info = exact_rank_info([[1, 2], [2, 4]])
        assert info.rank == 1 and info.certified and "bareiss" in info.method

    def test_trivial(self):
        assert exact_rank_info([[0, 0], [0, 0]]).rank == 0
        assert exact_rank_info([[]]).rank == 0

    def test_large_full_rank_certified(self):
        rng2 = np.random.default_rng(5)
        m = rng2.integers(0, 2, size=(420, 260)).tolist()
        info = exact_rank_info(m)
        assert info.certified
        assert info.rank == rank_modular(m, seed=9)

    def test_large_deficient_certified(self, monkeypatch):
        rng2 = np.random.default_rng(6)
        a = rng2.integers(-2, 3, size=(320, 230))
        b = rng2.integers(-2, 3, size=(230, 300))
        m = (a @ b).tolist()
        solves = _spy_solves(monkeypatch)
        info = exact_rank_info(m)
        assert info.certified
        assert info.rank == 230
        # this kernel's entries are far too large for a single prime: all 70
        # vectors are lifted past step 1, in one batch
        assert solves[0] == (230, 70)

    def test_huge_entries_certified_by_dixon(self, monkeypatch):
        # M = [B | B w] with |B| < 2^40: the kernel vector (-w, 1) is too large
        # for one prime, and Dixon's integer side overflows int64, so it runs
        # on Python integers
        rng = random.Random(11)
        b = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(136)] for _ in range(150)]
        w = [rng.choice((-1, 1)) * rng.randint(10 ** 7 - 1000, 10 ** 7 + 1000)
             for _ in range(136)]
        sp = SparseCols.from_dense([row + [sum(x * y for x, y in zip(row, w))] for row in b])
        assert not _int64_safe(sp, min(SMALL_PRIMES))
        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        solves = _spy_solves(monkeypatch)
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == 136
        kernel = [-x for x in w] + [1]
        ((_, _, vecs),) = nullcert
        assert vecs in ([kernel], [[-x for x in kernel]])
        assert solves  # lifted past step 1

    def test_large_nullity_certified(self):
        # nullity 170: every kernel vector must be certified, however many
        rng2 = np.random.default_rng(8)
        b = rng2.integers(-2, 3, size=(400, 30))
        w = rng2.integers(-2, 3, size=(30, 170))
        info = exact_rank_info(np.hstack([b, b @ w]).tolist())
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == 30

    def test_unlucky_prime_still_certified(self, monkeypatch):
        # m = a b + p u w^T has rank k + 1 over Q but only k modulo p, the
        # prime the engine draws first for this shape; its entries exceed
        # every small prime, so the draw does not depend on them
        shape, k = (190, 182), 170
        p = _engine_primes(shape, 0, 1 << 30)[0]
        rng2 = np.random.default_rng(7)
        a = rng2.integers(-2, 3, size=(shape[0], k))
        b = rng2.integers(-2, 3, size=(k, shape[1]))
        u = rng2.integers(-2, 3, size=(shape[0], 1))
        w = rng2.integers(-2, 3, size=(1, shape[1]))
        sp = SparseCols.from_dense((a @ b + p * (u @ w)).tolist())
        assert _engine_primes(shape, 0, sp.max_abs())[0] == p
        core = ranks._peel(sp)[0]
        assert (core.nrows, core.ncols) == shape
        assert shape[0] * shape[1] * min(shape) > ranks.BAREISS_OPS_CAP  # not Bareiss

        lu = _BlockedLU(_dense_mod(sp, p), p)
        assert lu.rank == k
        free, basis = lu.kernel_basis(shape[1])
        recons = [_try_reconstruct_vector(basis[:, j].astype(np.int64).tolist(), p)
                  for j in range(len(free))]
        assert any(recon is None or any(sp.matvec(recon[0])) for recon in recons)

        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        solves = _spy_solves(monkeypatch)
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == rank_bareiss(sp) == k + 1
        # a column whose pivot solution is exact but no kernel vector is
        # dropped at once rather than lifted to DIXON_MAX_STEPS
        assert len(solves) < ranks.DIXON_MAX_STEPS
        (_, first, vecs_p), (_, second, vecs) = nullcert
        assert first["lu"].p == p and len(vecs_p) < shape[1] - k
        assert second["lu"].p != p and len(vecs) == shape[1] - k - 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.data())
    def test_unlucky_prime_property(self, nrows, ncols, data):
        # the construction above at small sizes, with Bareiss switched off so
        # that the modular route runs: modulo the first prime p the matrix is
        # a b, of rank at most k, while over Q it is a b + p u w^T
        k = data.draw(st.integers(1, min(nrows, ncols) - 1), label="k")
        rng2 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (nrows, ncols)
        p = _engine_primes(shape, 0, 1 << 30)[0]
        a = rng2.integers(-2, 3, size=(nrows, k))
        b = rng2.integers(-2, 3, size=(k, ncols))
        u = rng2.choice([-2, -1, 1, 2], size=(nrows, 1))
        w = rng2.choice([-2, -1, 1, 2], size=(1, ncols))
        u[0, 0] = 2  # some |entry| is near 2p, above every small prime
        sp = SparseCols.from_dense((a @ b + p * (u @ w)).tolist())
        assert _engine_primes(shape, 0, sp.max_abs())[0] == p
        assert _peel(sp)[0].nrows == nrows  # no zero entry, so nothing peels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranks, "BAREISS_OPS_CAP", 0)
            info = exact_rank_info(sp)
        assert info.certified and info.method.startswith("peel+modular")
        assert info.rank == rank_bareiss(sp)

    def test_dense_cap_respected(self, monkeypatch):
        # over the cap no dense image is made, so no rank is read from one:
        # the engine and the cross-check both raise, naming the shape
        cap = 1000
        rng2 = np.random.default_rng(9)
        m = (rng2.integers(-2, 3, size=(300, 30)) @ rng2.integers(-2, 3, size=(30, 200))).tolist()
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", cap)
        factored = _spy(monkeypatch, "_BlockedLU")
        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        with pytest.raises(ranks.UncertifiedRankError, match="300x200 exceeds the budget of 1000"):
            exact_rank_info(m)
        assert not factored
        assert not nullcert

        images = []
        zeros = np.zeros

        def counted_zeros(*args, **kwargs):
            images.append(args)
            return zeros(*args, **kwargs)

        monkeypatch.setattr(np, "zeros", counted_zeros)
        with pytest.raises(ranks.UncertifiedRankError, match="300x200 exceeds the budget of 1000"):
            rank_modular(m)
        assert not images

    def test_agreement_with_engines(self, rng):
        for trial in range(40):
            m = random_matrix(rng, low_rank=trial % 2 == 0)
            info = exact_rank_info(m, seed=trial)
            assert info.certified
            assert info.rank == rank_bareiss(m)


class TestRankProperties:
    def test_transpose_invariance(self, rng):
        for trial in range(25):
            m = random_matrix(rng, max_dim=25, low_rank=trial % 2 == 0)
            sp = SparseCols.from_dense(m)
            assert exact_rank_info(sp).rank == exact_rank_info(sp.transpose()).rank

    def test_permutation_invariance(self, rng):
        for trial in range(15):
            m = random_matrix(rng, max_dim=20, low_rank=True)
            rows = list(range(len(m)))
            cols = list(range(len(m[0])))
            rng.shuffle(rows)
            rng.shuffle(cols)
            shuffled = [[m[i][j] for j in cols] for i in rows]
            assert rank_bareiss(m) == rank_bareiss(shuffled)

    def test_graded_map_rank_is_cached(self):
        from wlpgraph import LinearForm, from_graph, multiplication_map, path

        gm = multiplication_map(from_graph(path(4)), LinearForm.all_ones(4), 1, 1)
        first = gm.rank_info
        assert gm.rank_info is first  # idempotent, computed once


class TestRecording:
    def test_registry_collects_and_crosschecks(self, rng):
        registry = []
        with recording(registry):
            for trial in range(5):
                m = random_matrix(rng, max_dim=30)
                exact_rank_info(m, seed=trial)
        assert len(registry) == 5
        assert all(info.crosscheck for info in registry)
        for info in registry:
            assert info.crosscheck["bareiss"] == info.crosscheck["modular"] == info.rank

    def test_structured_rank_crosscheck(self):
        built = []

        def build():
            built.append(True)
            return [[1, 2], [2, 4]]

        ranks.crosscheck_structured_rank(2, 2, build, "here")  # not recording
        assert not built
        with recording([]):
            ranks.crosscheck_structured_rank(2, ranks.CROSSCHECK_CAP + 1, build, "here")
            assert not built
            ranks.crosscheck_structured_rank(1, 2, build, "here")
            with pytest.raises(ranks.RankComputationError,
                               match="structured rank 2 disagrees with engine rank 1 here"):
                ranks.crosscheck_structured_rank(2, 2, build, "here")
        assert len(built) == 2

    def test_distinct_matrices_in_crosscheck_detail(self):
        from wlpgraph.verify import check_rank_engines

        registry = []
        with recording(registry):
            exact_rank_info([[1, 2], [3, 4]])
            exact_rank_info([[1, 2], [3, 4]])
            exact_rank_info([[1, 2], [3, 5]])
            exact_rank_info([[1, 2, 0], [3, 4, 0]])  # a new shape
            assert ranks.distinct_recorded_matrices(registry) == 3
            assert ranks.distinct_recorded_matrices([]) is None
            detail = check_rank_engines(count=1, registry=registry).detail
        assert "4 engine calls recorded, 3 distinct matrices, 4 cross-checked" in detail
        assert ranks.distinct_recorded_matrices(registry) is None

    def test_registry_restored(self):
        assert ranks._registry is None
        with recording([]):
            assert ranks._registry is not None
        assert ranks._registry is None
