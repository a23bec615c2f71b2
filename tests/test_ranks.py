import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlpgraph import ranks
from wlpgraph.ranks import (
    ENGINE_PRIME,
    SparseCols,
    _by_rows,
    _dense,
    _echelon,
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

from conftest import exact_product, rank_by_fractions

# The 60 largest primes below 2^20, descending, for the tests that run the
# echelon form and its certificate at more primes than the engine's one.
SMALL_PRIMES = tuple(islice(ranks._primes_down(1 << 20), 60))


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


def _null_vectors_at(matrix, count, seed):
    """``exact_right_null_vectors`` on a fresh echelon form at the small prime
    drawn from ``seed``."""
    sp = ranks._coerce(matrix)
    p = SMALL_PRIMES[random.Random(seed).randrange(len(SMALL_PRIMES))]
    a = _by_rows(sp)
    return exact_right_null_vectors(a, count, _echelon(a, p))


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

    def test_json_dict(self):
        sp = SparseCols.from_dense([[1, 0], [0, 2]])
        d = sp.to_json_dict(rank=2)
        assert d == {"shape": [2, 2], "entries": [[0, 0, 1], [1, 1, 2]], "rank": 2}

    @pytest.mark.parametrize("rows, where", [
        ([[0.5, 1], [1, 2]], r"\(0, 0\)"),
        ([[1, 2], [Fraction(1, 2), 1]], r"\(1, 0\)"),
        (np.array([[1.0, 0.5], [2.0, 1.0]]), r"\(0, 1\)"),
        ([[float("nan")]], r"\(0, 0\)"),
        ([[1, float("inf")]], r"\(0, 1\)"),
        ([[0.5]], r"\(0, 0\)"),
    ])
    def test_non_integer_entries_rejected(self, rows, where):
        # truncated, [[0.5, 1], [1, 2]] read as rank 2, and [[0.5]] stored an
        # explicit zero; the rational ranks are 1 and 1
        for route in (SparseCols.from_dense, ranks.exact_rank, rank_bareiss, rank_modular):
            with pytest.raises(ValueError, match=rf"^entry {where} is not an integer: "):
                route(rows)

    def test_integral_entries_accepted(self):
        assert ranks.exact_rank(np.eye(3)) == 3
        assert ranks.exact_rank([[True, False], [True, False]]) == 1
        sp = SparseCols.from_dense([[np.int64(2), 0.0], [-1.0, np.int8(0)]])
        assert sp.cols == [[(0, 2), (1, -1)], []]
        assert all(type(v) is int for col in sp.cols for _, v in col)


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
        # the streamed echelon engine against the plain int64 row reduction
        for trial in range(30):
            m = random_matrix(rng, max_dim=60, low_rank=trial % 2 == 0)
            p = SMALL_PRIMES[trial % len(SMALL_PRIMES)]
            sp = SparseCols.from_dense(m)
            assert (_echelon(_by_rows(sp), p).piv.size
                    == _rank_mod_p_int64(_dense(sp), p))


@st.composite
def _prime_and_values(draw):
    """A prime below 2^20 and integers with |x| <= 2^53 - p - 1, the range
    :func:`_reduce` accepts, biased to the edges: multiples of p plus or minus
    one, +-p/2, where rounding to the centred residue ties, and the extremes."""
    p = draw(st.sampled_from((2, 3, 5, 65537, *SMALL_PRIMES)))
    lim = (1 << 53) - p - 1
    near = st.builds(lambda k, d: k * p + d,
                     st.integers(-(lim // p) + 1, lim // p - 1), st.sampled_from((-1, 0, 1)))
    edge = st.sampled_from((0, lim, -lim, p // 2, -(p // 2), p // 2 + 1, -(p // 2) - 1))
    value = st.one_of(st.integers(-lim, lim), near, edge)
    return p, draw(st.lists(value, min_size=1, max_size=60))


def _assert_rref(ech, a):
    """A[:, free] = A[:, piv] X mod p for the echelon form ``ech`` of A, given
    by its residues ``a`` (an int64 array), with every entry of X a centred
    residue and the kernel basis [-X; I] annihilated by A mod p."""
    p = ech.p
    assert sorted(ech.piv.tolist() + ech.free.tolist()) == list(range(a.shape[1]))
    assert 2 * np.abs(ech.x).max(initial=0) <= p + 4
    x = ech.x.astype(np.int64)
    assert not ((a[:, ech.free] - a[:, ech.piv] @ x) % p).any()


def _column_profile(m):
    """The column rank profile over Q: column j is a pivot iff it raises the
    rank of the columns before it."""
    cols = [list(c) for c in zip(*m)]
    ranks_ = [0] + [rank_bareiss([list(r) for r in zip(*cols[:j + 1])]) for j in range(len(cols))]
    return [j for j in range(len(cols)) if ranks_[j + 1] > ranks_[j]]


@st.composite
def _low_rank_matrices(draw):
    """Integer matrices of at most 30 columns and rank below both sides; zero
    and repeated rows, and zero and repeated columns, may occur among them."""
    nr = draw(st.integers(2, 40))
    nc = draw(st.integers(2, 30))
    k = draw(st.integers(1, min(nr, nc) - 1))
    fresh = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    pool = draw(st.lists(fresh, min_size=1, max_size=3))
    row = st.one_of(st.just([0] * k), st.sampled_from(pool), fresh)
    left = draw(st.lists(row, min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


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
        got = _reduce(x, float(p))
        assert got is x
        assert all(r == int(r) for r in got.ravel())
        residues = [int(r) for r in got.ravel()]
        assert [r % p for r in residues] == [v % p for v in values]
        assert all(2 * abs(r) <= p + 4 for r in residues)

    @settings(max_examples=60, deadline=None)
    @given(_low_rank_matrices(), st.sampled_from(SMALL_PRIMES[:5]))
    def test_pivots_are_canonical(self, m, p):
        # leftmost pivots: the pivot set is the column rank profile, and the
        # reduced echelon form of the row space does not depend on how the
        # rows are streamed; the profile over Q is the one mod p here, as p
        # divides no minor of these small matrices with overwhelming odds
        sp = SparseCols.from_dense(m)
        a = np.array(m, dtype=np.int64) % p
        forms = []
        # blocks of 1 and 5 rows, the second halved down to leaves of 2, and
        # the default sizes
        for block, leaf in ((1, 1), (5, 2), (ranks._BLOCK, ranks._LEAF)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ranks, "_BLOCK", block)
                mp.setattr(ranks, "_LEAF", leaf)
                ech = _echelon(_by_rows(sp), p)
            _assert_rref(ech, a)
            assert sorted(ech.piv.tolist()) == _column_profile(m)
            order = np.argsort(ech.piv)
            forms.append((ech.free.tolist(), ech.x[order].astype(np.int64) % p))
        for free, x in forms[1:]:
            assert free == forms[0][0] and np.array_equal(x, forms[0][1])

    def test_split_products_exact(self, rng, monkeypatch):
        # residues near +-p/2 at the engine's prime, with the inner
        # dimension of an exact product cut to 64 terms: a row block is
        # reduced against up to 512 pivot rows in several pieces, with a
        # reduction after each; columns 100, 450 and 599 depend on earlier
        # ones, so the kernel is read too
        p = ENGINE_PRIME
        nr = nc = 600
        half = p // 2
        a = [[rng.choice((-1, 1)) * rng.randint(half - 40, half) for _ in range(nc)]
             for _ in range(nr)]
        for row in a:
            row[100] = (row[3] + row[7] + half) % p - half
            row[450] = (2 * row[5] + half) % p - half
            row[599] = row[0]
        monkeypatch.setattr(ranks, "_EXACT_TERMS", 64)
        products = _spy(monkeypatch, "_reduce")
        sp = SparseCols.from_dense(a)
        ech = _echelon(_by_rows(sp), p)
        am = np.array(a, dtype=np.int64) % p
        assert ech.piv.size == _rank_mod_p_int64(am, p) == nc - 3
        assert ech.free.tolist() == [100, 450, 599]
        _assert_rref(ech, am)
        # the last block is reduced against 512 pivot rows: eight pieces
        assert sum(args[0].shape == (nr - 512, nc - 512) for args, _, _ in products) >= 8

    def test_factors_after_panel_column_swaps(self, rng, monkeypatch):
        # column 5 depends on columns 1, 2 and column 70 on column 3, and
        # column 100 is zero, so non-pivot columns sit ahead of pivot columns
        # within the first row block's columns
        nr, nc = 150, 140
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        for row in m:
            row[5] = row[1] + row[2]
            row[70] = 2 * row[3]
            row[100] = 0
        p = SMALL_PRIMES[0]
        sp = SparseCols.from_dense(m)
        ech = _echelon(_by_rows(sp), p)
        assert ech.piv.size == rank_bareiss(m) == nc - 3
        a = np.array(m, dtype=np.int64) % p
        _assert_rref(ech, a)
        assert ech.free.tolist() == [5, 70, 100]
        # every kernel vector is read off the single prime: nothing combined
        combined = _spy(monkeypatch, "_crt")
        assert len(exact_right_null_vectors(_by_rows(sp), nc, ech)) == 3
        assert not combined

    def test_rational_kernel_read_off_one_prime(self, rng, monkeypatch):
        # M = [2B | B w]: the kernel vector with 1 in the last column is
        # (-w/2, 1), so the symmetric lift fails and Wang reconstruction at
        # the single prime recovers it; no second prime is combined
        b = [[rng.randint(-3, 3) for _ in range(11)] for _ in range(30)]
        w = [2 * rng.randint(-3, 3) + 1 for _ in range(11)]
        m = [[2 * x for x in row] + [sum(x * y for x, y in zip(row, w))] for row in b]
        assert rank_bareiss(m) == 11
        combined = _spy(monkeypatch, "_crt")
        (v,) = _null_vectors_at(m, 1, seed=4)
        assert not combined
        assert v in ([-x for x in w] + [2], w + [-2])


@st.composite
def _chained_sparse(draw):
    """Sparse integer matrices with planted singleton chains: runs of new rows
    r_1..r_k and columns c_1..c_k, r_t nonzero in c_t and c_{t+1}, so that c_1
    holds one nonzero and peeling it frees c_2, and so on; r_k crosses the
    columns before the run instead.  Transposed or not, then shuffled."""
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry, nonzero = st.sampled_from((0, 0, 0, 1, -1, 2, -3)), st.sampled_from((1, -1, 2, -3))
    m = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 5))
        for row in m:
            row += [0] * k
        for t in range(k):
            row = draw(st.lists(entry, min_size=nc, max_size=nc)) if t == k - 1 else [0] * nc
            row += [0] * k
            row[nc + t] = draw(nonzero)
            if t < k - 1:
                row[nc + t + 1] = draw(nonzero)
            m.append(row)
        nr, nc = nr + k, nc + k
    if draw(st.booleans()):
        m, nr, nc = [list(col) for col in zip(*m)], nc, nr
    rows, cols = draw(st.permutations(range(nr))), draw(st.permutations(range(nc)))
    return [[m[i][j] for j in cols] for i in rows]


class TestPeel:
    @settings(max_examples=200, deadline=None)
    @given(_chained_sparse())
    def test_core_has_no_singleton(self, m):
        sp = SparseCols.from_dense(m)
        core, base = _peel(sp)
        row_counts = [0] * core.nrows
        for col in core.cols:
            for i, _ in col:
                row_counts[i] += 1
        assert min(row_counts + [len(col) for col in core.cols], default=2) >= 2
        assert base + rank_bareiss(core) == rank_bareiss(m)

    def test_diagonal_fully_peels(self):
        core, base = _peel(SparseCols.from_dense([[3, 0], [0, 2]]))
        assert base == 2 and core.nrows == 0

    def test_nothing_to_peel_returns_the_matrix(self, rng):
        # every row and column holds two nonzeros or more: the matrix is its
        # own core, the same one the full peel builds once a zero row, which
        # it drops, sends it down that path
        m = [[rng.choice((-1, 1)) if (i - j) % 7 in (0, 3) else 0 for j in range(21)]
             for i in range(30)]
        sp = SparseCols.from_dense(m)
        core, base = _peel(sp)
        assert core is sp and base == 0
        padded, base = _peel(SparseCols.from_dense(m + [[0] * 21]))
        assert base == 0 and padded.to_dense() == m

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
            vecs = _null_vectors_at(sp, want, seed=trial)
            assert len(vecs) == want
            for v in vecs:
                assert any(v)
                assert not any(exact_product(sp, v))

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
        vecs = _null_vectors_at(sp, want, seed=data.draw(st.integers(0, 99), label="p"))
        assert len(vecs) <= want
        assert all(any(v) and not any(exact_product(sp, v)) for v in vecs)
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

    def test_large_full_rank_certified(self, monkeypatch):
        # the modular route: the Cholesky stage is switched off
        monkeypatch.setattr(ranks, "_cholesky_certifies", lambda a: False)
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
        combined = _spy(monkeypatch, "_crt")
        info = exact_rank_info(m)
        assert info.certified
        assert info.rank == 230
        # this kernel's entries are far too large for a single prime: all 70
        # vectors are still open when the second prime is combined
        assert combined[0][0][0].shape == (230, 70)

    def test_huge_entries_certified_by_crt(self, monkeypatch):
        # M = [B | B w] with |B| < 2^40: the kernel vector (-w, 1) is too large
        # for one prime, so X is combined over several, and its exact check
        # would pass 2^53 in float64, so it runs on Python integers
        rng = random.Random(11)
        b = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(136)] for _ in range(150)]
        w = [rng.choice((-1, 1)) * rng.randint(10 ** 7 - 1000, 10 ** 7 + 1000)
             for _ in range(136)]
        sp = SparseCols.from_dense([row + [sum(x * y for x, y in zip(row, w))] for row in b])
        assert sp.max_abs() * sp.ncols * 10 ** 7 > 1 << 53
        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        combined = _spy(monkeypatch, "_crt")
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == 136
        kernel = [-x for x in w] + [1]
        ((_, _, vecs),) = nullcert
        assert vecs in ([kernel], [[-x for x in kernel]])
        assert len(combined) > 1

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
        # engine's prime
        shape, k = (190, 182), 170
        p = ENGINE_PRIME
        rng2 = np.random.default_rng(7)
        a = rng2.integers(-2, 3, size=(shape[0], k))
        b = rng2.integers(-2, 3, size=(k, shape[1]))
        u = rng2.integers(-2, 3, size=(shape[0], 1))
        w = rng2.integers(-2, 3, size=(1, shape[1]))
        sp = SparseCols.from_dense((a @ b + p * (u @ w)).tolist())
        core = ranks._peel(sp)[0]
        assert (core.nrows, core.ncols) == shape
        assert shape[0] * shape[1] * min(shape) > ranks.BAREISS_OPS_CAP  # not Bareiss

        ech = _echelon(_by_rows(sp), p)
        assert ech.piv.size == k
        # some column of p's kernel basis [-X; I] is no rational kernel vector
        basis = np.zeros((shape[1], ech.free.size), dtype=np.int64)
        basis[ech.piv], basis[ech.free, np.arange(ech.free.size)] = -ech.x, 1
        recons = [_try_reconstruct_vector(col, p) for col in basis.T.tolist()]
        assert any(recon is None or any(exact_product(sp, recon[0])) for recon in recons)

        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        echelons = _spy(monkeypatch, "_echelon")
        combined = _spy(monkeypatch, "_crt")
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == rank_bareiss(sp) == k + 1
        # the first fallback prime has rank k + 1, so it restarts the
        # combination: the one certificate drops p's basis and completes the
        # kernel of rank k + 1, which certifies that rank; every prime after
        # p is a fallback prime of that certificate, below p
        (((_, count_p, ech_p), _, vecs),) = nullcert
        assert ech_p.p == p and count_p == shape[1] - k
        assert echelons[1][2].piv.size == k + 1
        assert all(args[1] < p for args, _, _ in echelons[1:])
        assert vecs.rank == k + 1 and len(vecs) == shape[1] - k - 1
        assert len(combined) < ranks.CRT_MAX_PRIMES

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.data())
    def test_unlucky_prime_property(self, nrows, ncols, data):
        # the construction above at small sizes, with Bareiss and the
        # Cholesky stage switched off so that the modular route runs: modulo
        # the first prime p the matrix is a b, of rank at most k, while over
        # Q it is a b + p u w^T
        k = data.draw(st.integers(1, min(nrows, ncols) - 1), label="k")
        rng2 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = ENGINE_PRIME
        a = rng2.integers(-2, 3, size=(nrows, k))
        b = rng2.integers(-2, 3, size=(k, ncols))
        u = rng2.choice([-2, -1, 1, 2], size=(nrows, 1))
        w = rng2.choice([-2, -1, 1, 2], size=(1, ncols))
        sp = SparseCols.from_dense((a @ b + p * (u @ w)).tolist())
        assert _peel(sp)[0].nrows == nrows  # no zero entry, so nothing peels
        original = ranks._echelon
        echelons = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranks, "BAREISS_OPS_CAP", 0)
            mp.setattr(ranks, "_cholesky_certifies", lambda a: False)
            mp.setattr(ranks, "_echelon", lambda *args: echelons.append(args) or original(*args))
            info = exact_rank_info(sp)
        assert info.certified and info.method.startswith("peel+modular")
        assert info.rank == rank_bareiss(sp)
        # once no column is left to certify (after a restart at full rank,
        # say) the certificate ends instead of running through the primes
        assert len(echelons) < ranks.CRT_MAX_PRIMES

    def test_core_vanishing_mod_the_prime_is_certified(self, monkeypatch):
        # m = p u w^T is zero modulo p, the engine's prime, so the echelon
        # form there has rank 0; the certificate itself walks on to a
        # fallback prime of rank 1, the first below p
        shape = (38, 6)
        p = ENGINE_PRIME
        rng2 = np.random.default_rng(12)
        u = rng2.choice([-2, -1, 1, 2], size=(shape[0], 1))
        w = rng2.choice([-2, -1, 1, 2], size=(1, shape[1]))
        sp = SparseCols.from_dense((p * (u @ w)).tolist())
        monkeypatch.setattr(ranks, "BAREISS_OPS_CAP", 0)
        monkeypatch.setattr(ranks, "_cholesky_certifies", lambda a: False)
        echelons = _spy(monkeypatch, "_echelon")
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == rank_bareiss(sp) == 1
        assert echelons[0][2].p == p and echelons[0][2].piv.size == 0
        assert [args[1] for args, _, _ in echelons] == [p, SMALL_PRIMES[1]]

    def test_dense_cap_respected(self, monkeypatch):
        # over the cap no elimination runs, so no rank is read from one:
        # the engine and the cross-check both raise, naming the shape
        cap = 1000
        rng2 = np.random.default_rng(9)
        m = (rng2.integers(-2, 3, size=(300, 30)) @ rng2.integers(-2, 3, size=(30, 200))).tolist()
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", cap)
        eliminated = _spy(monkeypatch, "_rref")
        nullcert = _spy(monkeypatch, "exact_right_null_vectors")
        with pytest.raises(ranks.UncertifiedRankError, match="300x200 exceeds the budget of 1000"):
            exact_rank_info(m)
        assert not eliminated
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

    def test_budget_counts_held_elements(self, monkeypatch):
        # the engine holds X, at most n^2/4 elements, and one row block of
        # _BLOCK rows, not the m x n core: a budget between the two ranks and
        # certifies a deficient core, and one below the held count refuses it
        rng2 = np.random.default_rng(10)
        m = (rng2.integers(-2, 3, size=(1200, 30)) @ rng2.integers(-2, 3, size=(30, 60))).tolist()
        held = 60 * 60 // 4 + ranks._BLOCK * 60
        assert held < 1200 * 60
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", held)
        info = exact_rank_info(m)
        assert info.certified and info.method == "peel+modular+nullcert"
        assert info.rank == rank_bareiss(m) == 30

        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", held - 1)
        eliminated = _spy(monkeypatch, "_rref")
        with pytest.raises(ranks.UncertifiedRankError,
                           match=f"1200x60 exceeds the budget of {held - 1} elements"):
            exact_rank_info(m)
        assert not eliminated

    def test_agreement_with_engines(self, rng):
        for trial in range(40):
            m = random_matrix(rng, low_rank=trial % 2 == 0)
            info = exact_rank_info(m)
            assert info.certified
            assert info.rank == rank_bareiss(m)


def _sparse_tall(rng, nrows, ncols, per_row=4):
    """A tall 0/+-1 matrix with ``per_row`` nonzeros in each row, and one in
    column i of row i, so that nothing peels and the rank is usually full."""
    cols = [[] for _ in range(ncols)]
    for i in range(nrows):
        picked = set(rng.sample(range(ncols), per_row - 1)) | ({i} if i < ncols else set())
        for j in picked:
            cols[j].append((i, rng.choice((-1, 1))))
    return SparseCols(nrows, ncols, [sorted(col) for col in cols])


@st.composite
def _deficient_tall(draw):
    """Tall integer matrices of rank below their column count, B C with B
    small and C's entries up to the bound nrows max|a|^2 < 2^53 under which
    A^T A is exact; zero, repeated and scaled columns among them."""
    nr = draw(st.integers(1, 30))
    nc = draw(st.integers(1, nr))
    k = draw(st.integers(0, nc - 1))
    bits = draw(st.integers(0, (53 - nr.bit_length() - 2 * (2 * k + 1).bit_length()) // 2))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(1 << bits), 1 << bits))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                      min_size=nr, max_size=nr))
    c = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=k, max_size=k))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] if k else [0] * nc
            for row in b]


class TestCholeskyCertificate:
    @settings(max_examples=150, deadline=None)
    @given(_deficient_tall(), st.sampled_from((2, 5, ranks._PANEL)))
    @example([[1, 1 << 20], [2, 1 << 21], [3, 3 << 20]], ranks._PANEL)
    @example([[0, 0, 0]] * 4, 2)
    def test_never_certifies_a_deficient_matrix(self, m, panel):
        # G = A^T A is singular, so the proof must fail whatever the entries;
        # the factorization runs on G itself, past the stage's other gates,
        # in panels of 2 and 5 columns too
        a = np.array(m, dtype=object)
        assert len(m) * int(np.abs(a).max()) ** 2 < 1 << 53
        assert rank_bareiss(m) < a.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranks, "_PANEL", panel)
            assert not ranks._positive_definite((a.T @ a).astype(np.float64))
            assert not ranks._cholesky_certifies(_by_rows(SparseCols.from_dense(m)))

    def test_gram_is_exact(self, rng, monkeypatch):
        # a chunk of 2 n products of nonzeros at a time, so rows are split
        # across chunks; zero rows and entries near the 2^53 bound
        sp = _sparse_tall(rng, 90, 70)
        big = (1 << 23) - 1
        sp.cols[5] = [(i, v * big) for i, v in sp.cols[5]]
        sp.cols[6] = []
        sp.nrows += 3
        monkeypatch.setattr(ranks, "_PANEL", 4)
        a = np.array(sp.to_dense(), dtype=np.int64)
        assert np.array_equal(ranks._gram(_by_rows(sp)), (a.T @ a).astype(np.float64))

    def test_agrees_with_bareiss_on_sparse_cores(self, rng, monkeypatch):
        # sparse 0/+-1 cores over the Bareiss cap, of two or more panels:
        # the stage certifies those of full column rank with no echelon
        # form, and leaves those with a repeated column, or one that is the
        # sum of two others, to it
        stage = _spy(monkeypatch, "_cholesky_certifies")
        echelons = _spy(monkeypatch, "_echelon")
        for trial, (nr, nc) in enumerate([(160, 120), (150, 130), (200, 128), (140, 139)]):
            sp = _sparse_tall(rng, nr, nc)
            if trial >= 2:
                m = sp.to_dense()
                for row in m:
                    row.append(row[3] if trial == 2 else row[0] + row[1])
                sp = SparseCols.from_dense(m)
            want = rank_bareiss(sp)
            info = exact_rank_info(sp)
            assert info.certified and info.rank == want
            core, base = _peel(sp)
            certified = stage[-1][2]
            assert certified == (want - base == min(core.nrows, core.ncols))
            assert info.method == ("peel+modular-full" if certified else "peel+modular+nullcert")
            assert bool(echelons) != certified
            echelons.clear()
        assert [out for _, _, out in stage] == [True, True, False, False]

    def test_refusals(self, rng, monkeypatch):
        # refused before G is allocated: over the budget, over the echelon
        # form's own footprint (n > 1024), where G could be inexact, or where
        # the rows are too dense; after the factorization where some nonzero
        # entry of the factor is below _TINY
        gram = _spy(monkeypatch, "_gram")
        sp = _sparse_tall(rng, 160, 120)
        a = _by_rows(sp)
        n = a.ncols
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", n * n + ranks._BLOCK * n - 1)
        assert not ranks._cholesky_certifies(a) and not gram
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", n * n + ranks._BLOCK * n)
        assert ranks._cholesky_certifies(a) and len(gram) == 1
        monkeypatch.undo()
        gram = _spy(monkeypatch, "_gram")

        for n in (1024, 1025):  # [I; I]: G = 2I
            twice = SparseCols(2 * n, n, [[(j, 1), (n + j, 1)] for j in range(n)])
            assert ranks._cholesky_certifies(_by_rows(twice)) == (n == 1024)
        assert len(gram) == 1

        big = SparseCols(sp.nrows, sp.ncols, [list(col) for col in sp.cols])
        i, v = big.cols[0][0]
        big.cols[0][0] = (i, v << 25)
        assert sp.nrows * (1 << 25) ** 2 >= 1 << 53
        assert not ranks._cholesky_certifies(_by_rows(big))
        dense = SparseCols.from_dense(np.random.default_rng(3).integers(1, 3, (130, 110)).tolist())
        assert not ranks._cholesky_certifies(_by_rows(dense))
        assert len(gram) == 1
        # both still certified, by the echelon form
        for m in (big, dense):
            info = exact_rank_info(m)
            assert info.certified and info.method == "peel+modular-full" and info.rank == m.ncols

        monkeypatch.setattr(ranks, "_TINY", 1.0)
        assert not ranks._cholesky_certifies(a)
        assert len(gram) == 2


class _FakeBlasThreads:
    """Get and set thread-count controls over one count, in place of
    OpenBLAS's, logging the count each watched function reads on entry."""

    def __init__(self, monkeypatch, count=3):
        self.count, self.seen = count, []
        monkeypatch.setattr(ranks, "_blas_threads", lambda: (self.get, self.set))

    def get(self):
        return self.count

    def set(self, count):
        self.count = count

    def watch(self, monkeypatch, name):
        original = getattr(ranks, name)

        def wrapper(*args):
            self.seen.append((name, self.count))
            return original(*args)

        monkeypatch.setattr(ranks, name, wrapper)


class TestBlasHold:
    def test_bounded_products_run_on_one_thread(self, rng, monkeypatch):
        # a deficient dense core goes to the echelon form, a sparse tall one
        # of full rank to the Cholesky stage; each leaf echelon and each
        # factorization reads a count of 1, and the caller's count is back
        # once the rank returns
        blas = _FakeBlasThreads(monkeypatch)
        blas.watch(monkeypatch, "_rref")
        blas.watch(monkeypatch, "_positive_definite")
        rng2 = np.random.default_rng(13)
        deficient = rng2.integers(-2, 3, size=(600, 40)) @ rng2.integers(-2, 3, size=(40, 90))
        info = exact_rank_info(deficient.tolist())
        assert info.method == "peel+modular+nullcert" and info.rank == 40
        assert blas.count == 3
        assert set(blas.seen) == {("_rref", 1)}
        assert len(blas.seen) > 3  # one per row block, and the recursion's halves
        blas.seen.clear()
        info = exact_rank_info(_sparse_tall(rng, 160, 120))
        assert info.method == "peel+modular-full" and info.rank == 120
        assert blas.seen == [("_positive_definite", 1)] and blas.count == 3

    def test_count_restored_after_an_error(self, monkeypatch):
        blas = _FakeBlasThreads(monkeypatch)

        def broken(a, p):
            assert blas.count == 1
            raise ZeroDivisionError("leaf")

        monkeypatch.setattr(ranks, "_rref", broken)
        monkeypatch.setattr(ranks, "_cholesky_certifies", lambda a: False)
        m = np.random.default_rng(14).integers(-2, 3, size=(90, 80)).tolist()
        with pytest.raises(ZeroDivisionError, match="leaf"):
            exact_rank_info(m)
        assert blas.count == 3

    def test_controls_change_no_result(self, rng, monkeypatch):
        # the same RankInfo, with the count held or with no controls at all,
        # on cores that reach the echelon form and the Cholesky stage
        rng2 = np.random.default_rng(15)
        matrices = [_sparse_tall(rng, 150, 130), _sparse_tall(rng, 300, 200, per_row=3),
                    rng2.integers(-2, 3, size=(300, 120)).tolist(),
                    (rng2.integers(-2, 3, size=(280, 60))
                     @ rng2.integers(-2, 3, size=(60, 100))).tolist()]
        held = [exact_rank_info(m) for m in matrices]
        monkeypatch.setattr(ranks, "_blas_threads", lambda: None)
        stage = _spy(monkeypatch, "_cholesky_certifies")
        echelons = _spy(monkeypatch, "_echelon")
        assert [exact_rank_info(m) for m in matrices] == held
        assert any(out for _, _, out in stage) and echelons
        assert {info.method for info in held} == {"peel+modular-full", "peel+modular+nullcert"}

    def test_real_controls_restore_the_count(self):
        # without controls (numpy on MKL or a system BLAS) the hold does nothing
        controls = ranks._blas_threads()
        get = controls[0] if controls else lambda: None
        before = get()
        with ranks._one_blas_thread():
            assert get() == (1 if controls else None)
        assert get() == before

    @pytest.mark.parametrize("dense", [False, True], ids=["cholesky", "echelon"])
    def test_cores_over_the_cap_leave_bareiss(self, rng, dense):
        # a full-rank core between the cap and 10^6 operations, the cap
        # before it was lowered, is certified without Bareiss
        if dense:
            sp = SparseCols.from_dense(
                np.random.default_rng(16).integers(1, 4, size=(80, 70)).tolist())
        else:
            sp = _sparse_tall(rng, 90, 70)
        core, _ = _peel(sp)
        ops = core.nrows * core.ncols * min(core.nrows, core.ncols)
        assert ranks.BAREISS_OPS_CAP < ops <= 1_000_000
        info = exact_rank_info(sp)
        assert info.certified and info.method == "peel+modular-full"
        assert info.rank == rank_bareiss(sp) == 70


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


class TestRecording:
    def test_registry_collects_and_crosschecks(self, rng):
        registry = []
        with recording(registry):
            for _ in range(5):
                m = random_matrix(rng, max_dim=30)
                exact_rank_info(m)
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

    def test_distinct_matrices_keyed_by_shape_and_columns(self):
        # the same entry list split into other columns, or under another
        # shape, is another matrix; equal matrices, big entries too, count once
        def mat(nrows, cols):
            return SparseCols(nrows, len(cols), [list(col) for col in cols])

        base = [[(0, 1), (1, 3)], [(2, 2)]]
        registry = []
        with recording(registry):
            for m in (mat(3, base), mat(3, base),
                      mat(3, [[(0, 1)], [(1, 3), (2, 2)]]),
                      mat(4, base),
                      mat(3, [[(0, 2**70), (1, 3)], [(2, 2)]]),
                      mat(3, [[(0, 2**70), (1, 3)], [(2, 2)]])):
                exact_rank_info(m)
            assert len(registry) == 6
            assert ranks.distinct_recorded_matrices(registry) == 4

    def test_registry_restored(self):
        assert ranks._registry is None
        with recording([]):
            assert ranks._registry is not None
        assert ranks._registry is None
