"""The structured rank formulas against the generic engine, exhaustively on
small instances and spot-checked in the middle range."""

import pytest

from wlpgraph import LinearForm, from_graph, hilbert_series, lollipop, multiplication_map, path
from wlpgraph import algebra as algebra_module
from wlpgraph import ranks, reductions
from wlpgraph.symmetry import involution_group, symmetric_blocks


def direct_rank(graph, i):
    a = from_graph(graph)
    if i > a.socle_degree:
        return 0
    gm = multiplication_map(a, LinearForm.all_ones(a.num_vars), i, 1)
    return ranks.exact_rank_info(gm.matrix).rank


@pytest.mark.parametrize("n", range(1, 13))
def test_path_ranks_match_engine(n):
    a = from_graph(path(n))
    for i in range(a.socle_degree + 1):
        assert reductions.path_ell_rank(n, i) == direct_rank(path(n), i), (n, i)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 8))
def test_lollipop_ranks_match_engine(m, n):
    a = from_graph(lollipop(m, n))
    for i in range(a.socle_degree + 1):
        assert reductions.lollipop_ell_rank(m, n, i) == direct_rank(lollipop(m, n), i), (m, n, i)


def test_medium_spot_checks():
    assert reductions.path_ell_rank(15, 4) == direct_rank(path(15), 4)
    assert reductions.path_ell_rank(16, 5) == direct_rank(path(16), 5)
    assert reductions.lollipop_ell_rank(4, 10, 3) == direct_rank(lollipop(4, 10), 3)
    assert reductions.lollipop_ell_rank(6, 9, 4) == direct_rank(lollipop(6, 9), 4)


def test_generic_engine_grid_subblock():
    # every multiplication map of every lollipop with m <= 8, n <= 12 through
    # the generic certified engine; values must match the reductions and the
    # verdicts the classification table
    from wlpgraph.lefschetz import expected_lollipop_wlp
    from wlpgraph.ranks import exact_rank_info

    for m in range(1, 9):
        for n in range(1, 13):
            a = from_graph(lollipop(m, n))
            wlp = True
            for i in range(a.socle_degree + 1):
                h_i, h_next = a.dim(i), a.dim(i + 1)
                if h_next == 0:
                    continue
                gm = multiplication_map(a, LinearForm.all_ones(a.num_vars), i, 1)
                info = exact_rank_info(gm.matrix)
                assert info.certified, (m, n, i)
                assert info.rank == reductions.lollipop_ell_rank(m, n, i), (m, n, i)
                if info.rank < min(h_i, h_next):
                    wlp = False
            assert wlp == expected_lollipop_wlp(m, n), (m, n)


def test_full_algebra_agreement_with_deficient_degrees():
    # L_{3,14} has a rank drop on both sides of its mode (by 14 and by 1);
    # the generic certified engine on the full matrices must agree with the
    # reduction at every degree
    from wlpgraph.ranks import exact_rank_info

    a = from_graph(lollipop(3, 14))
    assert a.dims == (1, 17, 119, 442, 935, 1122, 714, 204, 17)
    for i in range(a.socle_degree + 1):
        gm = multiplication_map(a, LinearForm.all_ones(a.num_vars), i, 1)
        info = exact_rank_info(gm.matrix)
        assert info.certified
        assert info.rank == reductions.lollipop_ell_rank(3, 14, i), i


def test_path_dims_match_indpoly():
    from wlpgraph import independence_polynomial

    assert reductions.path_dims(0) == (1,)
    for n in range(1, 18):
        assert reductions.path_dims(n) == independence_polynomial(path(n)).coeffs


@pytest.mark.parametrize("m,n", [(1, 5), (2, 7), (3, 4), (5, 9), (8, 6)])
def test_lollipop_dims_match_hilbert(m, n):
    assert reductions.lollipop_dims(m, n) == hilbert_series(from_graph(lollipop(m, n))).coeffs


def test_out_of_range_degrees_are_zero():
    assert reductions.path_ell_rank(5, 99) == 0
    assert reductions.path_ell_rank(0, 0) == 0
    assert reductions.lollipop_ell_rank(3, 4, 99) == 0


def test_ell2_rank_certified_values():
    # a rank-deficient two-step map, checked against both engine routes
    mat = reductions.path_ell_matrix(13, 4).matmul(reductions.path_ell_matrix(13, 3))
    r = reductions.path_ell2_rank(13, 3)
    assert r < min(mat.nrows, mat.ncols)
    assert r == ranks.rank_modular(mat, seed=1) == ranks.rank_bareiss(mat)


def _reversal_orbits(n, k):
    """(all orbits, non-fixed orbits) of the size-k independent sets of P_n
    under the reversal v -> n - 1 - v, counted from brute-force enumeration."""
    from conftest import independent_sets_brute

    sets = independent_sets_brute(path(n), k)
    fixed = sum(1 for s in sets if s == frozenset(n - 1 - v for v in s))
    return (len(sets) + fixed) // 2, (len(sets) - fixed) // 2


def _path_blocks(n, j):
    a = from_graph(path(n))
    return symmetric_blocks(a, involution_group(a.graph), j, 2)


@pytest.mark.parametrize("n", range(3, 15))  # P_1, P_2 have no ell^2 map
def test_reflection_blocks_split_the_rank(n):
    dims = reductions.path_dims(n)
    assert involution_group(path(n)) == (tuple(range(n - 1, -1, -1)),)
    for j in range(len(dims) - 2):
        even, odd = _path_blocks(n, j)
        src_all, src_moved = _reversal_orbits(n, j)
        tgt_all, tgt_moved = _reversal_orbits(n, j + 2)
        assert (even.nrows, even.ncols) == (tgt_all, src_all), (n, j)
        assert (odd.nrows, odd.ncols) == (tgt_moved, src_moved), (n, j)
        full = reductions.path_ell_matrix(n, j + 1).matmul(reductions.path_ell_matrix(n, j))
        assert ranks.rank_bareiss(even) + ranks.rank_bareiss(odd) == ranks.rank_bareiss(full), (n, j)


@pytest.fixture
def fresh_ell2_cache():
    # the path algebras hold the only memo of certified path ranks
    reductions._path_algebra.cache_clear()
    yield
    reductions._path_algebra.cache_clear()


def test_wrong_odd_block_raises_under_recording(monkeypatch, fresh_ell2_cache):
    # P_10 from degree 2: 35x36, small enough for the unsplit cross-check;
    # the forged odd block keeps its shape and only its first column
    def wrong(a, gens, j, t):
        even, odd = symmetric_blocks(a, gens, j, t)
        return even, ranks.SparseCols(odd.nrows, odd.ncols, odd.cols[:1] + [[]] * (odd.ncols - 1))

    a = from_graph(path(10))
    assert ranks.rank_bareiss(_path_blocks(10, 2)[1]) == 14
    assert ranks.rank_bareiss(wrong(a, involution_group(a.graph), 2, 2)[1]) == 1
    monkeypatch.setattr(algebra_module, "symmetric_blocks", wrong)
    with ranks.recording([]):
        with pytest.raises(ranks.RankComputationError, match="P_10 at degree 2"):
            reductions.path_ell2_rank(10, 2)


def test_split_rank_is_recorded_and_crosschecked(fresh_ell2_cache):
    registry = []
    with ranks.recording(registry):
        r = reductions.path_ell2_rank(10, 2)
    full = reductions.path_ell_matrix(10, 3).matmul(reductions.path_ell_matrix(10, 2))
    assert r == ranks.rank_bareiss(full)
    # the two blocks, then the unsplit matrix of the cross-check
    assert [info.shape for info in registry] == [(19, 20), (16, 16), (35, 36)]
    assert all(info.certified and info.crosscheck for info in registry)


def test_clearing_the_path_algebras_forces_every_rank_again(fresh_ell2_cache):
    # a rank memoized outside any recording scope must not hide the engine
    # calls of a later recorded run once the path algebras are cleared
    r = reductions.path_ell2_rank(10, 2)
    reductions._path_algebra.cache_clear()
    registry = []
    with ranks.recording(registry):
        assert reductions.path_ell2_rank(10, 2) == r
    assert [info.shape for info in registry] == [(19, 20), (16, 16), (35, 36)]
