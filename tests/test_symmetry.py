"""Commuting involutions of graphs and the blocks they split ell^t into,
against the unsplit maps."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlpgraph import LinearForm, custom, from_graph, multiplication_map, ranks, symmetry
from wlpgraph import algebra as algebra_module
from wlpgraph.lefschetz import wlp_report
from wlpgraph.symmetry import involution_group, symmetric_blocks


def _rank(m):
    # Bareiss up to the engine's own Bareiss budget; past it pure-Python
    # Bareiss takes minutes, so the certified engine ranks those
    if m.nrows * m.ncols * min(m.nrows, m.ncols) <= ranks.BAREISS_OPS_CAP:
        return ranks.rank_bareiss(m)
    return ranks.exact_rank(m)


def _assert_blocks_split(g, powers=(1, 2)):
    a = from_graph(g)
    gens = involution_group(g)
    for t in powers:
        for i in range(a.socle_degree + 1):
            blocks = symmetric_blocks(a, gens, i, t)
            assert len(blocks) == 2 ** len(gens)
            assert sum(b.nrows for b in blocks) == a.dim(i + t), (i, t)
            assert sum(b.ncols for b in blocks) == a.dim(i), (i, t)
            full = multiplication_map(a, LinearForm.all_ones(g.vertex_count), i, t).matrix
            assert sum(_rank(b) for b in blocks) == _rank(full), (i, t, gens)


def _relabelled_cycle(n, seed):
    label = random.Random(seed * 1000 + n).sample(range(n), n)
    return custom(n, [(label[v], label[(v + 1) % n]) for v in range(n)])


def _assert_valid_generators(g, gens):
    n = g.vertex_count
    edges = {frozenset(e) for e in g.edges}
    for pi in gens:
        assert sorted(pi) == list(range(n))
        assert all(pi[pi[v]] == v for v in range(n))
        assert pi != tuple(range(n))
        assert {frozenset(pi[v] for v in e) for e in edges} == edges
        for rho in gens:
            assert all(pi[rho[v]] == rho[pi[v]] for v in range(n))


@st.composite
def graphs(draw):
    """Graphs of at most 11 vertices; half of them are made symmetric under a
    random involution, so most draws have a nontrivial group."""
    n = draw(st.integers(1, 11))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    edges = [(u, v) for u, v in pairs if u != v]
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        fixed = draw(st.integers(0, n))
        pi = list(range(n))
        for k in range(fixed, n - 1, 2):
            pi[order[k]], pi[order[k + 1]] = order[k + 1], order[k]
        edges += [(pi[u], pi[v]) for u, v in edges]
    return custom(n, edges)


@given(g=graphs())
@settings(max_examples=60, deadline=None)
def test_blocks_split_random_graphs(g):
    gens = involution_group(g)
    _assert_valid_generators(g, gens)
    _assert_blocks_split(g)


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("n", range(3, 17))
def test_blocks_split_relabelled_cycles(n, seed):
    g = _relabelled_cycle(n, seed)
    gens = involution_group(g)
    # a reflection, and the half-turn where n is even: a Klein four-group
    assert len(gens) == (2 if n % 2 == 0 else 1)
    _assert_valid_generators(g, gens)
    _assert_blocks_split(g, powers=(1,))


def test_search_returning_a_non_automorphism_is_rejected(monkeypatch):
    g = custom(4, [(0, 1), (1, 2), (2, 3)])
    symmetry._involution_group.cache_clear()

    def forged(adj, colours, order, parent, group, budget):
        yield (1, 0, 2, 3)  # an involution that maps the edge {1, 2} to {0, 2}

    monkeypatch.setattr(symmetry, "_search", forged)
    with pytest.raises(RuntimeError, match="breaks the edges"):
        involution_group(g)
    monkeypatch.undo()
    symmetry._involution_group.cache_clear()
    assert involution_group(g) == ((3, 2, 1, 0),)


def test_exhausted_budget_keeps_the_group_found(monkeypatch):
    g = _relabelled_cycle(8, 2)
    symmetry._involution_group.cache_clear()
    monkeypatch.setattr(symmetry, "SEARCH_NODES", 0)
    assert involution_group(g) == ()
    symmetry._involution_group.cache_clear()
    monkeypatch.undo()
    assert len(involution_group(g)) == 2
    symmetry._involution_group.cache_clear()


def test_asymmetric_graph_is_not_split(monkeypatch):
    # guard: the smallest graphs without a nontrivial automorphism have six vertices
    edges = [(0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (4, 5)]
    g = custom(6, edges)
    automorphisms = [p for p in permutations(range(6))
                     if {frozenset((p[u], p[v])) for u, v in edges} == set(g.edges)]
    assert automorphisms == [tuple(range(6))]
    assert involution_group(g) == ()
    monkeypatch.setattr(algebra_module, "symmetric_blocks", None)  # never reached
    a = from_graph(g)
    report = wlp_report(a)
    ell = LinearForm.all_ones(6)
    assert [v.rank for v in report.verdicts] == [
        multiplication_map(a, ell, i, 1).rank if a.dim(i + 1) else 0
        for i in range(a.socle_degree + 1)
    ]


def test_split_report_assembles_no_unsplit_map(monkeypatch):
    calls = []
    real = algebra_module.multiplication_map

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra_module, "multiplication_map", spy)
    report = wlp_report(from_graph(_relabelled_cycle(12, 2)))
    assert not calls
    assert report.failing_degrees == ((3, "surjectivity"),)
    assert [v.rank for v in report.verdicts] == [1, 12, 54, 102, 36, 2, 0]


def test_forged_block_raises_under_recording(monkeypatch):
    # C_10 has min(h_i, h_{i+1}) <= CROSSCHECK_CAP at every degree, so each
    # summed rank is compared with the unsplit map; the last block of each
    # degree keeps its shape and only its first column
    def forged(a, gens, i, t):
        *rest, last = symmetric_blocks(a, gens, i, t)
        first = last.cols.count(0)
        kept = last.rows[:first], last.cols[:first], last.vals[:first]
        return [*rest, ranks.SparseCols(last.nrows, last.ncols, *kept)]

    g = _relabelled_cycle(10, 2)
    with ranks.recording([]):
        assert wlp_report(from_graph(g)).has_wlp
    monkeypatch.setattr(algebra_module, "symmetric_blocks", forged)
    registry = []
    with ranks.recording(registry):
        with pytest.raises(ranks.RankComputationError, match="disagrees with engine rank"):
            wlp_report(from_graph(g))


def test_split_is_recorded_and_crosschecked():
    g = _relabelled_cycle(10, 5)
    registry = []
    with ranks.recording(registry):
        report = wlp_report(from_graph(g))
    assert report.has_wlp
    # per degree with a nonzero target (0..4): four blocks, then the unsplit map
    shapes = [info.shape for info in registry]
    assert len(shapes) == 5 * 5
    for degree in range(5):
        *blocks, (rows, cols) = shapes[5 * degree:5 * degree + 5]
        assert (rows, cols) == (report.verdicts[degree].h_target, report.verdicts[degree].h_source)
        assert sum(r for r, _ in blocks) == rows and sum(c for _, c in blocks) == cols
    assert all(info.certified for info in registry)
