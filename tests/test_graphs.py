from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlpgraph import (
    classify_family,
    closed_neighborhood,
    complete,
    custom,
    disjoint_union,
    is_independent,
    lollipop,
    parse_edge_list,
    path,
    read_edge_list,
)


def test_path_basics():
    assert path(1).vertex_count == 1 and path(1).edge_count == 0
    assert path(2).edges == frozenset({frozenset({0, 1})})
    assert path(4).edges == frozenset(
        {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}
    )
    with pytest.raises(ValueError):
        path(0)


def test_complete_basics():
    assert complete(1).edge_count == 0
    assert complete(3).edge_count == 3
    assert complete(5).edge_count == 10
    with pytest.raises(ValueError):
        complete(0)


def test_lollipop_shape():
    g = lollipop(3, 1)
    assert g.vertex_count == 4 and g.edge_count == 4
    assert lollipop(4, 9).vertex_count == 13
    with pytest.raises(ValueError):
        lollipop(0, 3)
    with pytest.raises(ValueError):
        lollipop(3, 0)


def test_lollipop_labels():
    g = lollipop(3, 2)
    assert [g.label(v) for v in range(5)] == ["x_1", "x_2", "x_3", "y_1", "y_2"]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_small_lollipops_are_paths(n):
    assert lollipop(1, n).edges == path(n + 1).edges
    assert lollipop(2, n).edges == path(n + 2).edges


@pytest.mark.parametrize("m,n", [(3, 1), (4, 5), (6, 2), (8, 20)])
def test_lollipop_edge_count(m, n):
    assert lollipop(m, n).edge_count == m * (m - 1) // 2 + 1 + (n - 1)


def test_labelled_graph_hashable():
    g, h = lollipop(3, 4), lollipop(3, 4)
    assert g == h and hash(g) == hash(h)
    assert {g: "L(3,4)"}[h] == "L(3,4)"
    seen = []

    @lru_cache(maxsize=None)
    def vertices(graph):
        seen.append(graph)
        return graph.vertex_count

    assert vertices(g) == vertices(h) == 7
    assert seen == [g]


def test_custom():
    assert custom(0, []).vertex_count == 0
    g = custom(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1
    with pytest.raises(ValueError):
        custom(2, [(0, 2)])
    with pytest.raises(ValueError):
        custom(2, [(1, 1)])


def test_disjoint_union():
    g = disjoint_union(path(1), path(1))
    assert g.vertex_count == 2 and g.edge_count == 0
    g = disjoint_union(path(2), path(3))
    assert g.vertex_count == 5 and g.edge_count == 3
    assert frozenset({2, 3}) in g.edges and frozenset({3, 4}) in g.edges


def test_is_independent():
    assert is_independent(path(3), {0, 2})
    assert not is_independent(complete(3), {0, 1})
    assert is_independent(complete(4), set())
    with pytest.raises(ValueError):
        is_independent(path(3), {5})


def test_closed_neighborhood():
    assert closed_neighborhood(path(3), 1) == {0, 1, 2}
    assert closed_neighborhood(path(1), 0) == {0}
    assert closed_neighborhood(complete(4), 2) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        closed_neighborhood(path(2), 2)


@given(
    n=st.integers(min_value=0, max_value=12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_construction_invariants(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=20,
        )
    )
    edges = [(u, v) for u, v in pairs if u != v and n > 0]
    g = custom(n, edges)
    for v, nbrs in enumerate(g.adjacency):
        assert v not in nbrs
        for u in nbrs:
            assert v in g.adjacency[u]


def test_parse_edge_list():
    g = parse_edge_list("# comment\nn 4\n0 1\n2 3  # trailing\n")
    assert g.vertex_count == 4 and g.edge_count == 2
    assert parse_edge_list("n 0\n").vertex_count == 0
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("n 2\n0\n")
    with pytest.raises(ValueError, match=r"^line 1: invalid literal for int\(\) .*'x'$"):
        parse_edge_list("n x\n")
    with pytest.raises(ValueError, match=r"^line 3: invalid literal for int\(\) .*'a'$"):
        parse_edge_list("n 2\n0 1\n0 a\n")
    with pytest.raises(ValueError, match=r"^line 3: self-loop \(1, 1\) not allowed$"):
        parse_edge_list("n 3\n0 1\n1 1\n")
    with pytest.raises(ValueError,
                       match=r"^line 2: edge endpoint out of range: \(1, 5\) with 3 vertices$"):
        parse_edge_list("n 3\n1 5\n")


def test_read_edge_list(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("n 3\n0 1\n1 2\n")
    assert read_edge_list(f).edges == path(3).edges


def test_classify_family():
    assert classify_family(path(7)) == ("path", 7)
    assert classify_family(lollipop(4, 5)) == ("lollipop", 4, 5)
    assert classify_family(lollipop(1, 5)) == ("path", 6)
    assert classify_family(lollipop(2, 5)) == ("path", 7)
    assert classify_family(complete(4)) is None
    assert classify_family(custom(3, [(0, 2)])) is None
