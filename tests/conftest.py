"""Shared test oracles, deliberately independent of the library's own routines."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from wlpgraph import custom, ranks, reductions


def rank_by_fractions(rows) -> int:
    """Plain Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[piv], m[r] = m[r], m[piv]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def exact_product(sp, vec) -> list[int]:
    """sp @ vec over the integers, for a SparseCols sp and a list vec."""
    out = [0] * sp.nrows
    for col, x in zip(sp.cols, vec, strict=True):
        for i, v in col:
            out[i] += v * x
    return out


def independent_set_counts_brute(g) -> tuple[int, ...]:
    """Count independent sets by checking every subset against the edge list."""
    edges = [tuple(sorted(e)) for e in g.edges]
    counts = [0] * (g.vertex_count + 1)
    vertices = range(g.vertex_count)
    for k in range(g.vertex_count + 1):
        for subset in combinations(vertices, k):
            s = set(subset)
            if all(not (u in s and v in s) for u, v in edges):
                counts[k] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def independent_sets_brute(g, k):
    edges = [tuple(sorted(e)) for e in g.edges]
    out = []
    for subset in combinations(range(g.vertex_count), k):
        s = set(subset)
        if all(not (u in s and v in s) for u, v in edges):
            out.append(frozenset(subset))
    return out


def random_graph(rng: random.Random, max_vertices: int = 10):
    n = rng.randint(1, max_vertices)
    prob = rng.choice((0.15, 0.3, 0.5))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return custom(n, edges)


@pytest.fixture
def rng():
    return random.Random(98765)


@pytest.fixture
def starved_engine(monkeypatch):
    """An engine that certifies no rank-deficient core: Bareiss never runs and
    the null-vector certificate is withheld, so a deficient core comes back as
    ``modular-consensus``, with the rank mod p as an uncertified lower bound."""
    monkeypatch.setattr(ranks, "exact_right_null_vectors",
                        lambda matrix, count, ech: ranks.NullVectors([], ech.piv.size))
    monkeypatch.setattr(ranks, "BAREISS_OPS_CAP", 0)
    # the path algebras hold the only memo of certified path ranks
    reductions._path_algebra.cache_clear()
    yield
    reductions._path_algebra.cache_clear()
