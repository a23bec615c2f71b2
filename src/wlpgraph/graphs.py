"""Simple undirected graphs: paths, complete graphs, lollipops, and ad-hoc edge lists.

Vertices are 0-based contiguous integers; display names (``x_1``, ``y_3``, ...)
live only in an optional label map.  Graphs are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

VertexSet = frozenset
"""A set of vertex indices.  Plain frozensets at the API level; bit masks internally."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``0..vertex_count-1``."""

    vertex_count: int
    adjacency: tuple[frozenset[int], ...]
    # a dict cannot be hashed; equal graphs still hash equal without it
    label_map: dict[int, str] | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency table length must equal vertex_count")
        for v, nbrs in enumerate(self.adjacency):
            if v in nbrs:
                raise ValueError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < self.vertex_count:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if v not in self.adjacency[u]:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as bit masks (bit ``u`` set iff ``u`` adjacent)."""
        return tuple(_set_to_mask(nbrs) for nbrs in self.adjacency)

    @cached_property
    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(
            frozenset((u, v)) for v, nbrs in enumerate(self.adjacency) for u in nbrs if u < v
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label(self, v: int) -> str:
        if self.label_map and v in self.label_map:
            return self.label_map[v]
        return f"x_{v + 1}"

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def _set_to_mask(s) -> int:
    mask = 0
    for v in s:
        mask |= 1 << v
    return mask


def mask_bits(mask: int):
    """The vertices of a bit mask, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _check_edge(u: int, v: int, n: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge endpoint out of range: ({u}, {v}) with {n} vertices")
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) not allowed")


def _build(n: int, edge_pairs, label_map=None) -> Graph:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_pairs:
        _check_edge(u, v, n)
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in nbrs), label_map)


def path(n: int) -> Graph:
    """The path P_n on n >= 1 vertices with edges {i, i+1}."""
    if n < 1:
        raise ValueError("path requires n >= 1 (use custom(0, []) for the empty graph)")
    return _build(n, [(i, i + 1) for i in range(n - 1)])


def complete(m: int) -> Graph:
    """The complete graph K_m on m >= 1 vertices."""
    if m < 1:
        raise ValueError("complete requires m >= 1")
    return _build(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def lollipop(m: int, n: int) -> Graph:
    """The lollipop L_{m,n}: K_m on x_1..x_m, P_n on y_1..y_n, bridge x_m -- y_1.

    Vertices 0..m-1 are the clique (x-block), m..m+n-1 the path (y-block).
    """
    if m < 1 or n < 1:
        raise ValueError("lollipop requires m >= 1 and n >= 1")
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges.append((m - 1, m))
    edges.extend((m + i, m + i + 1) for i in range(n - 1))
    labels = {i: f"x_{i + 1}" for i in range(m)}
    labels.update({m + j: f"y_{j + 1}" for j in range(n)})
    return _build(m + n, edges, labels)


def custom(vertex_count: int, edges) -> Graph:
    """A graph with exactly the given edges; duplicates collapse."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    return _build(vertex_count, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertex indices are shifted by g1.vertex_count."""
    shift = g1.vertex_count
    edges = [tuple(e) for e in g1.edges]
    edges.extend((u + shift, v + shift) for e in g2.edges for u, v in [sorted(e)])
    return _build(shift + g2.vertex_count, edges)


def is_independent(g: Graph, s) -> bool:
    """True iff no two members of s are adjacent in g.  The empty set qualifies."""
    members = list(s)
    for v in members:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    mask = _set_to_mask(members)
    for v in members:
        if g.neighbor_masks[v] & mask:
            return False
    return True


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """N[v] = N(v) and v itself."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return g.adjacency[v] | {v}


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header ``n <count>``, then ``<u> <v>`` lines.

    ``#`` starts a comment; blank lines are ignored.
    """
    count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if count is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError("expected header 'n <vertex_count>'")
                count = int(parts[1])
                if count < 0:
                    raise ValueError("vertex count must be non-negative")
            elif len(parts) != 2:
                raise ValueError("expected '<u> <v>'")
            else:
                u, v = int(parts[0]), int(parts[1])
                _check_edge(u, v, count)
                edges.append((u, v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if count is None:
        raise ValueError("missing 'n <vertex_count>' header")
    return custom(count, edges)


def read_edge_list(path_name) -> Graph:
    with open(path_name, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def classify_family(g: Graph):
    """Recognize canonically labelled members of the path / lollipop families.

    Returns ``("path", n)``, ``("lollipop", m, n)`` or ``None``.  Only the
    labelings produced by :func:`path` and :func:`lollipop` are recognized;
    isomorphic relabelings fall through to ``None`` on purpose.
    """
    n = g.vertex_count
    if n == 0:
        return None
    if g.edges == path(n).edges:
        return ("path", n)
    # lollipop(1, k) and lollipop(2, k) are already matched as paths above
    for m in range(3, n):
        k = n - m
        if g.edge_count != m * (m - 1) // 2 + 1 + (k - 1):
            continue
        if g.edges == lollipop(m, k).edges:
            return ("lollipop", m, k)
    return None
