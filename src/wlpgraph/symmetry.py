"""Commuting involutions of a graph, and the blocks they cut ell^t into.

An automorphism of G permutes the variables of A(G) and fixes the all-ones
form ell, so it commutes with multiplication by ell^t.  Let H be an
elementary abelian 2-group of automorphisms, generated by k commuting
involutions.  Each graded piece of A(G) splits into 2^k isotypic components,
one per character chi: H -> {+1, -1}, and ell^t maps each component into the
component of the same character (Serre, *Linear Representations of Finite
Groups*, section 2.6).  So the rank of ell^t is the sum of the ranks of its
2^k diagonal blocks, each of them far smaller than the whole map.

The component of chi has the basis P_chi e_s = sum_h chi(h) e_{h s}, over the
orbit representatives s (the smallest mask of each orbit) on whose
stabiliser chi is trivial; for the other representatives P_chi e_s is 0.
Since P_chi e_{g s} = chi(g) P_chi e_s, the block of chi has integer entries:
its column s is the sum of chi(g_t) M[t, s] over the images t of s, placed in
the row of the representative of t, where g_t is the element of H that maps
that representative to t, and M[t, s] = t! for each independent set t that
adds t vertices to s.  Images whose representative has no row in the block
are dropped.

H is found by colour refinement and backtracking (McKay and Piperno,
*Practical graph isomorphism, II*, J. Symbolic Comput. 60, 2014), and every
generator is checked before use, so a wrong one raises instead of giving a
wrong rank.  Masks are numpy uint64, so graphs of more than 64 vertices get
no generators and are not split.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import ranks
from .graphs import mask_bits

# Backtracking nodes per graph.  When they run out the search keeps the H it
# has; a smaller H splits less but never gives a wrong rank.
SEARCH_NODES = 20_000
# At most 64 characters, so a stabiliser is one uint64 bit set over H.
MAX_GENERATORS = 6
_MAX_VERTICES = 64


def involution_group(g) -> tuple[tuple[int, ...], ...]:
    """Commuting involutive automorphisms of ``g`` that generate an elementary
    abelian 2-group H, each as the tuple of vertex images; ``()`` if H is
    trivial.  Cached per graph."""
    return _involution_group(g.neighbor_masks)


@lru_cache(maxsize=64)
def _involution_group(adj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(adj)
    if n > _MAX_VERTICES:
        return ()
    colours = _refined_colours(adj)
    order, parent = _search_order(adj, colours)
    budget = [SEARCH_NODES]
    gens: list[tuple[int, ...]] = []
    group = [tuple(range(n))]
    while len(gens) < MAX_GENERATORS:
        pi = next(_search(adj, colours, order, parent, group, budget), None)
        if pi is None:
            break
        _check_generator(adj, pi, group)
        gens.append(pi)
        group = _elements(gens, n)
    return tuple(gens)


def _refined_colours(adj) -> list[int]:
    """Vertex colours refined by neighbour colours to a fixed point; every
    automorphism maps each vertex to one of its own colour."""
    n = len(adj)
    colours = [0] * n
    count = 1
    while True:
        sigs = [(colours[v], tuple(sorted(colours[u] for u in mask_bits(adj[v]))))
                for v in range(n)]
        palette = {sig: c for c, sig in enumerate(sorted(set(sigs)))}
        colours = [palette[sig] for sig in sigs]
        if len(palette) == count:
            return colours
        count = len(palette)


def _search_order(adj, colours):
    """Vertices in BFS order, each component rooted at a vertex of its
    smallest colour class, with the BFS parent of each vertex (-1 at roots)."""
    n = len(adj)
    size = [0] * n
    for c in colours:
        size[c] += 1
    order: list[int] = []
    parent = [-1] * n
    seen = 0
    for root in sorted(range(n), key=lambda v: (size[colours[v]], v)):
        if (seen >> root) & 1:
            continue
        seen |= 1 << root
        order.append(root)
        k = len(order) - 1
        while k < len(order):
            v = order[k]
            for u in mask_bits(adj[v] & ~seen):
                seen |= 1 << u
                parent[u] = v
                order.append(u)
            k += 1
    return order, parent


def _search(adj, colours, order, parent, group, budget):
    """Yield the involutive automorphisms that commute with every element of
    ``group`` and lie outside it, until ``budget[0]`` nodes are spent.

    The image of each vertex is tried among the neighbours of its parent's
    image.  Setting pi(v) = x also sets pi(x) = v and pi(h v) = h x for every
    h in the group, and each assignment is checked against the colours and
    against the edges to every vertex already mapped.
    """
    n = len(adj)
    members = set(group)

    def assign(img, used, done, v, x):
        stack = [(v, x)]
        while stack:
            v, x = stack.pop()
            if img[v] == x:
                continue
            if img[v] >= 0 or (used >> x) & 1 or colours[v] != colours[x]:
                return None
            mapped = 0
            for w in mask_bits(adj[v] & done):
                mapped |= 1 << img[w]
            if mapped != adj[x] & used:
                return None
            img[v] = x
            used |= 1 << x
            done |= 1 << v
            stack.append((x, v))
            stack.extend((h[v], h[x]) for h in group)
        return used, done

    def extend(k, img, used, done):
        while k < n and img[order[k]] >= 0:
            k += 1
        if k == n:
            pi = tuple(img)
            if pi not in members:
                yield pi
            return
        v = order[k]
        p = parent[v]
        cands = (adj[img[p]] if p >= 0 else (1 << n) - 1) & ~used
        for x in mask_bits(cands):
            budget[0] -= 1
            if budget[0] < 0:
                return
            trial = img.copy()
            state = assign(trial, used, done, v, x)
            if state is not None:
                yield from extend(k + 1, trial, *state)

    yield from extend(0, [-1] * n, 0, 0)


def _check_generator(adj, pi, group) -> None:
    """Raise unless ``pi`` is an involutive automorphism outside ``group``
    that commutes with each of its elements."""
    n = len(adj)
    if sorted(pi) != list(range(n)):
        raise RuntimeError(f"involution search returned a non-permutation {pi}")
    if any(pi[pi[v]] != v for v in range(n)):
        raise RuntimeError(f"involution search returned {pi}, whose square is not the identity")
    for v in range(n):
        image = 0
        for u in mask_bits(adj[v]):
            image |= 1 << pi[u]
        if image != adj[pi[v]]:
            raise RuntimeError(f"involution search returned {pi}, which breaks the edges at {v}")
    if any(pi[h[v]] != h[pi[v]] for h in group for v in range(n)):
        raise RuntimeError(f"involution search returned {pi}, which does not commute with H")
    if pi in group:
        raise RuntimeError(f"involution search returned {pi}, which already lies in H")


# ---------------------------------------------------------------------------
# the blocks


def _elements(gens, n: int) -> list[tuple[int, ...]]:
    """The elements of H; element e is the product of the generators whose
    bit is set in e."""
    elems = [tuple(range(n))]
    for pi in gens:
        elems += [tuple(pi[v] for v in h) for h in elems]
    return elems


def _byte_tables(images) -> np.ndarray:
    """For a vertex map given as one uint64 mask per vertex, the image of each
    byte value at each byte position: shape (byte positions, 256)."""
    nbytes = (len(images) + 7) // 8
    padded = np.zeros((nbytes, 8), dtype=np.uint64)
    padded.flat[:len(images)] = images
    has_bit = (np.arange(256)[:, None] >> np.arange(8)) & 1 == 1  # [byte, k]
    return np.bitwise_or.reduce(
        np.where(has_bit[None], padded[:, None, :], np.uint64(0)), axis=2)


@lru_cache(maxsize=64)
def _tables(adj: tuple[int, ...], gens) -> tuple[list[np.ndarray], np.ndarray]:
    """The byte tables of every element of H, and of the closed neighbourhoods."""
    n = len(adj)
    perm_tables = [_byte_tables(np.array([1 << h[v] for v in range(n)], dtype=np.uint64))
                   for h in _elements(gens, n)]
    closed = np.array([(1 << v) | adj[v] for v in range(n)], dtype=np.uint64)
    return perm_tables, _byte_tables(closed)


def _apply(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The union of the byte images of every mask."""
    out = tables[0][masks & 0xFF]
    for b in range(1, len(tables)):
        out |= tables[b][(masks >> np.uint64(8 * b)) & np.uint64(0xFF)]
    return out


def _orbit_data(masks: np.ndarray, perm_tables: list[np.ndarray]):
    """Per mask: its representative, the element mapping it there (which, H
    being elementary abelian, maps the representative back to it), and its
    stabiliser as a bit set over the elements."""
    images = np.stack([_apply(tables, masks) for tables in perm_tables])
    rep = images.min(axis=0)
    via = images.argmin(axis=0)
    stab = np.zeros(len(masks), dtype=np.uint64)
    for e in range(len(images)):
        stab |= (images[e] == masks).astype(np.uint64) << np.uint64(e)
    return rep, via, stab


def _supersets(adj, closed_tables, reps: np.ndarray, t: int):
    """All independent sets that add t vertices to a mask of ``reps``, as
    (index into ``reps``, mask) arrays; each set once, its new vertices
    added in increasing order."""
    src = np.arange(len(reps), dtype=np.int32)
    cur = reps
    blocked = _apply(closed_tables, reps)
    last = np.full(len(reps), -1, dtype=np.int8)
    for step in range(t):
        grown = []
        for v in range(len(adj)):
            sel = np.flatnonzero((last < v) & ((blocked >> np.uint64(v)) & np.uint64(1) == 0))
            grown.append((sel, v))
        if step + 1 < t:
            blocked = np.concatenate([blocked[sel] | np.uint64((1 << v) | adj[v])
                                      for sel, v in grown])
            last = np.concatenate([np.full(len(sel), v, dtype=np.int8) for sel, v in grown])
        src = np.concatenate([src[sel] for sel, _ in grown])
        cur = np.concatenate([cur[sel] | np.uint64(1 << v) for sel, v in grown])
    return src, cur


def symmetric_blocks(a, gens, i: int, t: int) -> list[ranks.SparseCols]:
    """The diagonal blocks of ell^t: [A(G)]_i -> [A(G)]_{i+t} over the
    characters of the group H generated by ``gens``, for the graph algebra
    ``a`` of G and its all-ones form ell.

    Block c belongs to the character that is -1 on exactly the generators
    whose bit is set in c, so block 0 is the trivial character.  Rows and
    columns are the orbit representatives, in basis order.  The block ranks
    add up to the rank of ell^t, and the row and column counts add up to the
    graded dimensions.
    """
    adj = a.graph.neighbor_masks
    top = a.socle_degree
    source = np.array(a.masks[i] if 0 <= i <= top else (), dtype=np.uint64)
    target = np.array(a.masks[i + t] if 0 <= i + t <= top else (), dtype=np.uint64)
    perm_tables, closed_tables = _tables(adj, tuple(gens))

    s_rep, _, s_stab = _orbit_data(source, perm_tables)
    t_rep, t_via, t_stab = _orbit_data(target, perm_tables)
    s_pos = np.flatnonzero(s_rep == source)  # the source representatives
    t_is_rep = t_rep == target
    order = np.argsort(target)

    def lookup(m):
        return order[np.searchsorted(target[order], m)]

    t_rep_pos = lookup(t_rep)

    src, img = _supersets(adj, closed_tables, source[s_pos], t)
    img_pos = lookup(img)
    if not np.array_equal(target[img_pos], img):
        raise RuntimeError(f"an image of ell^{t} from degree {i} is missing from degree {i + t}")
    img_row_of = t_rep_pos[img_pos]
    img_via = t_via[img_pos]
    weight = factorial(t)

    blocks = []
    size = len(perm_tables)
    for c in range(size):
        # the character c is -1 on the element e exactly where parity[e] is 1
        parity = np.array([bin(c & e).count("1") & 1 for e in range(size)])
        odd = np.uint64(sum(1 << e for e in np.flatnonzero(parity).tolist()))
        col_ok = (s_stab[s_pos] & odd) == 0
        row_ok = t_is_rep & ((t_stab & odd) == 0)
        col_of = np.cumsum(col_ok) - 1
        row_of = np.cumsum(row_ok) - 1
        keep = col_ok[src] & row_ok[img_row_of]
        cols = col_of[src[keep]]
        rows = row_of[img_row_of[keep]]
        vals = weight * (1 - 2 * parity[img_via[keep]])
        blocks.append(_sparse_cols(int(row_ok.sum()), int(col_ok.sum()), cols, rows, vals))
    return blocks


def _sparse_cols(nrows: int, ncols: int, cols, rows, vals) -> ranks.SparseCols:
    """Sum the entries at each (row, col), drop zeros and build the matrix."""
    # the sorted keys col * nrows + row run in the column order of SparseCols
    key, at = np.unique(cols.astype(np.int64) * nrows + rows, return_inverse=True)
    sums = np.zeros(key.size, dtype=np.int64)
    np.add.at(sums, at, vals)
    nz = sums != 0
    # one int object per index, shared by the entries of its row or column:
    # on the P_22 blocks from degree 5 this holds 6 MB of lists instead of 19
    shared = list(range(max(nrows, ncols))).__getitem__
    cols, rows = (list(map(shared, x.tolist())) for x in np.divmod(key[nz], max(nrows, 1)))
    return ranks.SparseCols(nrows, ncols, rows, cols, sums[nz].tolist())
