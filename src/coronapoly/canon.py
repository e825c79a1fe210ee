"""Canonical codes, automorphism groups and exhaustive catalogs of small
graphs.

Two graphs receive equal codes iff they are isomorphic.  Forests (any
size up to 64 vertices) are encoded by the classic rooted-at-center
parenthesis string.  General graphs, up to 30 vertices, get the least
adjacency bit string over the leaves of one individualization-refinement
search (McKay, *Practical graph isomorphism*, 1981; McKay & Piperno,
JSC 2014), which also yields generators and the order of Aut(g).

The catalogs (`enumerate_trees`, `enumerate_graphs`) produce exactly one
representative per isomorphism class, each level memoised, so asking for
every order up to n builds each level once.  The tree catalog attaches a
leaf at one vertex per orbit and keeps the first tree seen with each
code.  The graph catalog follows McKay's canonical construction path
(*Isomorph-free exhaustive generation*, J. Algorithms 26, 1998; nauty's
`geng`): a parent g is extended by a new vertex v with one neighbourhood
per orbit of Aut(g) on the subsets of V(g), and a child is kept iff v
lies in the Aut-orbit of a vertex chosen from the child's isomorphism
class alone.  No codes are compared: every class comes out exactly once,
and the one search of each kept child gives its generators, its
canonical form, which is the representative kept, and (unless it is a
forest) its code.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import prod
from operator import itemgetter

from .errors import ResourceLimitError
from .graphs import Graph, _from_masks, _mask_bits, connected_components, is_connected, is_forest

CANONICAL_LIMIT = 30    # general graphs: individualization-refinement code
FOREST_CODE_LIMIT = 64
GRAPH_ENUM_LIMIT = 8
TREE_ENUM_LIMIT = 16

# Known counts used as self-checks by the test-suite.
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320}
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


# -- forest codes ---------------------------------------------------------


def _rooted_code(nbrs: list[list[int]], v: int, parent: int = -1) -> str:
    subs = sorted(_rooted_code(nbrs, w, v) for w in nbrs[v] if w != parent)
    return "(" + "".join(subs) + ")"


def _tree_centers(nbrs: list[list[int]], comp: list[int]) -> list[int]:
    if len(comp) <= 2:
        return comp
    deg = {v: len(nbrs[v]) for v in comp}
    layer = [v for v in comp if deg[v] == 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in nbrs[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return layer


def _forest_code(g: Graph) -> bytes:
    nbrs = list(map(_mask_bits, g.masks))
    codes = sorted(
        min(_rooted_code(nbrs, c) for c in _tree_centers(nbrs, comp))
        for comp in connected_components(g)
    )
    return b"T" + bytes([g.n]) + "|".join(codes).encode("ascii")


# -- general codes --------------------------------------------------------


def _refine(masks: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Refine the ordered partition `cells` (vertex bitmasks) to an
    equitable one, taking splitters from `queue` first in, first out.  A
    cell with unequal neighbour counts into the splitter is replaced by its
    fragments in increasing count order, and they join the queue in that
    order, less the first largest when the cell is not itself queued
    (Hopcroft's rule).  Nothing depends on vertex labels."""
    n = len(masks)
    head = 0
    while head < len(queue) and len(cells) < n:
        s = queue[head]
        head += 1
        if s & (s - 1):
            by_count: dict[int, int] = {}
            for v, m in enumerate(masks):
                k = (m & s).bit_count()
                by_count[k] = by_count.get(k, 0) | 1 << v
            classes = [by_count[k] for k in sorted(by_count)]
        else:
            nb = masks[s.bit_length() - 1]
            classes = [~nb, nb]
        out = []
        for c in cells:
            if c & (c - 1):
                frags = [c & k for k in classes if c & k]
                if len(frags) > 1:
                    out += frags
                    if c not in queue[head:]:
                        frags.remove(max(frags, key=int.bit_count))
                    queue += frags
                    continue
            out.append(c)
        cells = out
    return cells


def _orbit(v: int, gens: Sequence[Sequence[int]]) -> int:
    """The orbit of v under the group generated by `gens` (image
    sequences), as a vertex mask."""
    seen, stack = 1 << v, [v]
    while stack:
        u = stack.pop()
        for p in gens:
            if not (seen >> p[u]) & 1:
                seen |= 1 << p[u]
                stack.append(p[u])
    return seen


def _search(masks: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]], int, list[int]]:
    """The code bits, generators of Aut(g), |Aut(g)| and the best leaf's
    vertex order, from one individualization-refinement search of the
    graph with neighbour masks `masks`.

    A node is an equitable ordered partition.  Its children individualize
    each vertex of its first smallest non-singleton cell, save those that
    an automorphism fixing the node's individualized vertices maps onto an
    explored sibling.  A leaf's certificate is the lower-triangle adjacency
    bit string in its vertex order; the code is the least one, and the
    graph relabelled by the best leaf's order (vertex i is order[i]) is
    the canonical form, whose lower triangle is the code.  A leaf matching
    the first or the best leaf gives an automorphism, and a first leaf
    match resumes at the deepest first-path node above it.  |Aut(g)| is
    the product, over first-path nodes, of the first child's orbit.
    """
    n = len(masks)
    gens: list[tuple[list[int], int]] = []      # (images, fixed-point mask)
    first_path: list[tuple[int, int]] = []       # (individualized mask, first child)
    first = best = None                          # (certificate, order) of a leaf

    def orbit(v: int, fixed: int) -> int:
        return _orbit(v, [p for p, f in gens if f & fixed == fixed])

    def explore(cells: list[int], fixed: int, depth: int, fp: int | None) -> int | None:
        """`fp`: depth of the deepest first-path ancestor (None on the first
        path).  Returns the depth to resume at after a first-leaf match."""
        nonlocal first, best
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            cert = 0
            for i, v in enumerate(order):
                for u in order[:i]:
                    cert = (cert << 1) | ((masks[v] >> u) & 1)
            if first is None:
                first = best = (cert, order)
            elif cert in (first[0], best[0]):
                perm = [w for _, w in sorted(zip(first[1] if cert == first[0] else best[1], order))]
                gens.append((perm, sum(1 << u for u in range(n) if perm[u] == u)))
                return fp if cert == first[0] else None
            elif cert < best[0]:
                best = (cert, order)
            return None
        sizes = [c.bit_count() if c & (c - 1) else n + 1 for c in cells]
        cell = cells[t := sizes.index(min(sizes))]
        members = [v for v in range(n) if (cell >> v) & 1]
        if fp is None:
            first_path.append((fixed, members[0]))
        done = 0
        for v in members:
            if done and orbit(v, fixed) & done:
                continue
            done |= 1 << v
            child = cells[:t] + [1 << v, cell ^ 1 << v] + cells[t + 1:]
            jump = explore(_refine(masks, child, [1 << v]), fixed | 1 << v, depth + 1,
                           depth if fp is None and first is not None else fp)
            if jump is not None and jump < depth:
                return jump
        return None

    everything = (1 << n) - 1
    explore(_refine(masks, [everything] if n else [], [everything]), 0, 0, None)
    del explore     # its closure refers to itself: break the cycle now
    size = prod(orbit(v, fixed).bit_count() for fixed, v in first_path)
    return best[0], [tuple(p) for p, _ in gens], size, best[1]


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte code; equal codes iff isomorphic graphs."""
    if is_forest(g):
        if g.n > FOREST_CODE_LIMIT:
            raise ResourceLimitError(
                f"canonical code: forest on {g.n} > {FOREST_CODE_LIMIT} vertices"
            )
        return _forest_code(g)
    if g.n > CANONICAL_LIMIT:
        raise ResourceLimitError(
            f"canonical code: general graph on {g.n} > {CANONICAL_LIMIT} vertices"
        )
    return _general_code(g.n, _search(g.masks)[0])


def _general_code(n: int, bits: int) -> bytes:
    width = (n * (n - 1) // 2 + 7) // 8
    return b"G" + bytes([n]) + bits.to_bytes(width, "big")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    return canonical_code(g) == canonical_code(h)


# -- catalogs -------------------------------------------------------------


@cache
def _tree_level(n: int) -> tuple[Graph, ...]:
    """Level n of the tree catalog, sorted by canonical code, grown once
    per process from the memoised level n-1."""
    if n == 1:
        return (Graph(1),)
    seen: dict[bytes, Graph] = {}
    for t in _tree_level(n - 1):
        base = list(t.edges())
        nbrs = list(map(_mask_bits, t.masks))
        orbit_reps: dict[str, int] = {}
        for v in range(t.n):
            rc = _rooted_code(nbrs, v)
            if rc not in orbit_reps:
                orbit_reps[rc] = v
        for v in orbit_reps.values():
            t2 = Graph(t.n + 1, base + [(v, t.n)])
            code = canonical_code(t2)
            if code not in seen:
                seen[code] = t2
    return tuple(seen[c] for c in sorted(seen))


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by attaching a leaf at one vertex per automorphism orbit
    (vertices sharing a whole-tree rooted code) and deduplicating by
    canonical code.  Deterministic: result sorted by code.  Levels are
    memoised, so calling this for n = 1, 2, ..., N builds each level once.
    """
    if n < 1:
        raise ValueError("tree enumeration needs n >= 1")
    if n > TREE_ENUM_LIMIT:
        raise ResourceLimitError(f"tree enumeration capped at {TREE_ENUM_LIMIT} vertices")
    return list(_tree_level(n))


def automorphism_group(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """Generators of Aut(g), as image tuples, and |Aut(g)|, from the
    search that also gives the canonical code."""
    _, gens, size, _ = _search(g.masks)
    return gens, size


def _subset_orbit_minima(n: int, gens: Sequence[tuple[int, ...]]) -> list[int]:
    """The least mask in each orbit of <gens> on the subsets of 0..n-1,
    in increasing order."""
    size = 1 << n
    if not gens:
        return list(range(size))
    images = []
    for sigma in gens:
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | (1 << sigma[low.bit_length() - 1])
        images.append(img)
    seen = bytearray(size)
    minima = []
    for s in range(size):
        if seen[s]:
            continue
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for img in images:
                u = img[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return minima


def _canonical_child(masks: tuple[int, ...]) -> tuple | None:
    """The `_search` of the graph `masks` when its last vertex v lies on the
    canonical construction path, else None.

    v must carry the largest invariant (degree, then the sorted neighbour
    degrees, computed only for vertices tied on the top degree).  When v
    alone does, it passes with no orbit test; otherwise v must lie in the
    Aut-orbit of the first largest-invariant vertex of the best leaf's
    order.  That orbit depends only on the isomorphism class, so each
    class passes from exactly one parent and one Aut(parent)-orbit of
    neighbourhoods.
    """
    v = len(masks) - 1
    degree = [m.bit_count() for m in masks]
    top = max(degree)
    if degree[v] < top:
        return None
    tied = [u for u in range(v + 1) if degree[u] == top]
    if len(tied) > 1:
        invariant = {u: sorted(degree[w] for w in _mask_bits(masks[u])) for u in tied}
        best = max(invariant.values())
        if invariant[v] < best:
            return None
        tied = [u for u in tied if invariant[u] == best]
    found = _search(masks)
    if len(tied) > 1:
        _, gens, _, order = found
        m = next(u for u in order if u in tied)
        if not (_orbit(m, gens) >> v) & 1:
            return None
    return found


@cache
def _graph_level(n: int) -> tuple[tuple[Graph, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """Level n of the graph catalog: every class once, in canonical form,
    sorted by canonical code, and beside each graph generators of its
    automorphism group, which level n+1 reads (none at the cap, where no
    level does).  Grown once per process from the memoised level n-1."""
    if n == 1:
        return (Graph(1),), ((),)
    v = n - 1
    kept = []
    for g, gens in zip(*_graph_level(v)):
        top = max(m.bit_count() for m in g.masks)
        for sub in _subset_orbit_minima(v, gens):
            if sub.bit_count() < top:
                continue        # a vertex of g has a larger degree than v
            masks = tuple(m | ((sub >> i) & 1) << v for i, m in enumerate(g.masks)) + (sub,)
            found = _canonical_child(masks)
            if found is None:
                continue
            bits, child_gens, _, order = found
            label = [0] * n
            for i, u in enumerate(order):
                label[u] = i
            h = _from_masks(tuple(sum(1 << label[w] for w in _mask_bits(masks[u])) for u in order))
            code = _forest_code(h) if is_forest(h) else _general_code(n, bits)   # canonical_code(h)
            if n == GRAPH_ENUM_LIMIT:
                child_gens = []     # no level reads them
            kept.append((code, h, tuple(tuple(label[p[u]] for u in order) for p in child_gens)))
    _, graphs, generators = zip(*sorted(kept, key=itemgetter(0)))
    return graphs, generators


def enumerate_graphs(n: int, connected: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices,
    each in canonical form (relabelled by its best search leaf), sorted
    by canonical code.

    Canonical construction path: every class on n vertices arises from
    some class on n-1 vertices by attaching a new vertex v.  Each parent g
    is extended by the least neighbourhood mask of every Aut(g)-orbit of
    the 2^(n-1) subsets, and a child is kept iff v has the largest
    invariant (degree, then sorted neighbour degrees) and lies in the
    Aut-orbit of the first such vertex in the child's best leaf order.
    Levels are memoised, so calling this for n = 1, 2, ..., N builds the
    catalog up to N once.  Capped at 8 vertices; larger corpora are meant
    to be ingested from graph6 streams.
    """
    if n < 1:
        raise ValueError("graph enumeration needs n >= 1")
    if n > GRAPH_ENUM_LIMIT:
        raise ResourceLimitError(
            f"graph enumeration capped at {GRAPH_ENUM_LIMIT} vertices; "
            "ingest a graph6 stream for larger orders"
        )
    level = list(_graph_level(n)[0])
    if connected:
        return [g for g in level if is_connected(g)]
    return level
