"""Canonical codes, automorphism groups and exhaustive catalogs of small
graphs.

Two graphs receive equal codes iff they are isomorphic.  Forests (any
size up to 64 vertices) are encoded by the classic rooted-at-center
parenthesis string.  General graphs, up to 30 vertices, get the least
adjacency bit string over the leaves of one individualization-refinement
search (McKay, *Practical graph isomorphism*, 1981; McKay & Piperno,
JSC 2014), which also yields generators and the order of Aut(g).

The catalogs (`enumerate_trees`, `enumerate_graphs`) produce exactly one
representative per isomorphism class via canonical augmentation.  The
graph catalog grows its levels 1, 2, ..., n in one pass per process, each
level memoised, so asking for every order up to n builds each level once.
A parent graph g is extended by a new vertex with one neighbourhood per
orbit of Aut(g) on the subsets of V(g): a skipped subset gives a graph
isomorphic to one coded earlier from the same parent, so every level, and
the representative kept for each class, is what coding all 2^|V(g)|
subsets would give.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .errors import ResourceLimitError
from .graphs import Graph, connected_components, is_connected, is_forest

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


def _rooted_code(g: Graph, root: int) -> str:
    def rec(v: int, parent: int) -> str:
        subs = sorted(rec(w, v) for w in g.adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return rec(root, -1)


def _tree_centers(g: Graph, comp: list[int]) -> list[int]:
    if len(comp) <= 2:
        return comp
    deg = {v: len(g.adj[v]) for v in comp}
    layer = [v for v in comp if deg[v] == 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in g.adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return layer


def _forest_code(g: Graph) -> bytes:
    comps = connected_components(g)
    codes = sorted(
        min(_rooted_code(g, c) for c in _tree_centers(g, comp)) for comp in comps
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


def _search(g: Graph) -> tuple[int, list[tuple[int, ...]], int]:
    """The code bits, generators of Aut(g) and |Aut(g)|, from one
    individualization-refinement search.

    A node is an equitable ordered partition.  Its children individualize
    each vertex of its first smallest non-singleton cell, save those that
    an automorphism fixing the node's individualized vertices maps onto an
    explored sibling.  A leaf's certificate is the lower-triangle adjacency
    bit string in its vertex order; the code is the least one.  A leaf
    matching the first or the best leaf gives an automorphism, and a first
    leaf match resumes at the deepest first-path node above it.  |Aut(g)|
    is the product, over first-path nodes, of the first child's orbit.
    """
    n = g.n
    masks = g.masks
    gens: list[tuple[list[int], int]] = []      # (images, fixed-point mask)
    first_path: list[tuple[int, int]] = []       # (individualized mask, first child)
    first = best = None                          # (certificate, order) of a leaf

    def orbit(v: int, fixed: int) -> int:
        group = [p for p, f in gens if f & fixed == fixed]
        seen, stack = 1 << v, [v]
        while stack:
            u = stack.pop()
            for p in group:
                if not (seen >> p[u]) & 1:
                    seen |= 1 << p[u]
                    stack.append(p[u])
        return seen

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
    order = prod(orbit(v, fixed).bit_count() for fixed, v in first_path)
    return best[0], [tuple(p) for p, _ in gens], order


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
    bits = _search(g)[0]
    width = (g.n * (g.n - 1) // 2 + 7) // 8
    return b"G" + bytes([g.n]) + bits.to_bytes(width, "big")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    return canonical_code(g) == canonical_code(h)


# -- catalogs -------------------------------------------------------------


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by attaching a leaf at one vertex per automorphism orbit
    (vertices sharing a whole-tree rooted code) and deduplicating by
    canonical code.  Deterministic: result sorted by code.
    """
    if n < 1:
        raise ValueError("tree enumeration needs n >= 1")
    if n > TREE_ENUM_LIMIT:
        raise ResourceLimitError(f"tree enumeration capped at {TREE_ENUM_LIMIT} vertices")
    level = [Graph(1)]
    for size in range(2, n + 1):
        seen: dict[bytes, Graph] = {}
        for t in level:
            orbit_reps: dict[str, int] = {}
            for v in range(t.n):
                rc = _rooted_code(t, v)
                if rc not in orbit_reps:
                    orbit_reps[rc] = v
            for v in orbit_reps.values():
                t2 = Graph(t.n + 1, list(t.edges()) + [(v, t.n)])
                code = canonical_code(t2)
                if code not in seen:
                    seen[code] = t2
        level = [seen[c] for c in sorted(seen)]
    return level


def automorphism_group(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """Generators of Aut(g), as image tuples, and |Aut(g)|, from the
    search that also gives the canonical code."""
    _, gens, order = _search(g)
    return gens, order


def _subset_orbit_minima(n: int, gens: list[tuple[int, ...]]) -> list[int]:
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


@cache
def _graph_level(n: int) -> tuple[Graph, ...]:
    """Level n of the graph catalog, sorted by canonical code, grown once
    per process from the memoised level n-1."""
    if n == 1:
        return (Graph(1),)
    seen: dict[bytes, Graph] = {}
    for g in _graph_level(n - 1):
        base = list(g.edges())
        gens, _ = automorphism_group(g)
        for sub in _subset_orbit_minima(g.n, gens):
            extra = [(i, g.n) for i in range(g.n) if (sub >> i) & 1]
            cand = Graph(g.n + 1, base + extra)
            code = canonical_code(cand)
            if code not in seen:
                seen[code] = cand
    return tuple(seen[c] for c in sorted(seen))


def enumerate_graphs(n: int, connected: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices,
    sorted by canonical code.

    Canonical augmentation: every class on n vertices arises from some
    class on n-1 vertices by attaching a new vertex.  Each parent g is
    extended by the least neighbourhood mask of every Aut(g)-orbit of the
    2^(n-1) subsets, and the first candidate seen with each code is kept.
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
    level = _graph_level(n)
    if connected:
        return [g for g in level if is_connected(g)]
    return list(level)
