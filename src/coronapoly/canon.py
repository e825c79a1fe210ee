"""Canonical codes and exhaustive catalogs of small graphs.

Two graphs receive equal codes iff they are isomorphic.  Forests (any
size up to 64 vertices) are encoded by the classic rooted-at-center
parenthesis string; general graphs are encoded by the minimum adjacency
bit matrix over all vertex orderings, restricted (soundly) to orderings
that sort an iterated-refinement coloring, with branch-and-bound on the
bit prefix.  General graphs are capped at 10 vertices; every claim that
needs isomorphism verdicts at larger orders concerns forests only.

The catalogs (`enumerate_trees`, `enumerate_graphs`) produce exactly one
representative per isomorphism class via canonical augmentation.  The
graph catalog grows its levels 1, 2, ..., n in one pass per process, each
level memoised, so asking for every order up to n builds each level once.
A parent graph g is extended by a new vertex with one neighbourhood per
orbit of Aut(g) on the subsets of V(g) (orbit pruning in the sense of
McKay & Piperno, *Practical graph isomorphism II*, JSC 2014): a skipped
subset gives a graph isomorphic to one coded earlier from the same
parent, so every level, and the representative kept for each class, is
what coding all 2^|V(g)| subsets would give.
"""

from __future__ import annotations

from functools import cache

from .errors import ResourceLimitError
from .graphs import Graph, connected_components, is_connected, is_forest

CANONICAL_LIMIT = 10    # general graphs: brute-force minimum code
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


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighborhood refinement, normalized to ranks 0..k-1."""
    colors = [len(a) for a in g.adj]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(g.n)]
        if new == colors:
            return colors
        colors = new


def _min_code_int(g: Graph, colors: list[int]) -> int:
    """Minimum lower-triangle adjacency bit string over color-sorted orderings."""
    n = g.n
    req = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    total_bits = n * (n - 1) // 2
    masks = g.masks
    best: int | None = None
    perm: list[int] = []
    used = [False] * n

    def dfs(pos: int, cur: int, nbits: int) -> None:
        nonlocal best
        if pos == n:
            if best is None or cur < best:
                best = cur
            return
        for v in by_color[req[pos]]:
            if used[v]:
                continue
            vm = masks[v]
            row = 0
            for u in perm:
                row = (row << 1) | ((vm >> u) & 1)
            ncur = (cur << pos) | row
            nb = nbits + pos
            if best is not None and ncur > (best >> (total_bits - nb)):
                continue
            used[v] = True
            perm.append(v)
            dfs(pos + 1, ncur, nb)
            perm.pop()
            used[v] = False

    dfs(0, 0, 0)
    assert best is not None
    return best


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
    bits = _min_code_int(g, _refined_colors(g))
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
    if not (1 <= n <= TREE_ENUM_LIMIT):
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_ENUM_LIMIT}")
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
    """A strong generating set of Aut(g), as image tuples, and |Aut(g)|.

    Sims' scheme over the base 0, 1, ..., n-1: going from the last base
    point i down to the first, one automorphism fixing 0..i-1 is searched
    for each image of i that the generators found so far do not already
    reach.  The order is the product of those orbit lengths.  The search
    maps each vertex only into its `_refined_colors` class.
    """
    n = g.n
    colors = _refined_colors(g)
    gens: list[tuple[int, ...]] = []
    order = 1
    for i in reversed(range(n)):
        orbit = {i}
        for v in range(i + 1, n):
            if v in orbit or colors[v] != colors[i]:
                continue
            sigma = _find_automorphism(g.masks, colors, list(range(i)) + [v])
            if sigma is not None:
                gens.append(sigma)
                orbit = _point_orbit(i, gens)
        order *= len(orbit)
    return gens, order


def _find_automorphism(
    masks: tuple[int, ...], colors: list[int], forced: list[int]
) -> tuple[int, ...] | None:
    """An automorphism mapping u to forced[u] for every u < len(forced)."""
    n = len(masks)
    perm = [0] * n

    def place(u: int, used: int) -> bool:
        if u == n:
            return True
        want = 0    # images of u's neighbours among 0..u-1
        for x in range(u):
            if (masks[u] >> x) & 1:
                want |= 1 << perm[x]
        for w in (forced[u],) if u < len(forced) else range(n):
            if (used >> w) & 1 or colors[w] != colors[u] or masks[w] & used != want:
                continue
            perm[u] = w
            if place(u + 1, used | (1 << w)):
                return True
        return False

    return tuple(perm) if place(0, 0) else None


def _point_orbit(point: int, gens: list[tuple[int, ...]]) -> set[int]:
    orbit = {point}
    stack = [point]
    while stack:
        v = stack.pop()
        for sigma in gens:
            w = sigma[v]
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


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
