"""Simple undirected graphs on vertex set 0..n-1.

A graph stores only its order ``n`` and one neighbour bitmask per vertex
(``masks[v]`` has bit w set iff vw is an edge); every predicate, the
pivot engine and the canonical search work on these masks.  Construction
rejects self-loops and out-of-range ids, and a duplicate edge collapses
because setting a bit twice changes nothing.  ``adj``, the sorted
neighbour tuples, is derived from the masks on demand.

Labeling conventions (frozen so golden outputs are stable):

* ``path_graph(n)``: 0-1-...-(n-1).
* ``cycle_graph(n)``: path plus the edge (n-1, 0).
* ``star_graph(n)``: center 0, leaves 1..n.
* ``complete_multipartite_graph(sizes)``: parts are consecutive blocks.
* ``corona(g)``: the pendant mate of vertex i is n + i.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import GraphParseError, ResourceLimitError

ALPHA_LIMIT = 40          # branch-and-bound stability number
WELL_COVERED_LIMIT = 24   # maximal-stable-set enumeration
GRAPH6_LIMIT = 62         # graph6 short form


class Graph:
    """Immutable simple graph on 0..n-1; ``masks[v]`` is the neighbour
    bitmask of v, and ``adj`` derives the sorted neighbour tuples."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)

    # -- structure ----------------------------------------------------------

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_mask_bits(m)) for m in self.masks)

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, m in enumerate(self.masks):
            for v in _mask_bits(m >> u + 1):
                yield (u, u + 1 + v)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.masks[u] >> v) & 1)

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"


def _from_masks(masks: tuple[int, ...]) -> Graph:
    """The graph with neighbour masks `masks`, which must be symmetric and
    loop-free, without the edge-list round trip of `Graph(n, edges)`."""
    g = Graph.__new__(Graph)
    g.n, g.masks = len(masks), masks
    return g


# -- text formats -------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (short form, n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    if not s.isascii():
        off = next(i for i, ch in enumerate(s) if not ch.isascii())
        raise GraphParseError(f"non-ASCII character at offset {off}")
    data = s.encode("ascii")
    for off, b in enumerate(data):
        if not (63 <= b <= 126):
            raise GraphParseError(f"byte {b} out of range 63..126 at offset {off}")
    if data[0] == 126:
        raise GraphParseError("long-form length header at offset 0 (only n <= 62 supported)")
    n = data[0] - 63
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - 1 < need_bytes:
        raise GraphParseError(
            f"truncated: need {need_bytes} edge bytes for n={n}, got {len(data) - 1}"
        )
    if len(data) - 1 > need_bytes:
        raise GraphParseError(f"trailing garbage at offset {1 + need_bytes}")
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[1 + bit // 6] - 63
            if (byte >> (5 - bit % 6)) & 1:
                edges.append((i, j))
            bit += 1
    # remaining pad bits must be zero
    while bit < 6 * need_bytes:
        byte = data[1 + bit // 6] - 63
        if (byte >> (5 - bit % 6)) & 1:
            raise GraphParseError(f"nonzero padding bit at offset {1 + bit // 6}")
        bit += 1
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode as canonical short-form graph6 (requires n <= 62)."""
    if g.n > GRAPH6_LIMIT:
        raise ValueError(f"graph6 short form supports at most {GRAPH6_LIMIT} vertices")
    out = [g.n + 63]
    acc = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.masks[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def read_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """One graph per non-blank line; standard ``>>graph6<<`` headers allowed."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_graph6(line)


# A stream's graph (Graph) or graph6 line (str), named "line N" or "item i"
# in errors.
StreamItem = namedtuple("StreamItem", "label graph")


def label_items(items: Iterable) -> Iterator[StreamItem]:
    """Name each item by its stream position unless it is a StreamItem."""
    for idx, item in enumerate(items):
        yield item if isinstance(item, StreamItem) else StreamItem(f"item {idx}", item)


def item_graph(item: StreamItem) -> tuple[str, Graph]:
    """Graph6 text (header dropped) and Graph of an item; parse errors name it."""
    if isinstance(item.graph, Graph):
        return encode_graph6(item.graph), item.graph
    text = item.graph.strip().removeprefix(">>graph6<<")
    try:
        return text, parse_graph6(text)
    except GraphParseError as exc:
        raise GraphParseError(f"{item.label}: {exc}") from None


def parse_edge_list(text: str) -> Graph:
    """First meaningful line is n, then one ``u v`` pair per line.

    Blank lines and '#' comments are ignored; duplicate edges collapse.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if n is None:
            if len(toks) != 1:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(toks[0])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {toks[0]!r}") from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            continue
        if len(toks) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        edges.append((u, v))
    if n is None:
        raise GraphParseError("no vertex count line found")
    return Graph(n, edges)


# -- families -----------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """K_{1,n} with center 0."""
    if n < 1:
        raise ValueError("star needs n >= 1 leaves")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ValueError("multipartite needs p >= 1 parts of size >= 1")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for p in range(len(sizes)):
        for q in range(p + 1, len(sizes)):
            for u in range(bounds[p], bounds[p + 1]):
                for v in range(bounds[q], bounds[q + 1]):
                    edges.append((u, v))
    return Graph(n, edges)


def corona(g: Graph) -> Graph:
    """Append one pendant neighbor to every vertex; mate of i is n + i."""
    n = g.n
    edges = list(g.edges()) + [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def spider_graph(n: int) -> Graph:
    """corona(K_{1,n}) for n >= 2; 2(n+1) vertices, center 0, its mate n+1."""
    if n < 2:
        raise ValueError("spider needs n >= 2 (K_1, K_2, P_4 are the degenerate cases)")
    return corona(star_graph(n))


def centipede_graph(n: int) -> Graph:
    """corona(P_n)."""
    if n < 1:
        raise ValueError("centipede needs n >= 1")
    return corona(path_graph(n))


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _from_masks(tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.masks)))


# -- connectivity and cycles --------------------------------------------------


def _component_masks(masks: Sequence[int], mask: int) -> list[int]:
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                grow |= masks[b.bit_length() - 1]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    full = (1 << g.n) - 1
    return [_mask_bits(m) for m in _component_masks(g.masks, full)]


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    full = (1 << g.n) - 1
    return len(_component_masks(g.masks, full)) == 1


def is_forest(g: Graph) -> bool:
    edges = g.num_edges
    # a forest on n >= 1 vertices has at most n - 1 edges; the empty graph
    # (0 == 0 - 0) is one
    if g.n and edges >= g.n:
        return False
    full = (1 << g.n) - 1
    return edges == g.n - len(_component_masks(g.masks, full))


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.num_edges == g.n - 1


def girth(g: Graph):
    """Length of a shortest cycle; math.inf for forests."""
    best = math.inf
    nbrs = list(map(_mask_bits, g.masks))
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                if 2 * dist[u] >= best:
                    continue
                for w in nbrs[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
    return best


# -- pendant structure --------------------------------------------------------


def pendant_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges incident to a degree-1 vertex (each edge listed once)."""
    return [(u, v) for u, v in g.edges() if g.degree(u) == 1 or g.degree(v) == 1]


def pendant_edges_form_perfect_matching(g: Graph) -> bool:
    seen = 0
    for u, v in pendant_edges(g):
        pair = (1 << u) | (1 << v)
        if seen & pair:
            return False
        seen |= pair
    return seen == (1 << g.n) - 1 and g.n > 0


# -- stable sets --------------------------------------------------------------


def alpha(g: Graph) -> int:
    """Exact stability number via branch and bound.

    Pivot is the maximum-degree available vertex (lowest id on ties);
    the bound is a greedy clique cover of the available vertices.
    """
    if g.n > ALPHA_LIMIT:
        raise ResourceLimitError(f"alpha: {g.n} vertices exceeds limit {ALPHA_LIMIT}")
    masks = g.masks
    best = 0

    def cover_bound(avail: int) -> int:
        cliques = 0
        rest = avail
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            members = b
            cand = rest & masks[v]
            while cand:
                cb = cand & -cand
                w = cb.bit_length() - 1
                members |= cb
                cand &= masks[w]
            rest &= ~members
            cliques += 1
        return cliques

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if not avail:
            if size > best:
                best = size
            return
        if size + cover_bound(avail) <= best:
            return
        # max-degree pivot, lowest id on ties
        pivot, pdeg = -1, -1
        scan = avail
        while scan:
            b = scan & -scan
            v = b.bit_length() - 1
            scan ^= b
            d = (masks[v] & avail).bit_count()
            if d > pdeg:
                pivot, pdeg = v, d
        rec(avail & ~(masks[pivot] | (1 << pivot)), size + 1)
        rec(avail & ~(1 << pivot), size)

    rec((1 << g.n) - 1, 0)
    del rec         # its closure refers to itself: break the cycle now
    return best


def maximal_stable_sets(g: Graph) -> Iterator[int]:
    """Yield every maximal stable set as a bitmask (Bron-Kerbosch with pivot
    on the complement adjacency)."""
    if g.n > WELL_COVERED_LIMIT:
        raise ResourceLimitError(
            f"maximal stable sets: {g.n} vertices exceeds limit {WELL_COVERED_LIMIT}"
        )
    full = (1 << g.n) - 1
    nonadj = [full & ~m & ~(1 << v) for v, m in enumerate(g.masks)]

    def bk(r: int, p: int, x: int) -> Iterator[int]:
        if not p and not x:
            yield r
            return
        # pivot maximizing |P ∩ nonadj(u)|
        pool = p | x
        pivot, best_cnt = -1, -1
        scan = pool
        while scan:
            b = scan & -scan
            u = b.bit_length() - 1
            scan ^= b
            cnt = (p & nonadj[u]).bit_count()
            if cnt > best_cnt:
                pivot, best_cnt = u, cnt
        cand = p & ~nonadj[pivot]
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            yield from bk(r | b, p & nonadj[v], x & nonadj[v])
            p &= ~b
            x |= b

    try:
        yield from bk(0, full, 0)
    finally:
        del bk      # its closure refers to itself; callers may stop early


def is_well_covered(g: Graph) -> bool:
    """True iff every maximal stable set has the same cardinality."""
    size = None
    for s in maximal_stable_sets(g):
        k = s.bit_count()
        if size is None:
            size = k
        elif k != size:
            return False
    return True


def is_very_well_covered(g: Graph) -> bool:
    if g.n == 0 or not all(g.masks):
        return False
    if not is_well_covered(g):
        return False
    return g.n == 2 * alpha(g)


def is_claw_free(g: Graph) -> bool:
    """True iff no induced K_{1,3}."""
    masks = g.masks
    for nbmask in masks:
        nb = _mask_bits(nbmask)
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if (masks[a] >> b) & 1:
                    continue
                if nbmask & ~masks[a] & ~masks[b] & ~(1 << a) & ~(1 << b):
                    return False
    return True


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,k} for some k >= 1."""
    if g.n < 2 or g.num_edges != g.n - 1:
        return False
    degs = sorted(m.bit_count() for m in g.masks)
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])
