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
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import combinations, tee

from .errors import GraphParseError, ResourceLimitError

# Maximal-stable-set enumeration.  It stays below VERTEX_LIMIT: a budgeted
# branch and bound on masks (no component split, no simplex rule) for a
# maximal stable set smaller than deg I(G) took at most 0.6 ms on 64-vertex
# paths, cycles, stars, K_64, K(8x8), trees, G(64, p) and near-coronas, but
# 6.1 s on P_32's corona less one leaf, and over 20 s on 9 C_7 and on the
# triangle-coronas of 21-vertex paths, trees and G(21, 0.2).
WELL_COVERED_LIMIT = 24
VERTEX_LIMIT = 64   # no Graph has more vertices: the engine, DP and codes check none


def check_order(n: int) -> None:
    """Refuse a vertex count over VERTEX_LIMIT before any work on it."""
    if n > VERTEX_LIMIT:
        raise ResourceLimitError(f"graph: {n} vertices exceeds limit {VERTEX_LIMIT}")


class Graph:
    """Immutable simple graph on 0..n-1, n <= VERTEX_LIMIT checked before
    any edge is read; ``masks[v]`` is the neighbour bitmask of v, and
    ``adj`` derives the sorted neighbour tuples."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        check_order(n)
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
        return sum(map(int.bit_count, self.masks)) // 2

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
    loop-free, without the edge-list round trip of `Graph(n, edges)`; it
    has the constructor's cap."""
    check_order(len(masks))
    g = Graph.__new__(Graph)
    g.n, g.masks = len(masks), masks
    return g


# -- text formats -------------------------------------------------------------


_GRAPH6_BYTES = bytes(range(63, 127))
# graph6 byte -> its 6 bits, last bit first
_SIX_BITS_REVERSED = {c: format(c - 63, "06b")[::-1] for c in _GRAPH6_BYTES}


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string.

    The order is one byte, n + 63, for n <= 62, else byte 126 and n in 18
    bits, big-endian, over three bytes; a long header for n <= 62 (not
    canonical) and the 8-byte header of n >= 258048 are refused.  The edge
    bytes are read as one int whose bit k is graph6 bit k: bit k of the
    upper triangle in column order (column j is bits j(j-1)/2 ..
    j(j+1)/2 - 1, row 0 first).  Column j's bits are then the mask of j's
    neighbours below j, and the bits from n(n-1)/2 up are the padding,
    which must be zero.  The vertex cap is checked by `_from_masks`, after
    the length checks, so a malformed line stays a GraphParseError."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    if not s.isascii():
        off = next(i for i, ch in enumerate(s) if not ch.isascii())
        raise GraphParseError(f"non-ASCII character at offset {off}")
    data = s.encode("ascii")
    if data.translate(None, _GRAPH6_BYTES):     # some byte is out of range
        off, b = next((off, b) for off, b in enumerate(data) if not 63 <= b <= 126)
        raise GraphParseError(f"byte {b} out of range 63..126 at offset {off}")
    n, head = data[0] - 63, 1
    if n == 63:     # byte 126: a long header
        if data[1:2] == b"~":
            raise GraphParseError("8-byte length header at offset 0 (n >= 258048 not supported)")
        if len(data) < 4:
            raise GraphParseError("truncated length header at offset 0")
        n, head = (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63, 4
        if n < 63:
            raise GraphParseError(f"long-form length header for n={n} at offset 0 (not canonical)")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - head < need_bytes:
        raise GraphParseError(
            f"truncated: need {need_bytes} edge bytes for n={n}, got {len(data) - head}"
        )
    if len(data) - head > need_bytes:
        raise GraphParseError(f"trailing garbage at offset {head + need_bytes}")
    # the edge bytes last to first, each byte's bits reversed: the whole
    # graph6 bit string reversed, so one int(..., 2) puts bit k at k; a
    # line of order 0 or 1 has no edge bytes
    bits = int("".join(map(_SIX_BITS_REVERSED.__getitem__, data[:head - 1:-1])) or "0", 2)
    if bits >> need_bits:       # the padding, under 6 bits, is all in the last byte
        raise GraphParseError(f"nonzero padding bit at offset {head + need_bytes - 1}")
    masks = [0] * n
    for j in range(1, n):
        below = bits & ((1 << j) - 1)
        bits >>= j
        masks[j] = below
        bit_j = 1 << j
        while below:
            b = below & -below
            below ^= b
            masks[b.bit_length() - 1] |= bit_j
    return _from_masks(tuple(masks))


def encode_graph6(g: Graph) -> str:
    """Encode as canonical graph6: the one-byte order for n <= 62, else
    byte 126 and n in 18 bits, which holds every order a Graph has."""
    n = g.n
    out = [n + 63] if n < 63 else [126] + [63 + (n >> s & 63) for s in (12, 6, 0)]
    acc = 0
    filled = 0
    for j in range(1, n):
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
# in errors; per-item work parses it (item_parse), and only a fold that
# prints it names it in graph6 (item_graph6).
StreamItem = namedtuple("StreamItem", "label graph")


def map_items(
    fn: Callable, items: Iterable, mapper: Callable[..., Iterable] = map
) -> Iterator[tuple[StreamItem, object]]:
    """(item, fn(item)) for each stream item, in stream order.  An item that
    is not a StreamItem is named by its position; `mapper` is the builtin
    map or any ordered parallel map of the same results."""
    labelled, todo = tee(
        item if isinstance(item, StreamItem) else StreamItem(f"item {idx}", item)
        for idx, item in enumerate(items)
    )
    # the map first: it ends the pairing, so a forked map runs to its end
    for verdict, item in zip(mapper(fn, todo), labelled):
        yield item, verdict


def item_graph6(graph: Graph | str) -> str:
    """Graph6 text of an item's graph: a Graph is encoded, a line loses its
    whitespace and ``>>graph6<<`` header, which leaves a parsed line's
    encoding (graph6 is unique: a long header for n <= 62 and nonzero
    padding are rejected)."""
    if isinstance(graph, Graph):
        return encode_graph6(graph)
    return graph.strip().removeprefix(">>graph6<<")


def item_parse(item: StreamItem) -> Graph:
    """The Graph of an item; a line's parse errors name it."""
    if isinstance(item.graph, Graph):
        return item.graph
    try:
        return parse_graph6(item.graph)
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
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """K_{1,n} with center 0."""
    if n < 1:
        raise ValueError("star needs n >= 1 leaves")
    return Graph(n + 1, ((0, i) for i in range(1, n + 1)))


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ValueError("multipartite needs p >= 1 parts of size >= 1")
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return Graph(start, ((u, v) for p, q in combinations(parts, 2) for u in p for v in q))


def corona(g: Graph) -> Graph:
    """Append one pendant neighbor to every vertex; mate of i is n + i."""
    n = g.n
    return _from_masks(
        tuple(m | 1 << n + i for i, m in enumerate(g.masks)) + tuple(1 << i for i in range(n))
    )


def spider_graph(n: int) -> Graph:
    """corona(K_{1,n}) for n >= 2; 2(n+1) vertices, center 0, its mate n+1."""
    if n < 2:
        raise ValueError("spider needs n >= 2 (K_1, K_2, P_4 are the degenerate cases)")
    check_order(2 * (n + 1))    # the spider's order, not its star's
    return corona(star_graph(n))


def centipede_graph(n: int) -> Graph:
    """corona(P_n)."""
    if n < 1:
        raise ValueError("centipede needs n >= 1")
    check_order(2 * n)
    return corona(path_graph(n))


def disjoint_union(*graphs: Graph) -> Graph:
    masks = []
    for g in graphs:
        offset = len(masks)
        masks.extend(m << offset for m in g.masks)
    return _from_masks(tuple(masks))


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
    """Whether the pendant edges form a perfect matching.  Such a graph
    has n even and at least n/2 vertices of degree 1, which is checked
    first.  A maximal stable set of it takes exactly one end of each
    pendant edge, so it is well-covered with alpha = n/2."""
    n = g.n
    if n % 2 or 2 * sum(m.bit_count() == 1 for m in g.masks) < n:
        return False
    seen = 0
    for u, v in pendant_edges(g):
        pair = (1 << u) | (1 << v)
        if seen & pair:
            return False
        seen |= pair
    return seen == (1 << n) - 1 and n > 0


# -- stable sets --------------------------------------------------------------


def alpha(g: Graph) -> int:
    """The stability number, read as deg I(G) from the pivot engine, which
    takes every Graph (at most VERTEX_LIMIT, 64 vertices)."""
    from .indpoly import independence_polynomial  # indpoly imports this module

    return independence_polynomial(g).degree


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
    """True iff every maximal stable set has the same cardinality.

    A graph whose pendant edges form a perfect matching, such as every
    corona G*, is well-covered up to the cap.  Any other graph has its
    maximal stable sets enumerated, up to WELL_COVERED_LIMIT vertices."""
    if pendant_edges_form_perfect_matching(g):
        return True
    size = None
    for s in maximal_stable_sets(g):
        k = s.bit_count()
        if size is None:
            size = k
        elif k != size:
            return False
    return True


def is_very_well_covered(g: Graph) -> bool:
    """True iff g has no isolated vertex, is well-covered and has
    alpha = n/2, as has every graph whose pendant edges form a perfect
    matching, up to the cap and with no engine call."""
    if g.n == 0 or not all(g.masks):
        return False
    if pendant_edges_form_perfect_matching(g):
        return True
    return is_well_covered(g) and g.n == 2 * alpha(g)


def is_claw_free(g: Graph) -> bool:
    """True iff no induced K_{1,3}: no vertex has neighbours a < b < c
    that are pairwise non-adjacent.  For each neighbour a, b runs over the
    later neighbours not adjacent to a, and c over those after b."""
    masks = g.masks
    for nb in masks:
        while nb:
            low = nb & -nb
            nb ^= low
            free = nb & ~masks[low.bit_length() - 1]
            while free:
                low = free & -free
                free ^= low
                if free & ~masks[low.bit_length() - 1]:
                    return False
    return True


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,k} for some k >= 1."""
    if g.n < 2 or g.num_edges != g.n - 1:
        return False
    degs = sorted(m.bit_count() for m in g.masks)
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])
