"""Canonical codes, automorphism groups and exhaustive catalogs of small
graphs.

Two graphs receive equal codes iff they are isomorphic, at every order a
Graph has (up to VERTEX_LIMIT, 64 vertices).  Forests are encoded by the
classic rooted-at-center parenthesis string.  Other graphs get the least
adjacency bit string over the leaves of one individualization-refinement
search (McKay, *Practical graph isomorphism*, 1981; McKay & Piperno,
JSC 2014), which also yields generators and the order of Aut(g).

The catalogs (`enumerate_trees`, `enumerate_graphs`) produce exactly one
representative per isomorphism class, each level memoised, so asking for
every order up to n builds each level once; a request for the connected
graphs on n vertices builds level n connected only, over the full levels
below it.  The tree catalog attaches a leaf at every vertex and keeps the
first tree seen with each forest code.  The graph catalog follows
McKay's canonical construction path (*Isomorph-free exhaustive
generation*, J. Algorithms 26, 1998; nauty's `geng`): a parent g is
extended by a new vertex v with one neighbourhood per orbit of Aut(g) on
the subsets of V(g), and a child is kept iff v lies in the Aut-orbit of
a vertex chosen from the child's isomorphism class alone.  No codes are
compared.  The parent's degrees decide most neighbourhoods outright; a
child whose v ties another vertex on degree has its neighbour degrees
compared, and it is searched only when v ties on those too.  A level
comes out in generation order, each child kept as generated; the
generators of a level's automorphism groups are found only when the next
level is built, one search per graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import prod

from .errors import ResourceLimitError
from .graphs import Graph, _component_masks, _from_masks, _mask_bits

GRAPH_ENUM_LIMIT = 8
TREE_ENUM_LIMIT = 16

# Known counts used as self-checks by the test-suite.
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320}
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


# -- forest codes ---------------------------------------------------------


def _forest_code(g: Graph) -> bytes | None:
    """Each tree's parenthesis code rooted at its center, from one
    leaf-peeling pass over the masks, or None if g has a cycle.  Vertices
    are peeled in layers of current leaves, and a vertex's rooted code is
    built when it is peeled, from the sorted codes of its neighbours peeled
    before it; a vertex with none is "()".  A tree's last layer is its
    center, alone, or two adjacent centers, and then the smaller of the
    codes rooted at either is kept.  A vertex on a cycle keeps two
    unpeeled neighbours, so the peel stops short of n vertices exactly
    when g is not a forest."""
    left = list(g.masks)        # each vertex's neighbours not yet peeled
    subs: list[list[str] | None] = [None] * g.n     # codes of those peeled so far
    trees = []
    peeled = 0
    layer = [v for v, m in enumerate(left) if not m & (m - 1)]
    while layer:
        peeled += len(layer)
        todo = 0
        for v in layer:
            todo |= 1 << v
        nxt = []
        for v in layer:
            if not todo >> v & 1:
                continue        # the other center of a pair already closed
            below = subs[v]
            if below is None:
                code = "()"
            else:
                below.sort()
                code = "(" + "".join(below) + ")"
            if not left[v]:
                trees.append(code)
                continue
            w = left[v].bit_length() - 1
            if todo >> w & 1:   # two adjacent centers
                todo ^= 1 << w
                other = subs[w] or []
                other.sort()
                trees.append(min(
                    "(" + "".join(sorted((below or []) + ["(" + "".join(other) + ")"])) + ")",
                    "(" + "".join(sorted(other + [code])) + ")",
                ))
                continue
            if subs[w] is None:
                subs[w] = [code]
            else:
                subs[w].append(code)
            left[w] ^= 1 << v
            if left[w] and not left[w] & (left[w] - 1):
                nxt.append(w)       # w is now a leaf
        layer = nxt
    if peeled < g.n:
        return None
    return b"T" + bytes([g.n]) + "|".join(sorted(trees)).encode("ascii")


# -- general codes --------------------------------------------------------


def _refine(masks: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Refine the ordered partition `cells` (vertex bitmasks) to an
    equitable one, taking splitters from `queue` first in, first out.  A
    cell with unequal neighbour counts into the splitter is replaced by its
    fragments in increasing count order, and they join the queue in that
    order, less the first largest when the cell is not itself queued
    (Hopcroft's rule).  A one-vertex splitter splits a cell into its
    non-neighbours and neighbours directly.  Nothing depends on vertex
    labels."""
    n = len(masks)
    head = 0
    while head < len(queue) and len(cells) < n:
        s = queue[head]
        head += 1
        out = []
        if not s & (s - 1):
            nb = masks[s.bit_length() - 1]
            for c in cells:
                b = c & nb
                if not b or b == c:
                    out.append(c)
                    continue
                a = c ^ b
                out += (a, b)
                if c in queue[head:]:
                    queue += (a, b)
                else:           # keep the smaller, b on a tie
                    queue.append(a if a.bit_count() < b.bit_count() else b)
            cells = out
            continue
        by_count: dict[int, int] = {}
        for v, m in enumerate(masks):
            k = (m & s).bit_count()
            by_count[k] = by_count.get(k, 0) | 1 << v
        if len(by_count) == 1:
            continue            # every count equal: no cell splits
        classes = [by_count[k] for k in sorted(by_count)]
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
                m = masks[v]
                for u in order[:i]:
                    cert = cert << 1 | m >> u & 1
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
        members = _mask_bits(cell)
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
    """Isomorphism-invariant byte code; equal codes iff isomorphic graphs.

    That equal codes mean isomorphic graphs does not rest on the search
    being canonical: a general code is b"G", n, then the lower-triangle
    adjacency bits of g relabelled by a permutation (the best leaf's
    order), so it spells out a relabelling of g; a forest code is b"T", n,
    then the sorted center-rooted parenthesis codes of its trees, each of
    which determines its rooted tree (an isolated vertex is "()").
    So graphs with equal codes share every isomorphism invariant, the
    independence polynomial included.

    Forests are told apart by the leaf peel that codes them: a graph with
    fewer than n edges (a forest has at most n - 1) goes to `_forest_code`,
    which returns None on a cycle, and only then is the graph searched.
    A Graph has at most VERTEX_LIMIT (64) vertices, so n fits one byte."""
    if not g.n or g.num_edges < g.n:
        code = _forest_code(g)
        if code is not None:
            return code
    width = (g.n * (g.n - 1) // 2 + 7) // 8
    return b"G" + bytes([g.n]) + _search(g.masks)[0].to_bytes(width, "big")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    return canonical_code(g) == canonical_code(h)


# -- catalogs -------------------------------------------------------------


@cache
def _tree_level(n: int) -> tuple[Graph, ...]:
    """Level n of the tree catalog, sorted by canonical code, grown once
    per process from the memoised level n-1: each parent gets a leaf at
    every vertex, and the first child seen with each forest code is kept.
    Vertices in one orbit give one code, so the child kept is the one
    grown at the lowest vertex of the first orbit that gives its code."""
    if n == 1:
        return (Graph(1),)
    seen: dict[bytes, Graph] = {}
    for t in _tree_level(n - 1):
        for v, m in enumerate(t.masks):
            masks = [*t.masks, 1 << v]
            masks[v] = m | 1 << t.n
            child = _from_masks(tuple(masks))
            seen.setdefault(_forest_code(child), child)
    return tuple(seen[c] for c in sorted(seen))


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by attaching a leaf at every vertex of each tree on n-1
    vertices and keeping the first tree seen with each forest code.
    Deterministic: result sorted by code.  Levels are memoised, so calling
    this for n = 1, 2, ..., N builds each level once.
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


def _subset_orbit_minima(n: int, gens: Sequence[tuple[int, ...]], least: int) -> list[int]:
    """The least mask in each orbit of <gens> on the subsets of 0..n-1
    with at least `least` members, in increasing order.  An orbit keeps
    its subsets' size, so smaller subsets are skipped with their orbits.
    A generator's image of s is read from two half tables, one over the
    low n//2 bits and one over the rest."""
    size = 1 << n
    if not gens:
        return [s for s in range(size) if s.bit_count() >= least]
    h = n // 2
    low = (1 << h) - 1
    halves = []
    for sigma in gens:
        tables = []
        for base, width in ((0, h), (h, n - h)):
            img = [0] * (1 << width)
            for s in range(1, 1 << width):
                bit = s & -s
                img[s] = img[s ^ bit] | 1 << sigma[base + bit.bit_length() - 1]
            tables.append(img)
        halves.append(tables)
    seen = bytearray(size)
    minima = []
    for s in range(size):
        if seen[s] or s.bit_count() < least:
            continue
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            lo, hi = t & low, t >> h
            for lo_img, hi_img in halves:
                u = lo_img[lo] | hi_img[hi]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return minima


def _canonical_child(masks: tuple[int, ...], tied: int) -> bool:
    """Whether the last vertex v of the graph `masks` lies on the canonical
    construction path, given `tied`: the other vertices of v's degree,
    which is the largest, as a non-empty mask.

    v must carry the largest invariant (degree, then the sorted neighbour
    degrees).  When v alone does, it passes with no search; otherwise v
    must lie in the Aut-orbit of the first largest-invariant vertex of the
    best leaf's order.  That orbit depends only on the isomorphism class,
    so each class passes from exactly one parent and one Aut(parent)-orbit
    of neighbourhoods.
    """
    v = len(masks) - 1
    own = sorted(masks[w].bit_count() for w in _mask_bits(masks[v]))
    ties = [v]
    for u in _mask_bits(tied):
        other = sorted(masks[w].bit_count() for w in _mask_bits(masks[u]))
        if other > own:
            return False
        if other == own:
            ties.append(u)
    if len(ties) == 1:
        return True
    _, gens, _, order = _search(masks)
    m = next(u for u in order if u in ties)
    return bool((_orbit(m, gens) >> v) & 1)


@cache
def _graph_level(n: int, connected: bool) -> tuple[Graph, ...]:
    """Level n of the graph catalog, every class once, or every connected
    class once, in generation order: parents in level order, then each
    parent's orbit-minimum neighbourhoods in increasing mask order.  A
    child is kept as generated, its parent's labelling plus vertex n-1
    joined to the neighbourhood.  Grown once per process from the memoised
    full level n-1.  A connected level skips every neighbourhood that
    misses a component of the parent, whose child is disconnected, so it is
    the full level's connected graphs, in the same order.

    The parent's degrees decide most neighbourhoods S.  With k = |S| and t
    the parent's largest degree, v = n-1 has the child's largest degree
    iff k >= t and, at k = t, S misses every degree-t vertex.  Then v ties
    on degree with the degree-t vertices and the degree-(t-1) vertices in
    S (k = t), or with the degree-t vertices in S (k = t+1), and with no
    vertex at k > t+1; only a tied child goes on to `_canonical_child`."""
    if n == 1:
        return (Graph(1),)
    v = n - 1
    graphs = []
    for g, gens in zip(_graph_level(v, False), _level_generators(v)):
        degree = [m.bit_count() for m in g.masks]
        t = max(degree)
        top = sum(1 << u for u, d in enumerate(degree) if d == t)
        below = sum(1 << u for u, d in enumerate(degree) if d == t - 1)
        comps = _component_masks(g.masks, (1 << v) - 1) if connected else ()
        for sub in _subset_orbit_minima(v, gens, t):
            k = sub.bit_count()
            if k == t:
                if sub & top:
                    continue        # a degree-t vertex would outgrow v
                tied = top | below & sub
            else:
                tied = top & sub if k == t + 1 else 0
            if not all(sub & c for c in comps):
                continue            # the child would be disconnected
            masks = tuple(m | ((sub >> i) & 1) << v for i, m in enumerate(g.masks)) + (sub,)
            if not tied or _canonical_child(masks, tied):
                graphs.append(_from_masks(masks))
    return tuple(graphs)


@cache
def _level_generators(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Generators of Aut(g) for each graph g of level n, in level order,
    one search per graph.  Only level n+1 reads them, so this never runs
    at the cap."""
    return tuple(tuple(_search(g.masks)[1]) for g in _graph_level(n, False))


def enumerate_graphs(n: int, connected: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices,
    in generation order, each kept as generated.

    Canonical construction path: every class on n vertices arises from
    some class on n-1 vertices by attaching a new vertex v.  Each parent g
    is extended by the least neighbourhood mask of every Aut(g)-orbit of
    the 2^(n-1) subsets, and a child is kept iff v has the largest
    invariant (degree, then sorted neighbour degrees) and, when another
    vertex ties v on it, lies in the Aut-orbit of the first such vertex in
    the child's best leaf order.  Parents come in the order of level n-1
    and each parent's neighbourhoods in increasing mask order, and a child
    keeps its parent's labelling, with v = n-1 joined to its
    neighbourhood; so the order and the labelling depend on nothing but n.
    Levels are memoised, so calling this for n = 1, 2, ..., N builds the
    catalog up to N once.  A connected request builds only the connected
    children at level n, from the full levels below, in the order they
    have in the full level n.  Capped at 8 vertices; larger corpora are
    meant to be ingested from graph6 streams.
    """
    if n < 1:
        raise ValueError("graph enumeration needs n >= 1")
    if n > GRAPH_ENUM_LIMIT:
        raise ResourceLimitError(
            f"graph enumeration capped at {GRAPH_ENUM_LIMIT} vertices; "
            "ingest a graph6 stream for larger orders"
        )
    return list(_graph_level(n, bool(connected)))
