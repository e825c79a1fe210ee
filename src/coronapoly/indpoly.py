"""Exact independence polynomials of small graphs.

``independence_polynomial`` runs the vertex decomposition recurrence

    I(G) = I(G - v) + x * I(G - N[v])

multiplying over connected components.  Call a vertex of degree >= 3 in
its component a hub.  A component closes out as a leaf, with no
recursion, when it has at most one hub:

* no hub: a path or a cycle, a cached leaf.  Leaves are built once per
  length by the Fibonacci-style recurrence F(m+1) = F(m) + x F(m-1), so
  the explicit binomial formula elsewhere in the package remains an
  independent cross-check;
* one hub h: deleting h leaves paths (the arms), each joined to h at one
  end or both, so I = I(G - h) + x I(G - N[h]) is two products of path
  leaves.  The paper's spider corona(K_{1,n}) is one such leaf.

Any other component is split on a pivot: the hub of largest degree, ties
broken by the most hub neighbours and then by the lowest id.

The engine does its arithmetic on packed ints (Kronecker substitution):
a polynomial with coefficients s_k is the one int sum s_k 2^(SLOT k), so
a pivot step is one shift and one add, and the product over components is
one multiplication, each a single big-int operation.  Every packed value
is the polynomial of an induced subgraph, so its coefficients are
non-negative counts below 2^SLOT and no slot borrows or overflows (the
bound is argued in ``independence_polynomial``).  The result is unpacked
once per call.  One flood fill per component gives its mask, its hubs and
the hubs of largest degree; a hub leaf floods its arms once more, for
connectivity only.

``independence_polynomial_tree`` is a linear-time rooted DP for forests
on coefficient tuples; the two implementations share no code and serve
as mutual oracles.

No floating point anywhere: coefficients are Python ints.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .graphs import VERTEX_LIMIT, Graph, _mask_bits, connected_components, is_forest
from .polynomials import IntPolynomial, add, mul  # tuple kernel: forest DP only

# Bits per packed coefficient.  Every coefficient the engine forms counts
# stable sets of an induced subgraph H, so it is at most
# C(|H|, k) <= C(VERTEX_LIMIT, VERTEX_LIMIT // 2) < 2^64, as no Graph is
# larger: raising VERTEX_LIMIT past 64 needs a wider slot.
SLOT = 64
_SLOT_MASK = (1 << SLOT) - 1


def _leaf_tables() -> tuple[list[int], list[int]]:
    """Packed I(P_m) and I(C_m) for m <= VERTEX_LIMIT.  Paths follow
    F(k+1) = F(k) + x F(k-1) with F(1) = I(P_0) = 1, F(2) = I(P_1) = 1 + x;
    cycles follow I(C_m) = I(P_{m-1}) + x I(P_{m-3}) for m >= 3 (entries
    below 3 are unused: such a component is a path)."""
    paths = [1, 1 | 1 << SLOT]
    for _ in range(VERTEX_LIMIT - 1):
        paths.append(paths[-1] + (paths[-2] << SLOT))
    cycles = [0, 0, 0] + [paths[m - 1] + (paths[m - 3] << SLOT) for m in range(3, VERTEX_LIMIT + 1)]
    return paths, cycles


_PATHS, _CYCLES = _leaf_tables()


def _unpack(packed: int) -> list[int]:
    coeffs = []
    while packed:
        coeffs.append(packed & _SLOT_MASK)
        packed >>= SLOT
    return coeffs


# -- the decomposition engine ------------------------------------------------


def independence_polynomial(
    g: Graph,
    pivot: Callable[[Sequence[int], int], int] | None = None,
) -> IntPolynomial:
    """Exact I(G;x); coefficient k counts the stable sets of size k.

    Each subproblem is a vertex mask.  One flood fill per component C
    gives its mask, the degree of each vertex in it, the mask of its
    vertices of degree >= 3 (its hubs), the hubs of largest degree, and
    whether any vertex has degree below 2.  C then closes in one of three
    ways:

    * no hub: a path or a cycle (every degree 2), a cached leaf;
    * one hub h: a hub leaf.  Every other vertex of C has degree <= 2, so
      C - h is a union of paths, its arms (a cycle there would have no
      edge to h), and a vertex joined to h is an end of its arm.  An arm
      of a vertices with e = |arm & N(h)| ends joined to h loses those
      ends in C - N[h], so I(C) = prod I(P_a) + x prod I(P_(a-e)), with
      the arm sizes from one connectivity-only flood of C - h;
    * two or more hubs: a pivot step I(C - v) + x I(C - N[v]) on the hub
      of largest degree, ties broken by the most hub neighbours and then
      by the lowest id.

    Polynomials are packed ints with SLOT bits per coefficient: a pivot
    step is I(C - v) + (I(C - N[v]) << SLOT) and the product over
    components or arms is int multiplication.  No slot borrows or
    overflows: every packed value is I(H) of an induced subgraph H (a
    product of components or arms is I of their disjoint union, and the
    two factors of a hub leaf are I(C - h) and I(C - N[h])), so every
    coefficient is a count, non-negative and at most
    C(|H|, k) <= C(64, 32) < 2^64.  A `pivot` override still splits into
    induced subgraphs, so the argument holds for it too.

    |H| <= 64 rests on the Graph type, which refuses more than
    VERTEX_LIMIT vertices; nothing here checks it, and C(68, 34) > 2^64,
    so a 68-vertex graph reaching the engine would get wrong counts and
    no error.

    `pivot` overrides the pivot rule on components with two or more hubs
    (it receives the neighbor masks and the component's vertex mask and
    must return a vertex in it); it exists so tests can confirm the result
    is pivot-independent.

    There is no memo across calls: canonical hashing of arbitrary
    subgraphs costs more than recomputation at these sizes.  Nor is there
    a per-call memo of component masks: on the 34-40 vertex regular graphs
    of the `poly-large` benchmark such a memo ran no measurably faster, and
    it raised the tracemalloc peak of one call from 0.01 MB to as much as
    0.46 MB, which counts against that benchmark's `peak_rss_mb`.
    """
    masks = g.masks
    nbr = {1 << v: m for v, m in enumerate(masks)}     # neighbour mask by bit

    def solve(mask: int) -> int:
        product = 1
        rest = mask
        while rest:
            comp = frontier = rest & -rest
            hubs = top = tops = ends = 0
            while frontier:
                grow = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nbrs = nbr[b] & mask
                    grow |= nbrs
                    d = nbrs.bit_count()
                    if d > 2:
                        hubs |= b
                        if d > top:
                            top, tops = d, b
                        elif d == top:
                            tops |= b
                    elif d < 2:
                        ends = b        # so C is not a cycle
                frontier = grow & ~comp
                comp |= frontier
            rest ^= comp
            if not hubs:
                size = comp.bit_count()
                product *= _PATHS[size] if ends else _CYCLES[size]
            elif not hubs & (hubs - 1):
                # hub leaf: flood the arms of comp - h
                arms = comp ^ hubs
                joined = nbr[hubs]
                without = closed = 1
                while arms:
                    arm = frontier = arms & -arms
                    while frontier:
                        grow = 0
                        while frontier:
                            b = frontier & -frontier
                            frontier ^= b
                            grow |= nbr[b]
                        frontier = grow & arms & ~arm
                        arm |= frontier
                    arms ^= arm
                    a = arm.bit_count()
                    without *= _PATHS[a]
                    closed *= _PATHS[a - (arm & joined).bit_count()]
                product *= without + (closed << SLOT)
            else:
                if pivot is not None:
                    v = 1 << pivot(masks, comp)
                elif tops & (tops - 1):
                    # tie on the largest degree: most hub neighbours, then lowest id
                    most = -1
                    while tops:
                        b = tops & -tops
                        tops ^= b
                        k = (nbr[b] & hubs).bit_count()
                        if k > most:
                            most, v = k, b
                else:
                    v = tops
                product *= solve(comp ^ v) + (solve(comp & ~(nbr[v] | v)) << SLOT)
        return product

    packed = solve((1 << g.n) - 1)
    del solve       # its closure refers to itself: break the cycle now
    return IntPolynomial(_unpack(packed))


# -- forest specialization ----------------------------------------------------


def independence_polynomial_tree(t: Graph) -> IntPolynomial:
    """Rooted DP over a forest: per vertex, the pair (poly with the vertex
    excluded, poly with it included).  Raises ValueError on a cycle."""
    if not is_forest(t):
        raise ValueError("input has a cycle; use independence_polynomial")
    nbrs = list(map(_mask_bits, t.masks))
    total: tuple[int, ...] = (1,)
    for comp in connected_components(t):
        root = comp[0]
        # iterative post-order
        order = []
        parent = {root: -1}
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in nbrs[v]:
                if w != parent[v]:
                    parent[w] = v
                    stack.append(w)
        excl: dict[int, tuple[int, ...]] = {}
        incl: dict[int, tuple[int, ...]] = {}
        for v in reversed(order):
            e: tuple[int, ...] = (1,)
            i: tuple[int, ...] = (1,)
            for w in nbrs[v]:
                if w == parent[v]:
                    continue
                e = mul(e, add(excl[w], incl[w]))
                i = mul(i, excl[w])
            excl[v] = e
            incl[v] = (0,) + i  # multiply by x
        total = mul(total, add(excl[root], incl[root]))
    return IntPolynomial(total)


def count_stable_sets(g: Graph) -> int:
    """I(G;1): the number of stable sets including the empty set."""
    return independence_polynomial(g)(1)
