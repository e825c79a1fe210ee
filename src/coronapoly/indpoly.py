"""Exact independence polynomials of small graphs.

``independence_polynomial`` runs the vertex decomposition recurrence

    I(G) = I(G - v) + x * I(G - N[v])

on a maximum-degree pivot (lowest id on ties), multiplying over connected
components.  A component of largest degree at most 2 is a path or a
cycle, and closes out as a cached leaf.  Leaves are built once per length
by the Fibonacci-style recurrence F(m+1) = F(m) + x F(m-1), so the
explicit binomial formula elsewhere in the package remains an
independent cross-check.

The engine does its arithmetic on packed ints (Kronecker substitution):
a polynomial with coefficients s_k is the one int sum s_k 2^(SLOT k), so
a pivot step is one shift and one add, and the product over components is
one multiplication, each a single big-int operation.  Every packed value
is the polynomial of an induced subgraph, so its coefficients are
non-negative counts below 2^SLOT and no slot borrows or overflows (the
bound is argued in ``independence_polynomial``).  The result is unpacked
once per call.  One flood fill per subproblem (``_split``) gives each
component's mask, largest degree, pivot and degree-2 count.

``independence_polynomial_tree`` is a linear-time rooted DP for forests
on coefficient tuples; the two implementations share no code and serve
as mutual oracles.

No floating point anywhere: coefficients are Python ints.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import ResourceLimitError
from .graphs import Graph, _mask_bits, connected_components, is_forest
from .polynomials import IntPolynomial, add, mul  # tuple kernel: forest DP only

GENERAL_LIMIT = 40
FOREST_LIMIT = 64

# Bits per packed coefficient.  Every coefficient the engine forms counts
# stable sets of an induced subgraph H, so it is at most
# C(|H|, k) <= C(FOREST_LIMIT, FOREST_LIMIT // 2) < 2^64: raising
# FOREST_LIMIT past 64 needs a wider slot.
SLOT = 64
_SLOT_MASK = (1 << SLOT) - 1


def _leaf_tables() -> tuple[list[int], list[int]]:
    """Packed I(P_m) and I(C_m) for m <= FOREST_LIMIT.  Paths follow
    F(k+1) = F(k) + x F(k-1) with F(1) = I(P_0) = 1, F(2) = I(P_1) = 1 + x;
    cycles follow I(C_m) = I(P_{m-1}) + x I(P_{m-3}) for m >= 3 (entries
    below 3 are unused: such a component is a path)."""
    paths = [1, 1 | 1 << SLOT]
    for _ in range(FOREST_LIMIT - 1):
        paths.append(paths[-1] + (paths[-2] << SLOT))
    cycles = [0, 0, 0] + [paths[m - 1] + (paths[m - 3] << SLOT) for m in range(3, FOREST_LIMIT + 1)]
    return paths, cycles


_PATHS, _CYCLES = _leaf_tables()


def _unpack(packed: int) -> list[int]:
    coeffs = []
    while packed:
        coeffs.append(packed & _SLOT_MASK)
        packed >>= SLOT
    return coeffs


# -- the decomposition engine ------------------------------------------------


def _split(masks: Sequence[int], mask: int) -> list[tuple[int, int, int, int]]:
    """(component mask, largest degree, pivot, degree-2 count) for each
    connected component of the subgraph induced on `mask`, in order of
    lowest vertex.  One flood fill visits each vertex once; its degree in
    `mask` is its degree in its component.  The pivot is the lowest-id
    vertex of largest degree, by explicit tie-break since the fill does
    not visit vertices in id order."""
    out = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        best_v = best_d = -1
        twos = 0
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                v = b.bit_length() - 1
                nbrs = masks[v] & mask
                grow |= nbrs
                d = nbrs.bit_count()
                if d > best_d or (d == best_d and v < best_v):
                    best_v, best_d = v, d
                if d == 2:
                    twos += 1
            frontier = grow & ~comp
            comp |= frontier
        out.append((comp, best_d, best_v, twos))
        rest ^= comp
    return out


def independence_polynomial(
    g: Graph,
    pivot: Callable[[Sequence[int], int], int] | None = None,
) -> IntPolynomial:
    """Exact I(G;x); coefficient k counts the stable sets of size k.

    Each subproblem is a vertex mask; `_split` floods it once into
    components, each with its largest degree, pivot (lowest-id vertex of
    that degree) and number of degree-2 vertices, which tells a path leaf
    from a cycle leaf.  Polynomials are packed ints with SLOT bits per
    coefficient: a pivot step is I(G - v) + (I(G - N[v]) << SLOT) and the
    product over components is int multiplication.  No slot borrows or
    overflows: every packed value is I(H) of an induced subgraph H (a
    product of components is I of their disjoint union), so every
    coefficient is a count, non-negative and at most
    C(|H|, k) <= C(64, 32) < 2^64.  A `pivot` override still splits into
    induced subgraphs, so the argument holds for it too.

    The cap is 64 vertices (FOREST_LIMIT) for forests and 40 otherwise.
    `pivot` overrides the pivot rule (it receives the neighbor masks and
    the current vertex subset and must return a vertex in the subset); it
    exists so tests can confirm the result is pivot-independent.

    There is no memo across calls: canonical hashing of arbitrary
    subgraphs costs more than recomputation at these sizes.  Nor is there
    a per-call memo of component masks: on the 34-40 vertex regular graphs
    of the `poly-large` benchmark such a memo ran no measurably faster, and
    it raised the tracemalloc peak of one call from 0.01 MB to as much as
    0.46 MB, which counts against that benchmark's `peak_rss_mb`.
    """
    limit = FOREST_LIMIT if is_forest(g) else GENERAL_LIMIT
    if g.n > limit:
        raise ResourceLimitError(
            f"independence polynomial: {g.n} vertices exceeds limit {limit}"
        )
    masks = g.masks
    split = _split

    def solve(mask: int) -> int:
        product = 1
        for comp, degree, v, twos in split(masks, mask):
            if degree <= 2:
                size = comp.bit_count()
                product *= _CYCLES[size] if twos == size else _PATHS[size]
                continue
            if pivot is not None:
                v = pivot(masks, comp)
            without = solve(comp & ~(1 << v))
            closed = solve(comp & ~(masks[v] | (1 << v)))
            product *= without + (closed << SLOT)
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
    if t.n > FOREST_LIMIT:
        raise ResourceLimitError(
            f"tree independence polynomial: {t.n} vertices exceeds {FOREST_LIMIT}"
        )
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
