"""Exact independence polynomials of small graphs.

``independence_polynomial`` runs the vertex decomposition recurrence

    I(G) = I(G - v) + x * I(G - N[v])

on a maximum-degree pivot (lowest id on ties), multiplying over connected
components.  One scan over a component's vertices gives its largest
degree, its pivot and its number of degree-2 vertices; a component of
largest degree at most 2 is a path or a cycle, and closes out as a cached
leaf.  Path leaves are built once per length by the Fibonacci-style
recurrence F(m+1) = F(m) + x F(m-1) so the explicit binomial formula
elsewhere in the package remains an independent cross-check.
``independence_polynomial_tree`` is a linear-time rooted DP for forests;
the two implementations share no code and serve as mutual oracles.

No floating point anywhere: coefficients are Python ints.
"""

from __future__ import annotations

from functools import cache, reduce
from typing import Callable, Sequence

from .errors import ResourceLimitError
from .graphs import Graph, _component_masks, _mask_bits, is_forest
from .polynomials import IntPolynomial, add, mul, shift_add

GENERAL_LIMIT = 40
FOREST_LIMIT = 64


# m <= FOREST_LIMIT, so each leaf cache holds at most 65 tuples
@cache
def _path_poly(m: int) -> tuple[int, ...]:
    """I(P_m) by the recurrence F(k+1) = F(k) + x F(k-1); F(0) = F(1) = 1."""
    prev: tuple[int, ...] = (1,)   # F(1) = I(P_0)
    cur: tuple[int, ...] = (1, 1)  # F(2) = I(P_1)
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, shift_add(cur, prev)
    return cur


@cache
def _cycle_poly(m: int) -> tuple[int, ...]:
    """I(C_m) = I(P_{m-1}) + x I(P_{m-3}) for m >= 3."""
    return shift_add(_path_poly(m - 1), _path_poly(m - 3))


# -- the decomposition engine ------------------------------------------------


def independence_polynomial(
    g: Graph,
    pivot: Callable[[Sequence[int], int], int] | None = None,
) -> IntPolynomial:
    """Exact I(G;x); coefficient k counts the stable sets of size k.

    One scan over each component's vertices finds its largest degree, the
    lowest-id vertex of that degree (the pivot) and its number of degree-2
    vertices, which tells a path leaf from a cycle leaf; both leaves come
    from caches.  The cap is 64 vertices for forests and 40 otherwise.
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

    def solve(mask: int) -> tuple[int, ...]:
        if not mask:
            return (1,)
        return reduce(mul, map(component, _component_masks(masks, mask)))

    def component(comp: int) -> tuple[int, ...]:
        best_v, best_d, twos = -1, -1, 0
        scan = comp
        while scan:
            b = scan & -scan
            scan ^= b
            v = b.bit_length() - 1
            d = (masks[v] & comp).bit_count()
            if d > best_d:
                best_v, best_d = v, d
            if d == 2:
                twos += 1
        if best_d <= 2:
            size = comp.bit_count()
            return _cycle_poly(size) if twos == size else _path_poly(size)
        v = best_v if pivot is None else pivot(masks, comp)
        without = solve(comp & ~(1 << v))
        closed = solve(comp & ~(masks[v] | (1 << v)))
        return shift_add(without, closed)

    return IntPolynomial(solve((1 << g.n) - 1))


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
    full = (1 << t.n) - 1
    for comp in _component_masks(t.masks, full):
        root = (comp & -comp).bit_length() - 1
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
