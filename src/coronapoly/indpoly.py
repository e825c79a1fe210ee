"""Exact independence polynomials of small graphs.

``independence_polynomial`` runs the vertex decomposition recurrence

    I(G) = I(G - v) + x * I(G - N[v])

on a maximum-degree pivot (lowest id on ties), multiplying over connected
components and closing out edgeless, path and cycle components in closed
form.  Path leaves are built by the Fibonacci-style recurrence
F(m+1) = F(m) + x F(m-1) so the explicit binomial formula elsewhere in the
package remains an independent cross-check.  ``independence_polynomial_tree``
is a linear-time rooted DP for forests; the two implementations share no
code and serve as mutual oracles.

No floating point anywhere: coefficients are Python ints.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import ResourceLimitError
from .graphs import Graph, _component_masks, is_forest
from .polynomials import IntPolynomial, add, mul, shift_add

GENERAL_LIMIT = 40
FOREST_LIMIT = 64


def _path_poly(m: int) -> tuple[int, ...]:
    """I(P_m) by the recurrence F(k+1) = F(k) + x F(k-1); F(0) = F(1) = 1."""
    prev: tuple[int, ...] = (1,)   # F(1) = I(P_0)
    cur: tuple[int, ...] = (1, 1)  # F(2) = I(P_1)
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, shift_add(cur, prev)
    return cur


def _cycle_poly(m: int) -> tuple[int, ...]:
    """I(C_m) = I(P_{m-1}) + x I(P_{m-3}) for m >= 3."""
    return shift_add(_path_poly(m - 1), _path_poly(m - 3))


# -- the decomposition engine ------------------------------------------------


def independence_polynomial(
    g: Graph,
    pivot: Callable[[Sequence[int], int], int] | None = None,
) -> IntPolynomial:
    """Exact I(G;x); coefficient k counts the stable sets of size k.

    The cap is 64 vertices for forests and 40 otherwise.  `pivot` overrides
    the pivot rule (it receives the neighbor masks and the current vertex
    subset and must return a vertex in the subset); it exists so tests can
    confirm the result is pivot-independent.
    """
    limit = FOREST_LIMIT if is_forest(g) else GENERAL_LIMIT
    if g.n > limit:
        raise ResourceLimitError(
            f"independence polynomial: {g.n} vertices exceeds limit {limit}"
        )
    masks = g.masks
    choose = pivot if pivot is not None else _max_degree_pivot

    def solve(mask: int) -> tuple[int, ...]:
        result: tuple[int, ...] = (1,)
        for comp in _component_masks(masks, mask):
            result = mul(result, component(comp))
        return result

    def component(comp: int) -> tuple[int, ...]:
        size = comp.bit_count()
        if size == 1:
            return (1, 1)
        degs = []
        scan = comp
        while scan:
            b = scan & -scan
            scan ^= b
            degs.append((masks[b.bit_length() - 1] & comp).bit_count())
        dmax = max(degs)
        if dmax <= 2:
            if all(d == 2 for d in degs):
                return _cycle_poly(size)
            return _path_poly(size)
        v = choose(masks, comp)
        without = solve(comp & ~(1 << v))
        closed = solve(comp & ~(masks[v] | (1 << v)))
        return shift_add(without, closed)

    full = (1 << g.n) - 1
    coeffs = solve(full) if g.n else (1,)
    return IntPolynomial(coeffs)


def _max_degree_pivot(masks: Sequence[int], mask: int) -> int:
    best_v, best_d = -1, -1
    scan = mask
    while scan:
        b = scan & -scan
        v = b.bit_length() - 1
        scan ^= b
        d = (masks[v] & mask).bit_count()
        if d > best_d:
            best_v, best_d = v, d
    return best_v


# -- forest specialization ----------------------------------------------------


def independence_polynomial_tree(t: Graph) -> IntPolynomial:
    """Rooted DP over a forest: per vertex, the pair (poly with the vertex
    excluded, poly with it included).  Raises ValueError on a cycle.

    Results are memoized per isomorphism class (bounded cache keyed by the
    forest canonical code); the general engine deliberately carries no such
    cache, since canonical hashing of arbitrary subgraphs costs more than
    recomputation at these sizes."""
    if not is_forest(t):
        raise ValueError("input has a cycle; use independence_polynomial")
    if t.n > FOREST_LIMIT:
        raise ResourceLimitError(
            f"tree independence polynomial: {t.n} vertices exceeds {FOREST_LIMIT}"
        )
    from .canon import canonical_code

    key = canonical_code(t)
    cached = _FOREST_CACHE.get(key)
    if cached is not None:
        return cached
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
            for w in t.adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    stack.append(w)
        excl: dict[int, tuple[int, ...]] = {}
        incl: dict[int, tuple[int, ...]] = {}
        for v in reversed(order):
            e: tuple[int, ...] = (1,)
            i: tuple[int, ...] = (1,)
            for w in t.adj[v]:
                if w == parent[v]:
                    continue
                e = mul(e, add(excl[w], incl[w]))
                i = mul(i, excl[w])
            excl[v] = e
            incl[v] = (0,) + i  # multiply by x
        total = mul(total, add(excl[root], incl[root]))
    result = IntPolynomial(total)
    if len(_FOREST_CACHE) >= _FOREST_CACHE_LIMIT:
        _FOREST_CACHE.clear()
    _FOREST_CACHE[key] = result
    return result


_FOREST_CACHE: dict[bytes, IntPolynomial] = {}
_FOREST_CACHE_LIMIT = 4096


def count_stable_sets(g: Graph) -> int:
    """I(G;1): the number of stable sets including the empty set."""
    return independence_polynomial(g)(1)
