"""Cached graph corpora shared by the unit and acceptance tests.

Everything funnels through ``functools.cache`` so one pytest process
builds each catalog exactly once.  The well-covered catalog combines the
exhaustive classes up to 8 vertices with the constructible well-covered
families on 9 and 10 (coronas, balanced multipartite graphs, disjoint
unions of smaller well-covered graphs): exhausting all 9- or 10-vertex
graphs is out of desk scale, so beyond 8 the corpus is generated, not
enumerated.
"""

import random
from functools import cache

from coronapoly.canon import enumerate_graphs, enumerate_trees
from coronapoly.corona import corona_coefficients
from coronapoly.graphs import (
    Graph,
    complete_multipartite_graph,
    corona,
    disjoint_union,
    is_connected,
    is_well_covered,
)
from coronapoly.indpoly import independence_polynomial


@cache
def graphs_exactly(n: int, connected: bool = False) -> tuple[Graph, ...]:
    """Level n of the graph catalog.  ``enumerate_graphs`` memoises its
    levels, so every n reads from one pass that builds each level once."""
    return tuple(enumerate_graphs(n, connected=connected))


def graphs_upto(n: int, connected: bool = False) -> list[Graph]:
    """Levels 1..n.  A connected request reads the levels below n from the
    full levels, as ``default_corpus`` does: those are built anyway as
    parents, so only level n is built connected only."""
    out = [g for k in range(1, n) for g in graphs_exactly(k) if not connected or is_connected(g)]
    return out + list(graphs_exactly(n, connected))


@cache
def trees_exactly(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_trees(n))


def trees_upto(n: int) -> list[Graph]:
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(trees_exactly(k))
    return out


@cache
def connected_with_polynomials(max_n: int):
    """(graph, I(G), I(G*)) for every connected graph up to max_n vertices;
    the corona polynomial comes from the coefficient transform (cheap) and
    is spot-verified against the engine by the identity suites."""
    out = []
    for g in graphs_upto(max_n, connected=True):
        p = independence_polynomial(g)
        out.append((g, p, corona_coefficients(p, g.n)))
    return tuple(out)


@cache
def well_covered_by_order(max_n: int) -> dict[int, tuple[Graph, ...]]:
    """Well-covered classes per order, exhaustive up to min(max_n, 8)."""
    table: dict[int, tuple[Graph, ...]] = {}
    for n in range(1, min(max_n, 8) + 1):
        table[n] = tuple(g for g in graphs_exactly(n) if is_well_covered(g))
    return table


@cache
def well_covered_catalog(max_n: int = 10) -> tuple[Graph, ...]:
    """Well-covered graphs up to max_n vertices: exhaustive through 8, then
    generated families (all coronas of the right order, balanced complete
    multipartite graphs, and pairwise disjoint unions of smaller
    well-covered graphs)."""
    table = well_covered_by_order(max_n)
    out: list[Graph] = [g for n in sorted(table) for g in table[n]]
    for n in range(9, max_n + 1):
        batch: list[Graph] = []
        if n % 2 == 0:
            batch.extend(corona(h) for h in graphs_exactly(n // 2))
        for parts in range(1, n + 1):
            if n % parts == 0:
                batch.append(complete_multipartite_graph([n // parts] * parts))
        for a in range(1, min(8, n - 1) + 1):
            b = n - a
            if a <= b <= 8:
                for ga in table[a]:
                    for gb in table[b]:
                        batch.append(disjoint_union(ga, gb))
        out.extend(batch)
    return tuple(out)


def relabelled_copies(bases, copies: int, seed: int) -> list[Graph]:
    """Each base `copies` times, each copy under a seeded random vertex
    relabelling, in a seeded shuffled order."""
    rng = random.Random(seed)
    out = []
    for g in bases:
        for _ in range(copies):
            perm = rng.sample(range(g.n), g.n)
            out.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    rng.shuffle(out)
    return out
