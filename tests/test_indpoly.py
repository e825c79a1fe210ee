import random
from fractions import Fraction
from math import comb

import pytest

from coronapoly.errors import ResourceLimitError
from coronapoly.graphs import (
    Graph,
    alpha,
    complete_graph,
    complete_multipartite_graph,
    corona,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_well_covered,
    path_graph,
    star_graph,
)
from coronapoly.indpoly import (
    FOREST_LIMIT,
    SLOT,
    count_stable_sets,
    independence_polynomial,
    independence_polynomial_tree,
)
from coronapoly.polynomials import IntPolynomial, evaluate_exact
from corpus import graphs_upto, trees_upto
from knowngraphs import (
    CHAIR_POLY,
    CHAIR_TREE,
    C4_PLUS_K1,
    DENSE6_A,
    DENSE6_B,
    DENSE6_POLY,
    EQUAL_TREES10_A,
    EQUAL_TREES10_B,
    EQUAL_TREES10_POLY,
    PAIR5_A,
    PAIR5_B,
    PAIR5_POLY,
    PAIR6_A,
    PAIR6_B,
    PAIR6_POLY,
    TREE8_NONREAL,
    TREE8_NONREAL_POLY,
    TREE10_REALROOTED,
    TREE10_REALROOTED_POLY,
)
from oracles import count_vector, count_vector_subsets


def test_textbook_values():
    assert independence_polynomial(path_graph(3)).coeffs == (1, 3, 1)
    assert independence_polynomial(path_graph(4)).coeffs == (1, 4, 3)
    assert independence_polynomial(cycle_graph(7)).coeffs == (1, 7, 14, 7)
    for n in range(1, 9):
        assert independence_polynomial(complete_graph(n)).coeffs == (1, n)
    assert independence_polynomial(empty_graph(3)).coeffs == (1, 3, 3, 1)
    assert independence_polynomial(Graph(0)).coeffs == (1,)


def test_known_graph_values():
    cases = [
        (TREE10_REALROOTED, TREE10_REALROOTED_POLY),
        (TREE8_NONREAL, TREE8_NONREAL_POLY),
        (PAIR5_A, PAIR5_POLY),
        (PAIR5_B, PAIR5_POLY),
        (PAIR6_A, PAIR6_POLY),
        (PAIR6_B, PAIR6_POLY),
        (CHAIR_TREE, CHAIR_POLY),
        (C4_PLUS_K1, CHAIR_POLY),
        (DENSE6_A, DENSE6_POLY),
        (DENSE6_B, DENSE6_POLY),
        (EQUAL_TREES10_A, EQUAL_TREES10_POLY),
        (EQUAL_TREES10_B, EQUAL_TREES10_POLY),
    ]
    for g, expect in cases:
        assert independence_polynomial(g).coeffs == expect
        assert count_vector(g) == expect


def test_oracle_cross_check():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        expect = count_vector(g)
        assert independence_polynomial(g).coeffs == expect
        if n <= 8:
            assert count_vector_subsets(g) == expect


def test_basic_coefficient_identities():
    for g in graphs_upto(7):
        p = independence_polynomial(g)
        assert p.coeff(0) == 1
        assert p.coeff(1) == g.n
        assert p.coeff(2) == comb(g.n, 2) - g.num_edges
        assert p.degree == alpha(g)
        assert all(c >= 0 for c in p.coeffs)


def test_multiplicative_over_components():
    rng = random.Random(23)
    for _ in range(25):
        n1, n2 = rng.randint(1, 7), rng.randint(1, 7)
        g1 = Graph(n1, [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.4])
        g2 = Graph(n2, [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.4])
        assert (
            independence_polynomial(disjoint_union(g1, g2))
            == independence_polynomial(g1) * independence_polynomial(g2)
        )


def test_pivot_independence():
    rng = random.Random(31)

    def random_pivot(masks, mask):
        bits = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
        return rng.choice(bits)

    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert independence_polynomial(g, pivot=random_pivot) == independence_polynomial(g)


def test_pivot_override_picks_the_vertex(monkeypatch):
    # a counting pivot that applies the documented default rule: it must be
    # called, give the default polynomial, and split into the very same
    # subproblems as the default (so the default is the lowest-id vertex of
    # largest degree, and the override is what picks v)
    from coronapoly import indpoly

    calls = []

    def lowest_max_degree(masks, mask):
        calls.append(mask)
        bits = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
        return max(bits, key=lambda v: ((masks[v] & mask).bit_count(), -v))

    seen = []
    split = indpoly._split

    def recording(masks, mask):
        seen.append(mask)
        return split(masks, mask)

    # _split receives every subproblem mask the engine solves
    monkeypatch.setattr(indpoly, "_split", recording)
    rng = random.Random(37)
    graphs = [complete_multipartite_graph([2, 3, 3]), cycle_graph(9), TREE10_REALROOTED]
    for _ in range(10):
        n = rng.randint(6, 12)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]))
    for g in graphs:
        seen.clear()
        default = independence_polynomial(g)
        trace = list(seen)
        seen.clear()
        calls.clear()
        assert independence_polynomial(g, pivot=lowest_max_degree) == default
        assert seen == trace
        if any(len(a) >= 3 for a in g.adj):
            assert len(trace) >= 3   # the whole graph and both children of a pivot
            assert calls
        assert default.coeffs == count_vector(g)


def test_path_closed_form():
    for n in range(1, 21):
        expect = tuple(comb(n + 1 - j, j) for j in range((n + 1) // 2 + 1))
        assert independence_polynomial(path_graph(n)).coeffs == expect


def test_cycle_closed_form():
    # I(C_m) = sum_k m/(m-k) C(m-k, k) x^k
    for m in range(3, 41):
        expect = tuple(m * comb(m - k, k) // (m - k) for k in range(m // 2 + 1))
        assert independence_polynomial(cycle_graph(m)).coeffs == expect


def _hubbed_leaves(rng: random.Random) -> Graph:
    """Paths, cycles, isolated vertices and K_2s, each joined at one vertex
    to one of one or two hubs of degree >= 3, vertex ids shuffled: deleting
    the hubs leaves every kind of closed-form leaf deep in the recursion."""
    hubs = rng.randint(1, 2)
    pieces, room = [], 22 - hubs
    for left in range(3 * hubs + rng.randint(0, 2), 0, -1):
        piece = rng.choice([Graph(1), path_graph(2), path_graph(rng.randint(3, 6)), cycle_graph(rng.randint(3, 7))])
        if piece.n > room - left + 1:   # keep the oracle's enumeration small
            piece = Graph(1)
        pieces.append(piece)
        room -= piece.n
    union = disjoint_union(*pieces)
    edges = list(union.edges())
    offset = 0
    for i, piece in enumerate(pieces):
        hub = union.n + (i % hubs)
        edges.append((hub, offset + rng.randrange(piece.n)))
        offset += piece.n
    if hubs == 2 and rng.random() < 0.5:
        edges.append((union.n, union.n + 1))
    n = union.n + hubs
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_closed_form_leaves_under_hubs():
    rng = random.Random(43)
    for _ in range(40):
        g = _hubbed_leaves(rng)
        assert independence_polynomial(g).coeffs == count_vector(g)


def test_balanced_multipartite_closed_form():
    one_plus_x = independence_polynomial(complete_graph(1))  # 1 + x
    for parts in range(1, 7):
        for size in range(1, 7):
            g = complete_multipartite_graph([size] * parts)
            direct = independence_polynomial(g)
            closed = parts * (one_plus_x ** size) + independence_polynomial(Graph(0)) * (1 - parts)
            assert direct == closed


def test_well_covered_coefficient_growth():
    # s_{k-1} <= s_k up to the stated midpoint for well-covered graphs
    for g in graphs_upto(7):
        if not is_well_covered(g):
            continue
        p = independence_polynomial(g)
        a = p.degree
        for k in range(1, (a - 1) // 2 + 1):
            assert p.coeff(k - 1) <= p.coeff(k)


def test_tree_dp_matches_engine():
    for t in trees_upto(12):
        assert independence_polynomial_tree(t) == independence_polynomial(t)
    forest = disjoint_union(path_graph(3), star_graph(3), Graph(1))
    assert independence_polynomial_tree(forest) == independence_polynomial(forest)


def test_tree_dp_rejects_cycles():
    with pytest.raises(ValueError):
        independence_polynomial_tree(cycle_graph(4))


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        independence_polynomial(empty_graph(65))
    with pytest.raises(ResourceLimitError):
        independence_polynomial(cycle_graph(41))
    # forests run past the general cap
    independence_polynomial(path_graph(50))


def test_slot_holds_the_widest_coefficient():
    # a coefficient of an n-vertex graph is at most C(n, n // 2); raising the
    # forest cap past what SLOT bits hold must fail here
    assert comb(FOREST_LIMIT, FOREST_LIMIT // 2) < 2**SLOT


def test_packed_slots_at_the_forest_cap():
    empty = independence_polynomial(empty_graph(64)).coeffs
    assert empty == tuple(comb(64, k) for k in range(65))
    assert max(empty) == comb(64, 32)
    one_plus_x = IntPolynomial((1, 1))
    assert independence_polynomial(star_graph(63)) == one_plus_x**63 + IntPolynomial((0, 1))
    # 40 vertices with cycles: the general path, not the forest cap
    k20_20 = complete_multipartite_graph([20, 20])
    assert independence_polynomial(k20_20) == 2 * one_plus_x**20 - IntPolynomial((1,))
    assert independence_polynomial(path_graph(64)).coeffs == tuple(comb(65 - j, j) for j in range(33))


def test_random_forests_at_the_cap_match_the_tree_dp():
    rng = random.Random(61)
    for _ in range(12):
        n = rng.randint(60, 64)
        edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.9]
        perm = rng.sample(range(n), n)
        forest = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert independence_polynomial(forest) == independence_polynomial_tree(forest)


def _random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A d-regular graph on an even n: d edge-disjoint random perfect matchings."""
    edges: set[tuple[int, int]] = set()
    for _ in range(d):
        while True:
            perm = rng.sample(range(n), n)
            matching = {(min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2])}
            if not matching & edges:
                break
        edges |= matching
    return Graph(n, sorted(edges))


def test_random_regular_graphs_match_the_oracle():
    rng = random.Random(67)
    for _ in range(9):
        d = rng.randint(3, 5)
        g = _random_regular(rng, rng.choice([14, 16, 18]), d)
        assert all(g.degree(v) == d for v in range(g.n))
        assert independence_polynomial(g).coeffs == count_vector(g)


def test_degree_equals_alpha_on_trees():
    for t in trees_upto(12):
        assert independence_polynomial(t).degree == alpha(t)


def test_stable_set_inclusion_identity():
    # summing, over stable i-sets, the number of stable j-sets containing
    # each equals C(j,i) * s_j -- checked against the enumeration oracle
    from oracles import clique_cover_identity_holds

    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        a = independence_polynomial(g).degree
        for i in range(1, a + 1):
            for j in range(i, a + 1):
                assert clique_cover_identity_holds(g, i, j)


def test_count_stable_sets():
    assert count_stable_sets(path_graph(3)) == 5
    assert count_stable_sets(PAIR6_A) == 24
    assert count_stable_sets(Graph(1)) == 2


def test_evaluate_exact_examples():
    p4 = independence_polynomial(path_graph(4))
    assert evaluate_exact(p4, -1) == 0
    c7 = independence_polynomial(cycle_graph(7))
    assert evaluate_exact(c7, -1) * evaluate_exact(c7, -2) == -13
    for g in graphs_upto(5):
        assert evaluate_exact(independence_polynomial(g), 0) == 1
    assert evaluate_exact(p4, Fraction(-1, 3)) == Fraction(0)
