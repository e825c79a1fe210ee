import random
import sys
from fractions import Fraction
from math import comb

import pytest

from coronapoly.corona import corona_coefficients
from coronapoly.errors import ResourceLimitError
from coronapoly.graphs import (
    VERTEX_LIMIT,
    Graph,
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
from oracles import brute_alpha, count_vector, count_vector_subsets


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
        assert p.degree == brute_alpha(g)
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


def _solved_masks(run):
    """Call `run()` and return, in call order, the vertex mask of every
    subproblem the engine solves: the argument of each call to its
    recursion, the nested `solve(mask)`."""
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "solve":
            seen.append(frame.f_locals["mask"])

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, seen


def _documented_rule(masks, mask):
    """The default pivot: among the vertices of degree >= 3 (hubs), the
    largest degree, then the most hub neighbours, then the lowest id."""
    members = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
    hubs = sum(1 << v for v in members if (masks[v] & mask).bit_count() >= 3)
    return max(members, key=lambda v: ((masks[v] & mask).bit_count(), (masks[v] & hubs).bit_count(), -v))


def _lowest_max_degree(masks, mask):
    """The previous default pivot: the lowest-id vertex of largest degree."""
    members = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
    return max(members, key=lambda v: ((masks[v] & mask).bit_count(), -v))


def test_pivot_override_picks_the_vertex():
    # a recording pivot that applies the documented default rule: it must be
    # called once per branched component, give the default polynomial, and
    # split into the very same subproblems as the default (so the default
    # follows the documented rule, and the override is what picks v)
    calls = []

    def recording(masks, mask):
        calls.append(mask)
        return _documented_rule(masks, mask)

    rng = random.Random(37)
    graphs = [complete_multipartite_graph([2, 3, 3]), cycle_graph(9), TREE10_REALROOTED]
    for _ in range(10):
        n = rng.randint(6, 12)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]))
    graphs.append(_random_regular(rng, 16, 4))
    branched = 0
    for g in graphs:
        default, trace = _solved_masks(lambda: independence_polynomial(g))
        calls.clear()
        override, seen = _solved_masks(lambda: independence_polynomial(g, pivot=recording))
        assert override == default
        assert seen == trace
        # the top call, then two subproblems per pivot step
        assert len(trace) == 1 + 2 * len(calls)
        for mask in calls:
            hubs = [v for v in range(g.n) if (mask >> v) & 1 and (g.masks[v] & mask).bit_count() >= 3]
            assert len(hubs) >= 2   # a single-hub component is a leaf, never a pivot
        assert default.coeffs == count_vector(g)
        branched += bool(calls)
    assert branched >= 8


def test_default_pivot_prefers_hubs_next_to_hubs():
    # hubs 0, 1 and 5 all have degree 3; 1 and 5 are adjacent, 0 has no hub
    # neighbour: the old rule picks 0, the default picks 1
    g = Graph(9, [(0, 2), (0, 3), (0, 4), (4, 1), (1, 5), (1, 6), (5, 7), (5, 8)])
    full = (1 << g.n) - 1
    assert _lowest_max_degree(g.masks, full) == 0
    assert _documented_rule(g.masks, full) == 1
    poly, trace = _solved_masks(lambda: independence_polynomial(g))
    # one pivot step; both children close as hub leaves and path leaves
    assert trace == [full, full & ~(1 << 1), full & ~(g.masks[1] | 1 << 1)]
    assert poly.coeffs == count_vector(g)


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


def _shuffled(rng: random.Random, n: int, edges) -> Graph:
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _single_hub(rng: random.Random) -> Graph:
    """One hub and 3-7 arms: paths of 1-6 vertices joined to the hub at one
    end or, from 2 vertices up, at both ends (a triangle at 2), ids
    shuffled."""
    edges, n = [], 1          # the hub is vertex 0
    for _ in range(rng.randint(3, 7)):
        a = rng.randint(1, 6)
        if n + a > 18:      # keep the oracle's enumeration small
            a = 1
        arm = list(range(n, n + a))
        edges += [(0, arm[0])] + list(zip(arm, arm[1:]))
        if a >= 2 and rng.random() < 0.5:
            edges.append((0, arm[-1]))
        n += a
    return _shuffled(rng, n, edges)


def test_hub_leaf_tadpoles_and_triangle_arms():
    rng = random.Random(89)
    for m in range(3, 12):
        for tail in range(1, 8):
            # a cycle C_m with a path of `tail` vertices at one cycle vertex:
            # the rest of the cycle is an arm joined to the hub at both ends
            edges = [(i, (i + 1) % m) for i in range(m)] + [(0, m)] + [(m + i, m + i + 1) for i in range(tail - 1)]
            g = _shuffled(rng, m + tail, edges)
            assert independence_polynomial(g).coeffs == count_vector(g)
    for triangles in range(1, 6):
        for pendants in range(3):
            # triangles and pendant vertices at one hub: arms of size 2 with
            # both vertices joined to the hub, and arms of size 1
            edges = [(0, v) for v in range(1, 2 * triangles + pendants + 1)]
            edges += [(2 * t + 1, 2 * t + 2) for t in range(triangles)]
            n = 2 * triangles + pendants + 1
            if n - 1 < 3:
                continue
            g = _shuffled(rng, n, edges)
            assert independence_polynomial(g).coeffs == count_vector(g)


def test_hub_leaf_random_single_hub_graphs():
    rng = random.Random(97)
    for _ in range(60):
        g = _single_hub(rng)
        assert sum(len(a) >= 3 for a in g.adj) == 1
        assert independence_polynomial(g).coeffs == count_vector(g)


def test_regular_graphs_match_the_lowest_id_pivot():
    # 30-64 vertices is past the brute-force oracle; the previous pivot rule
    # takes a different path through the same recurrence.  At 62 vertices
    # only d = 3: the lowest-id rule takes about a second on each of d = 4, 5
    rng = random.Random(101)
    graphs = [_random_regular(rng, n, d) for d in (3, 4, 5) for n in (30, 36, 48)]
    graphs.append(_random_regular(rng, 62, 3))
    for n, p in ((48, 0.15), (56, 0.1), (62, 0.15), (64, 0.05)):
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    graphs.append(Graph(56, [(v, (v + s) % 56) for v in range(56) for s in (1, 4)]))
    for g in graphs:
        assert independence_polynomial(g) == independence_polynomial(g, pivot=_lowest_max_degree)


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
    # one cap for every graph, forest or not: the Graph type's, so the
    # engine and the forest DP take every graph there is
    for make in (empty_graph, path_graph, cycle_graph, complete_graph):
        assert independence_polynomial(make(64)).coeffs[:2] == (1, 64)
        with pytest.raises(ResourceLimitError, match="^graph: 65 vertices exceeds limit 64$"):
            independence_polynomial(make(65))
    assert independence_polynomial_tree(path_graph(64)) == independence_polynomial(path_graph(64))
    with pytest.raises(ResourceLimitError, match="^graph: 65 vertices exceeds limit 64$"):
        independence_polynomial_tree(path_graph(65))


def test_slot_holds_the_widest_coefficient():
    # a coefficient of an n-vertex graph is at most C(n, n // 2); raising the
    # vertex cap past what SLOT bits hold must fail here
    assert comb(VERTEX_LIMIT, VERTEX_LIMIT // 2) < 2**SLOT


def test_packed_slots_at_the_forest_cap():
    empty = independence_polynomial(empty_graph(64)).coeffs
    assert empty == tuple(comb(64, k) for k in range(65))
    assert max(empty) == comb(64, 32)
    one_plus_x = IntPolynomial((1, 1))
    assert independence_polynomial(star_graph(63)) == one_plus_x**63 + IntPolynomial((0, 1))
    # a graph with cycles, under the same cap
    k20_20 = complete_multipartite_graph([20, 20])
    assert independence_polynomial(k20_20) == 2 * one_plus_x**20 - IntPolynomial((1,))
    assert independence_polynomial(path_graph(64)).coeffs == tuple(comb(65 - j, j) for j in range(33))


def test_random_forests_at_the_cap_match_the_tree_dp():
    rng = random.Random(61)
    for _ in range(12):
        n = rng.randint(41, 64)
        edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.9]
        perm = rng.sample(range(n), n)
        forest = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert independence_polynomial(forest) == independence_polynomial_tree(forest)


def test_random_coronas_at_the_cap_match_the_transform():
    # the paper's transform at 42-64 vertices: the engine on G* against the
    # binomial sum over the skeleton's coefficients
    rng = random.Random(131)
    for k in range(21, 33):
        p = rng.choice((0.1, 0.2, 0.3))
        g = Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p])
        star = corona(g)
        assert star.n == 2 * k
        assert independence_polynomial(star) == corona_coefficients(independence_polynomial(g), k)


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
        assert independence_polynomial(t).degree == brute_alpha(t)


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
