import math
import pickle
import random

import pytest

from coronapoly.errors import GraphParseError, ResourceLimitError
from coronapoly.graphs import (
    Graph,
    alpha,
    complete_graph,
    complete_multipartite_graph,
    corona,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    girth,
    is_claw_free,
    is_connected,
    is_forest,
    is_star,
    is_tree,
    is_very_well_covered,
    is_well_covered,
    maximal_stable_sets,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_edges_form_perfect_matching,
    spider_graph,
    star_graph,
)
from corpus import graphs_upto, trees_upto
from knowngraphs import DENSE6_A, PAIR6_A
from oracles import brute_alpha, brute_is_claw_free, brute_is_well_covered


def _random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return Graph(n, edges)


# -- construction -------------------------------------------------------------


def test_construction_invariants():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate collapses
    assert g.num_edges == 2
    assert g.adj == ((1,), (0, 2), (1,))
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_adjacency_symmetry_random():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(1, 9))
        for u in range(g.n):
            assert u not in g.adj[u]
            for v in g.adj[u]:
                assert u in g.adj[v]


def _edge_inputs():
    """(graph, n, edge list it was built from), each edge possibly reversed,
    repeated or out of order."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        edges += rng.sample(edges, len(edges) // 3)
        rng.shuffle(edges)
        yield Graph(n, edges), n, edges
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    yield path_graph(7), 7, [(i, i + 1) for i in range(6)]
    yield cycle_graph(9), 9, [(i, (i + 1) % 9) for i in range(9)]
    yield complete_graph(6), 6, [(u, v) for u in range(6) for v in range(6) if u != v]
    yield star_graph(5), 6, [(0, i) for i in range(1, 6)]
    yield corona(cycle_graph(5)), 10, cycle + [(i, 5 + i) for i in range(5)]
    parts = [0, 0, 1, 1, 1, 2]
    yield complete_multipartite_graph([2, 3, 1]), 6, [
        (u, v) for u in range(6) for v in range(6) if parts[u] != parts[v]
    ]
    edges = [(0, 1), (1, 0), (1, 2), (0, 1), (3, 2)]
    yield parse_edge_list("4\n" + "".join(f"{u} {v}\n" for u, v in edges)), 4, edges


def test_structure_matches_the_input_edge_list():
    for g, n, edges in _edge_inputs():
        ref = [set() for _ in range(n)]
        for u, v in edges:
            ref[u].add(v)
            ref[v].add(u)
        assert g.n == n
        assert g.adj == tuple(tuple(sorted(s)) for s in ref)
        assert g.num_edges == sum(map(len, ref)) // 2
        assert [g.degree(v) for v in range(n)] == [len(s) for s in ref]
        assert list(g.edges()) == sorted({(min(u, v), max(u, v)) for u, v in edges})
        same = Graph(n, sorted(g.edges(), reverse=True))
        assert same == g and hash(same) == hash(g)
        if g.num_edges:
            assert Graph(n, list(g.edges())[1:]) != g


def test_pickle_round_trip():
    assert Graph.__slots__ == ("n", "masks")
    for g in (empty_graph(0), path_graph(5), corona(cycle_graph(6)), DENSE6_A):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            h = pickle.loads(pickle.dumps(g, protocol))
            assert h == g and hash(h) == hash(g) and h.masks == g.masks


# -- graph6 ------------------------------------------------------------------


def test_parse_graph6_basics():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.num_edges == 1
    empty3 = parse_graph6("B?")
    assert empty3.n == 3 and empty3.num_edges == 0
    g = parse_graph6("DQc")
    assert g.n == 5
    assert encode_graph6(g) == "DQc"


def test_graph6_round_trip_random():
    # oracle: an independent textbook encoder of the upper-triangle bits
    def reference_encode(g):
        bits = "".join(
            "1" if g.has_edge(i, j) else "0" for j in range(1, g.n) for i in range(j)
        )
        bits += "0" * (-len(bits) % 6)
        return chr(g.n + 63) + "".join(
            chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6)
        )

    rng = random.Random(5)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(0, 12))
        s = reference_encode(g)
        assert encode_graph6(g) == s
        assert parse_graph6(s) == g


def test_parse_graph6_errors():
    with pytest.raises(GraphParseError, match="offset 0"):
        parse_graph6("~??")  # long form rejected
    with pytest.raises(GraphParseError, match="offset 1"):
        parse_graph6("A!")
    with pytest.raises(GraphParseError, match="trailing garbage"):
        parse_graph6("A__")
    with pytest.raises(GraphParseError, match="truncated"):
        parse_graph6("D")
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("A" + chr(63 + 0b010000))  # bit beyond the single pair
    # a non-ASCII character must not turn into a legal byte such as "?"
    with pytest.raises(GraphParseError, match="non-ASCII character at offset 1"):
        parse_graph6("Aé")


def test_graph6_header_stripped():
    assert parse_graph6(">>graph6<<A_").num_edges == 1


def test_graph6_round_trip_at_size_cap():
    rng = random.Random(19)
    g = _random_graph(rng, 62)
    s = encode_graph6(g)
    assert parse_graph6(s) == g
    assert encode_graph6(parse_graph6(s)) == s
    with pytest.raises(ValueError):
        encode_graph6(_random_graph(rng, 63))


# -- edge lists ----------------------------------------------------------------


def test_parse_edge_list():
    assert parse_edge_list("2\n0 1") == complete_graph(2)
    assert parse_edge_list("4\n0 1\n1 2\n2 3") == path_graph(4)
    g = parse_edge_list("3\n0 1\n0 1")  # duplicate collapses
    assert g.num_edges == 1 and g.n == 3
    g = parse_edge_list("# comment\n\n3\n0 1  # inline\n")
    assert g.num_edges == 1


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_edge_list("2\n1 1")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_edge_list("2\n0 2")
    with pytest.raises(GraphParseError):
        parse_edge_list("")
    with pytest.raises(GraphParseError):
        parse_edge_list("2\n0 1 2")


# -- families ------------------------------------------------------------------


def test_family_shapes():
    assert complete_graph(3).num_edges == 3
    assert cycle_graph(5).num_edges == 5
    assert star_graph(4).degree(0) == 4
    assert complete_multipartite_graph([2, 3]).num_edges == 6
    km = complete_multipartite_graph([2, 2, 2])
    assert km.num_edges == 12
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        complete_multipartite_graph([])


def test_spider_structure():
    s6 = spider_graph(6)
    assert s6.n == 14
    degrees = sorted(s6.degree(v) for v in range(s6.n))
    # center of degree 7, six branch vertices of degree 2, seven pendants
    assert degrees == [1] * 7 + [2] * 6 + [7]
    assert is_tree(s6)
    with pytest.raises(ValueError):
        spider_graph(1)


def test_corona_labeling():
    g = path_graph(3)
    star = corona(g)
    assert star.n == 6
    for i in range(3):
        assert star.adj[3 + i] == (i,)
    assert corona(Graph(1)) == complete_graph(2)


def test_corona_alpha_is_skeleton_order():
    rng = random.Random(11)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 8))
        assert brute_alpha(corona(g)) == g.n
        assert alpha(corona(g)) == g.n


def test_corona_pendant_matching():
    from coronapoly.graphs import pendant_edges

    rng = random.Random(13)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 8))
        if any(g.degree(v) == 0 for v in range(g.n)):
            continue
        star = corona(g)
        assert len(pendant_edges(star)) == g.n
        assert pendant_edges_form_perfect_matching(star)


# -- predicates -----------------------------------------------------------------


def test_girth():
    assert girth(cycle_graph(7)) == 7
    assert girth(path_graph(6)) == math.inf
    assert girth(corona(cycle_graph(5))) == 5
    assert girth(complete_graph(4)) == 3
    rng = random.Random(3)
    for _ in range(20):
        g = _random_graph(rng, 8)
        if girth(g) != math.inf:
            assert girth(corona(g)) == girth(g)


def test_pendant_matching_cases():
    assert pendant_edges_form_perfect_matching(path_graph(4))
    assert not pendant_edges_form_perfect_matching(path_graph(3))
    assert pendant_edges_form_perfect_matching(complete_graph(2))
    assert not pendant_edges_form_perfect_matching(empty_graph(2))


def test_alpha_examples():
    for n in range(1, 8):
        assert alpha(complete_graph(n)) == 1
    assert alpha(cycle_graph(7)) == 3
    assert alpha(empty_graph(6)) == 6
    with pytest.raises(ResourceLimitError):
        alpha(empty_graph(41))


def test_alpha_against_oracle():
    for g in graphs_upto(6):
        assert alpha(g) == brute_alpha(g)


def test_well_covered_examples():
    assert is_well_covered(cycle_graph(7))
    assert not is_well_covered(path_graph(3))
    assert not is_well_covered(DENSE6_A)
    with pytest.raises(ResourceLimitError):
        is_well_covered(empty_graph(25))


def test_well_covered_against_oracle():
    for g in graphs_upto(6):
        assert is_well_covered(g) == brute_is_well_covered(g)


def test_maximal_stable_sets_are_maximal():
    g = PAIR6_A
    sets = list(maximal_stable_sets(g))
    assert sorted(sets) == sorted(set(sets))
    full = (1 << g.n) - 1
    for s in sets:
        for v in range(g.n):
            if not (s >> v) & 1:
                assert g.masks[v] & s, "set should not be extendable"
    del full


def test_very_well_covered():
    assert is_very_well_covered(corona(path_graph(3)))
    assert not is_very_well_covered(cycle_graph(7))
    assert not is_very_well_covered(Graph(1))
    assert not is_very_well_covered(disjoint_union(complete_graph(2), Graph(1)))


def test_claw_free():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(path_graph(7))
    assert is_claw_free(cycle_graph(7))
    for g in graphs_upto(6):
        assert is_claw_free(g) == brute_is_claw_free(g)


def test_is_star():
    assert is_star(complete_graph(2))
    assert is_star(star_graph(5))
    assert not is_star(path_graph(4))
    assert not is_star(Graph(1))


def test_tree_well_covered_iff_pendant_matching():
    # holds for every tree other than the single vertex
    for t in trees_upto(14):
        if t.n == 1:
            assert is_well_covered(t)
            continue
        assert is_well_covered(t) == pendant_edges_form_perfect_matching(t)


def test_girth6_well_covered_iff_pendant_matching():
    # connected, girth >= 6, not the 7-cycle and not K_1
    for g in graphs_upto(8, connected=True):
        if g.n == 1 or girth(g) < 6:
            continue
        if g.n == 7 and girth(g) == 7 and g.num_edges == 7:
            continue
        assert is_well_covered(g) == pendant_edges_form_perfect_matching(g)


def test_forest_tree_flags():
    assert is_forest(disjoint_union(path_graph(3), path_graph(2)))
    assert not is_tree(disjoint_union(path_graph(3), path_graph(2)))
    assert is_tree(path_graph(5))
    assert not is_forest(cycle_graph(4))
    assert is_connected(complete_graph(1))
