import gc
import math
import pickle
import random

import pytest

from coronapoly.errors import GraphParseError, ResourceLimitError
from coronapoly.graphs import (
    WELL_COVERED_LIMIT,
    Graph,
    StreamItem,
    _from_masks,
    alpha,
    centipede_graph,
    complement,
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
    item_graph6,
    item_parse,
    map_items,
    maximal_stable_sets,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_edges_form_perfect_matching,
    spider_graph,
    star_graph,
)
from corpus import graphs_upto, trees_upto
from knowngraphs import DENSE6_A, EMPTY65_GRAPH6, PAIR6_A
from oracles import (
    bitwise_parse_graph6,
    brute_alpha,
    brute_is_claw_free,
    brute_is_well_covered,
    union_find_is_forest,
)


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


# the empty graphs on 64 and 65 vertices: a long header, then n(n-1)/2
# zero bits in 336 and 347 bytes
_EMPTY_GRAPH6 = {64: "~?@?" + "?" * 336, 65: EMPTY65_GRAPH6}


# Every path that makes a Graph: (build, its argument at 64 vertices, its
# argument past 64, and the order it is refused at).  A corona doubles, so
# the spider, the centipede and the corona go from 64 to 66; past its
# skeleton's own cap, a spider or a centipede still names its own order.
_GRAPH_PATHS = {
    "Graph": (Graph, 64, 65, 65),
    "empty": (empty_graph, 64, 65, 65),
    "path": (path_graph, 64, 65, 65),
    "cycle": (cycle_graph, 64, 65, 65),
    "complete": (complete_graph, 64, 65, 65),
    "star": (star_graph, 63, 64, 65),
    "spider": (spider_graph, 31, 32, 66),
    "centipede": (centipede_graph, 32, 33, 66),
    "spider-70": (spider_graph, 31, 70, 142),
    "centipede-70": (centipede_graph, 32, 70, 140),
    "multipartite": (complete_multipartite_graph, (30, 34), (30, 35), 65),
    "corona": (lambda n: corona(cycle_graph(n)), 32, 33, 66),
    "disjoint_union": (lambda n: disjoint_union(cycle_graph(30), Graph(n - 30)), 64, 65, 65),
    "parse_graph6": (lambda n: parse_graph6(_EMPTY_GRAPH6[n]), 64, 65, 65),
    "parse_edge_list": (lambda n: parse_edge_list(f"{n}\n"), 64, 65, 65),
    "_from_masks": (lambda n: _from_masks((0,) * n), 64, 65, 65),
}


@pytest.mark.parametrize("name", _GRAPH_PATHS)
def test_every_path_to_a_graph_has_the_one_vertex_cap(name):
    build, at_cap, over, refused_at = _GRAPH_PATHS[name]
    assert build(at_cap).n == 64
    with pytest.raises(
        ResourceLimitError, match=rf"^graph: {refused_at} vertices exceeds limit 64$"
    ):
        build(over)


def test_the_cap_is_checked_before_any_edge_is_read():
    def edges():
        raise AssertionError("an edge was read")
        yield

    with pytest.raises(ResourceLimitError, match=r"^graph: 1000000000 vertices exceeds limit 64$"):
        Graph(10**9, edges())


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
        parse_graph6("~??")  # a long header cut short
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
    # the short form's last order, then the long form's first two and the
    # vertex cap
    rng = random.Random(19)
    for n in (62, 63, 64):
        g = _random_graph(rng, n)
        s = encode_graph6(g)
        assert len(s) == (1 if n < 63 else 4) + -(-n * (n - 1) // 12)
        assert parse_graph6(s) == g
        assert encode_graph6(parse_graph6(s)) == s


def test_graph6_long_header_is_the_specs():
    # byte 126, then n in 18 bits, big-endian, six bits a byte (McKay's
    # formats.txt); the edge bytes are the short form's
    assert encode_graph6(Graph(63))[:4] == "~??~"
    assert encode_graph6(Graph(64))[:4] == "~?@?"
    assert encode_graph6(Graph(64))[4:] == "?" * 336
    assert encode_graph6(path_graph(62))[0] == "}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("~??~", "truncated: need 326 edge bytes for n=63, got 0"),
        ("~??}", "long-form length header for n=62 at offset 0 (not canonical)"),
        ("~???", "long-form length header for n=0 at offset 0 (not canonical)"),
        ("~~??????", "8-byte length header at offset 0 (n >= 258048 not supported)"),
        ("~~", "8-byte length header at offset 0 (n >= 258048 not supported)"),
        ("~", "truncated length header at offset 0"),
        ("~?@", "truncated length header at offset 0"),
    ],
)
def test_long_header_refusals(text, message):
    # a long header for n <= 62 is not canonical, so a parsed line stays
    # its own encoding; both decoders give the same message
    assert _parse_outcome(parse_graph6, text) == _parse_outcome(bitwise_parse_graph6, text) == message


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return str(exc)


def test_parse_graph6_matches_the_bitwise_decoder():
    # every order up to the vertex cap, short and long form, sparse to
    # dense, then each string corrupted, its header included: both decoders
    # give the same graph or the same message
    rng = random.Random(83)
    for n in range(65):
        for p in (0.05, 0.3, 0.7):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            s = encode_graph6(g)
            assert parse_graph6(s) == bitwise_parse_graph6(s) == g
            at = rng.randrange(len(s))
            corrupt = [
                s[:-1],
                s + chr(rng.randint(63, 126)),
                s[:at] + chr(rng.randint(32, 127)) + s[at + 1:],
                s[:-1] + chr(63 + rng.randrange(64)),   # last byte: pad bits too
                "~" + s[1:],                            # byte 126 over the order
                s[:rng.randint(1, 4)],                  # a header cut short
                s[:1] + "~" + s[2:],                    # the 8-byte marker
                s[:rng.randint(0, 3)] + chr(rng.randint(63, 126)) + s[4:],
            ]
            for text in corrupt:
                assert _parse_outcome(parse_graph6, text) == _parse_outcome(bitwise_parse_graph6, text)


def test_every_padding_bit_is_named_at_its_offset():
    # each padding bit of the last byte set on its own, under no edges and
    # under all of them: both decoders name the last byte
    checked = 0
    for n in range(2, 14):
        need_bits = n * (n - 1) // 2
        pad_bits = -need_bits % 6
        for g in (Graph(n), complete_graph(n)):
            s = encode_graph6(g)
            for k in range(pad_bits):
                text = s[:-1] + chr(63 + (ord(s[-1]) - 63 | 1 << k))
                msg = f"nonzero padding bit at offset {len(s) - 1}"
                assert _parse_outcome(parse_graph6, text) == _parse_outcome(bitwise_parse_graph6, text) == msg
                checked += 1
    assert checked == 52


# -- stream items --------------------------------------------------------------


def test_map_items_pairs_each_named_item_with_its_verdict():
    g = path_graph(3)
    line = StreamItem("line 7", "Bw\n")
    pairs = list(map_items(lambda item: item.label, [g, line, "A_"]))
    assert pairs == [
        (StreamItem("item 0", g), "item 0"),
        (line, "line 7"),
        (StreamItem("item 2", "A_"), "item 2"),
    ]


def test_map_items_runs_the_map_to_its_end():
    # a forked map reaps its workers only when it is driven past its last
    # result, so the pairing must end on the map, not on the items
    ended = []

    def mapper(fn, items):
        yield from map(fn, items)
        ended.append(True)

    assert [v for _, v in map_items(lambda item: 2 * item.graph, [1, 2], mapper)] == [2, 4]
    assert ended == [True]


def test_item_graph6_of_a_line_is_its_graph_encoded():
    rng = random.Random(5)
    for n in range(1, 20):
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        text = encode_graph6(g)
        for line in (text, f" >>graph6<<{text}\r\n"):
            item = StreamItem("line 1", line)
            assert item_parse(item) == g and item_graph6(line) == text == item_graph6(g)
    with pytest.raises(GraphParseError, match="^line 3: "):
        item_parse(StreamItem("line 3", "A`"))  # nonzero padding
    with pytest.raises(GraphParseError, match="^line 4: "):
        item_parse(StreamItem("line 4", ">>graph6<< Bw"))  # its text would be " Bw"


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


def test_complement_is_the_edge_list_definition():
    rng = random.Random(19)
    for n in range(13):
        for _ in range(4):
            g = _random_graph(rng, n)
            h = complement(g)
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
            assert h == Graph(n, non_edges), g
            assert complement(h) == g


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
    # alpha is deg I(G) from the engine, which takes every Graph; there is
    # no Graph on 65 vertices to ask about
    assert alpha(empty_graph(64)) == 64
    assert alpha(cycle_graph(64)) == 32
    for make in (empty_graph, cycle_graph):
        with pytest.raises(ResourceLimitError, match=r"^graph: 65 vertices exceeds limit 64$"):
            alpha(make(65))


def test_alpha_against_oracle():
    for g in graphs_upto(6):
        assert alpha(g) == brute_alpha(g)


def test_alpha_and_clique_number_on_the_catalog():
    # the complement's alpha is the clique number verify_bounds reads
    for g in graphs_upto(7):
        assert alpha(g) == brute_alpha(g)
        h = complement(g)
        assert alpha(h) == brute_alpha(h)


def test_alpha_on_a_forest_corona_past_40_vertices():
    c = corona(path_graph(31))
    assert c.n == 62
    assert alpha(c) == 31
    assert is_very_well_covered(c)


def test_well_covered_examples():
    assert is_well_covered(cycle_graph(7))
    assert not is_well_covered(path_graph(3))
    assert not is_well_covered(DENSE6_A)
    with pytest.raises(ResourceLimitError):
        is_well_covered(empty_graph(25))


def test_well_covered_against_oracle():
    for g in graphs_upto(6):
        assert is_well_covered(g) == brute_is_well_covered(g)


def _enumerated_well_covered(g):
    """Well-coveredness from the maximal stable sets alone, past the
    pendant-matching test that `is_well_covered` makes first."""
    return len({s.bit_count() for s in maximal_stable_sets(g)}) == 1


def test_pendant_matching_graphs_are_well_covered_past_the_cap():
    # a maximal stable set takes one end of each pendant edge, so a graph
    # whose pendant edges form a perfect matching (every corona) is
    # well-covered: the enumeration agrees below the cap, and no cap applies
    rng = random.Random(41)
    for n in range(1, 13):
        star = corona(_random_graph(rng, n))
        assert is_well_covered(star) and _enumerated_well_covered(star)
    for n in range(13, 21):
        star = corona(_random_graph(rng, n))
        assert star.n > WELL_COVERED_LIMIT
        assert is_well_covered(star) and is_very_well_covered(star)
    # a K_2 component has two leaves, so more than n/2 in all
    assert is_well_covered(disjoint_union(corona(cycle_graph(12)), complete_graph(2)))
    # many leaves, but no pendant perfect matching: the cap still holds
    for g in (star_graph(25), disjoint_union(corona(cycle_graph(12)), path_graph(3), Graph(1))):
        assert g.n % 2 == 0 and 2 * sum(len(a) == 1 for a in g.adj) >= g.n
        with pytest.raises(ResourceLimitError):
            is_well_covered(g)


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


@pytest.mark.parametrize("g", [path_graph(25), cycle_graph(27)], ids=["P25", "C27"])
def test_very_well_covered_refuses_odd_order_past_the_enumeration_cap(g):
    # n = 2 alpha needs n even, so no maximal stable set is enumerated
    assert not is_very_well_covered(g)


def test_very_well_covered_by_its_pendant_matching_past_40_vertices(monkeypatch):
    # no forest, at the vertex cap: the pendant matching alone decides,
    # with no engine call
    from coronapoly import indpoly

    def _must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(indpoly, "independence_polynomial", _must_not_run)
    c = corona(cycle_graph(32))
    assert c.n == 64 and not is_forest(c)
    assert is_very_well_covered(c)


def test_very_well_covered_against_oracle():
    for g in graphs_upto(7):
        for h in (g, corona(g)):
            expect = all(h.masks) and brute_is_well_covered(h) and h.n == 2 * brute_alpha(h)
            assert is_very_well_covered(h) == expect, encode_graph6(h)


def test_claw_free():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(path_graph(7))
    assert is_claw_free(cycle_graph(7))
    # every graph on at most 7 vertices, disconnected ones included
    catalog = graphs_upto(7)
    assert len(catalog) == 1252
    for g in catalog:
        assert is_claw_free(g) == brute_is_claw_free(g)


def test_claw_free_on_random_graphs():
    rng = random.Random(13)
    seen = set()
    for n in range(1, 17):
        for p in (0.2, 0.5, 0.8):
            for _ in range(3):
                g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
                seen.add(is_claw_free(g))
                assert is_claw_free(g) == brute_is_claw_free(g)
    assert seen == {True, False}


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
        assert is_well_covered(t) == _enumerated_well_covered(t) == pendant_edges_form_perfect_matching(t)


def test_girth6_well_covered_iff_pendant_matching():
    # connected, girth >= 6, not the 7-cycle and not K_1
    for g in graphs_upto(8, connected=True):
        if g.n == 1 or girth(g) < 6:
            continue
        if g.n == 7 and girth(g) == 7 and g.num_edges == 7:
            continue
        assert is_well_covered(g) == _enumerated_well_covered(g) == pendant_edges_form_perfect_matching(g)


def test_forest_tree_flags():
    assert is_forest(disjoint_union(path_graph(3), path_graph(2)))
    assert not is_tree(disjoint_union(path_graph(3), path_graph(2)))
    assert is_tree(path_graph(5))
    assert not is_forest(cycle_graph(4))
    assert is_connected(complete_graph(1))


def test_is_forest_matches_union_find():
    rng = random.Random(59)
    graphs = [Graph(0), Graph(1), empty_graph(5), star_graph(6), cycle_graph(3)]
    graphs.append(disjoint_union(cycle_graph(4), path_graph(3), Graph(1)))   # unicyclic plus a tree
    graphs.append(disjoint_union(path_graph(4), star_graph(3), empty_graph(2)))
    graphs.append(disjoint_union(complete_graph(4), empty_graph(6)))   # fewer edges than vertices
    for _ in range(60):
        n = rng.randint(0, 12)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.choice([0.1, 0.2, 0.4])]))
    for _ in range(20):
        # a random tree, then maybe one extra edge (unicyclic) and a spare component
        n = rng.randint(2, 12)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        u, v = rng.sample(range(n), 2)
        if rng.random() < 0.5 and (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
        graphs.append(disjoint_union(Graph(n, edges), rng.choice([Graph(0), path_graph(3), cycle_graph(5)])))
    flags = [union_find_is_forest(g) for g in graphs]
    assert True in flags and False in flags
    for g, flag in zip(graphs, flags):
        assert is_forest(g) == flag, g


# -- memory ----------------------------------------------------------------------


def _recursive_searches():
    """One call per self-recursive search, each on input it has not seen."""
    from coronapoly import canon, indpoly, roots

    dense = _random_graph(random.Random(23), 9)
    return {
        "canonical_code": lambda: [canon.canonical_code(cycle_graph(12)) for _ in range(3)],
        "forest_code": lambda: canon.canonical_code(corona(path_graph(7))),
        "graph_level": lambda: canon._graph_level.__wrapped__(6, False),
        "connected_graph_level": lambda: canon._graph_level.__wrapped__(6, True),
        "independence_polynomial": lambda: indpoly.independence_polynomial(dense),
        "alpha": lambda: alpha(dense),
        "is_well_covered": lambda: (is_well_covered(dense), is_well_covered(corona(path_graph(5)))),
        "verify_bounds": lambda: roots.verify_bounds(corona(path_graph(4))),
    }


@pytest.mark.parametrize("name", list(_recursive_searches()))
def test_recursive_searches_leave_no_garbage(name):
    # a nested function that recurses by name keeps itself alive through its
    # closure; each search must break that cycle, so a call frees everything
    # by reference counting and leaves nothing for the cyclic collector
    call = _recursive_searches()[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
