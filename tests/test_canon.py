import math
import random

import pytest

from coronapoly import canon
from coronapoly.canon import (
    CONNECTED_GRAPH_COUNTS,
    GRAPH_COUNTS,
    TREE_COUNTS,
    are_isomorphic,
    automorphism_group,
    canonical_code,
    enumerate_graphs,
    enumerate_trees,
)
from coronapoly.errors import ResourceLimitError
from coronapoly.graphs import (
    Graph,
    _from_masks,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    path_graph,
)
from coronapoly.indpoly import independence_polynomial
from coronapoly.suites import default_corpus
from knowngraphs import EQUAL_TREES10_A, EQUAL_TREES10_B, PAIR5_A, PAIR5_B
from oracles import (
    center_rooted_forest_code,
    forest_code_graph,
    general_code_masks,
    orbit_representative_tree_levels,
    refine_reference,
    union_find_is_forest,
    unpruned_graph_levels,
)


def test_relabeling_invariance():
    p = path_graph(4)
    reversed_p = Graph(4, [(3, 2), (2, 1), (1, 0)])
    assert canonical_code(p) == canonical_code(reversed_p)
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_code(g) == canonical_code(h)


def test_distinguishes_equal_polynomial_pairs():
    assert canonical_code(PAIR5_A) != canonical_code(PAIR5_B)
    assert canonical_code(EQUAL_TREES10_A) != canonical_code(EQUAL_TREES10_B)
    assert not are_isomorphic(PAIR5_A, PAIR5_B)


def test_forest_codes_cover_components():
    f1 = disjoint_union(path_graph(3), path_graph(2))
    f2 = disjoint_union(path_graph(2), path_graph(3))
    assert canonical_code(f1) == canonical_code(f2)
    assert canonical_code(f1) != canonical_code(path_graph(5))


def test_forest_code_matches_center_rooted_encoder():
    # one leaf-peeling pass against centers-then-recursion, byte for byte:
    # every tree on at most 14 vertices, those on at most 12 relabelled too,
    # then seeded relabelled forests, up to the 64-vertex cap
    trees = [t for n in range(1, 15) for t in enumerate_trees(n)]
    assert len(trees) == sum(TREE_COUNTS[n] for n in range(1, 15))
    rng = random.Random(22)
    for t in trees:
        assert canon._forest_code(t) == center_rooted_forest_code(t), list(t.edges())
        if t.n <= 12:
            perm = rng.sample(range(t.n), t.n)
            r = Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()])
            assert canon._forest_code(r) == center_rooted_forest_code(r) == canon._forest_code(t)
    rng = random.Random(163)
    for _ in range(3000):
        n = rng.randint(0, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        f = Graph(n, [(perm[v], perm[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.8])
        assert canon._forest_code(f) == center_rooted_forest_code(f), list(f.edges())
    for _ in range(400):
        n = rng.randint(41, 64)
        perm = rng.sample(range(n), n)
        f = Graph(n, [(perm[v], perm[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.9])
        assert canon._forest_code(f) == center_rooted_forest_code(f), list(f.edges())


def _old_flow_code(g):
    """The code as the package computed it before the leaf peel told
    forests apart: a forest test first, then the center-rooted encoder or
    the search's code."""
    if union_find_is_forest(g):
        return center_rooted_forest_code(g)
    width = (g.n * (g.n - 1) // 2 + 7) // 8
    return b"G" + bytes([g.n]) + canon._search(g.masks)[0].to_bytes(width, "big")


def _relabelled(rng, n, edges):
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_codes_match_the_old_flow():
    # the catalog up to 7 vertices, seeded graphs with fewer than n edges
    # yet a cycle (a cycle with pendant trees beside a forest), seeded
    # forests up to the cap, K_1 and the empty graphs on 0 and 3 vertices
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    rng = random.Random(230)
    cyclic = []
    for _ in range(400):
        k = rng.randint(3, 12)
        n = rng.randint(k + 1, 30)
        # vertex k starts the forest; later vertices hang anywhere below them
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(v, rng.randrange(v)) for v in range(k + 1, n) if rng.random() < 0.8]
        cyclic.append(_relabelled(rng, n, edges))
    forests = []
    for _ in range(200):
        n = rng.randint(41, 64)
        forests.append(_relabelled(rng, n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.9]))
    small = [Graph(0), Graph(1), Graph(3)]
    for g in graphs + cyclic + forests + small:
        assert canonical_code(g) == _old_flow_code(g), (g.n, list(g.edges()))
    for g in graphs + cyclic:
        if not union_find_is_forest(g):
            assert canon._forest_code(g) is None, (g.n, list(g.edges()))
    assert all(g.num_edges < g.n and not union_find_is_forest(g) for g in cyclic)
    assert sum(not union_find_is_forest(g) for g in graphs) > 1000


def test_code_cap_messages():
    # the cap is the Graph type's: a forest, a cycle beside isolated
    # vertices and a cycle are coded at 64 vertices, and at 65 each gets
    # the same refusal, before there is a graph to code
    makers = (path_graph, lambda n: disjoint_union(cycle_graph(31), Graph(n - 31)), cycle_graph)
    for make, kind in zip(makers, b"TGG"):
        code = canonical_code(make(64))
        assert code[:2] == bytes([kind, 64])
        with pytest.raises(ResourceLimitError, match=r"^graph: 65 vertices exceeds limit 64$"):
            make(65)


def test_refine_matches_reference(monkeypatch):
    # every refinement the search makes, on catalog levels <= 7 and on
    # seeded G(n, p), against the refinement with a count table per splitter
    refine = canon._refine
    checked = []

    def both(masks, cells, queue):
        # the cells in order, and the splitters queued in the same order
        reference_queue = list(queue)
        expect = refine_reference(masks, list(cells), reference_queue)
        got = refine(masks, cells, queue)
        assert (got, queue) == (expect, reference_queue), (masks, cells)
        checked.append(masks)
        return got

    monkeypatch.setattr(canon, "_refine", both)
    _clear_graph_levels()
    assert len(enumerate_graphs(7)) == GRAPH_COUNTS[7]
    catalog = len(checked)
    rng = random.Random(500)
    for _ in range(500):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        canon._search(g.masks)
    assert catalog > 2000 and len(checked) > catalog + 500


def test_code_limits():
    # forests and other graphs share the cap of 64 vertices
    assert canonical_code(path_graph(64))[:2] == b"T" + bytes([64])
    assert canonical_code(cycle_graph(64))[:2] == b"G" + bytes([64])
    with pytest.raises(ResourceLimitError):
        canonical_code(cycle_graph(65))


def test_tree_counts():
    canon._tree_level.cache_clear()
    for n, expect in list(TREE_COUNTS.items())[:10]:
        trees = enumerate_trees(n)
        assert len(trees) == expect
        codes = {canonical_code(t) for t in trees}
        assert len(codes) == expect
    # each level was grown once, from the memoised level below it
    assert canon._tree_level.cache_info().misses == 10


def test_tree_levels_match_the_orbit_representative_reference():
    # a leaf at every vertex, the first child kept per forest code: vertices
    # of one orbit give one code, and the lowest of them comes first, so each
    # level is the orbit-representative catalog's, mask for mask and in order
    for n, level in enumerate(orbit_representative_tree_levels(12), start=1):
        assert [t.masks for t in enumerate_trees(n)] == [t.masks for t in level], n


def test_tree_enumeration_range():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ResourceLimitError):
        enumerate_trees(17)


def test_graph_counts_small():
    for n in range(1, 9):
        gs = enumerate_graphs(n)
        assert len(gs) == GRAPH_COUNTS[n]
        assert sum(1 for g in gs if len(g.adj) == n) == len(gs)
        cc = enumerate_graphs(n, connected=True)
        assert len(cc) == CONNECTED_GRAPH_COUNTS[n]


def test_graph_enumeration_caps():
    with pytest.raises(ResourceLimitError):
        enumerate_graphs(9)
    with pytest.raises(ValueError):
        enumerate_graphs(0)


def _networkx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _networkx_automorphisms(g):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    h = _networkx_graph(nx, g)
    return [tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter()]


def test_automorphism_group_orders_against_networkx():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            gens, order = automorphism_group(g)
            assert order == len(_networkx_automorphisms(g))
            for sigma in gens:
                assert sorted(sigma) == list(range(n))
                assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())


def test_orbit_minima_use_the_whole_group():
    # a subset is kept iff no automorphism maps it to a smaller mask
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            auts = _networkx_automorphisms(g)
            expect = [
                s for s in range(1 << n)
                if all(s <= sum(1 << a[i] for i in range(n) if (s >> i) & 1) for a in auts)
            ]
            gens, _ = automorphism_group(g)
            # an orbit keeps subset size: a floor drops the smaller subsets only
            for least in range(n + 2):
                assert canon._subset_orbit_minima(n, gens, least) == [
                    s for s in expect if s.bit_count() >= least
                ]


def test_pruned_levels_equal_unpruned_reference():
    # the same classes as plain augmentation, compared as code multisets
    for n, level in enumerate(unpruned_graph_levels(7), start=1):
        assert sorted(map(canonical_code, enumerate_graphs(n))) == list(map(canonical_code, level))


def _clear_graph_levels():
    canon._graph_level.cache_clear()
    canon._level_generators.cache_clear()


def test_level_eight_classes():
    level = enumerate_graphs(8)
    assert len(set(map(canonical_code, level))) == len(level) == GRAPH_COUNTS[8] == 12346
    assert sum(map(is_connected, level)) == CONNECTED_GRAPH_COUNTS[8] == 11117
    # generation order depends on nothing a fresh build could change
    _clear_graph_levels()
    assert [g.masks for g in enumerate_graphs(8)] == [g.masks for g in level]


def test_children_keep_their_parents_labelling():
    # deleting the last vertex gives back a parent of the level below, mask
    # for mask; parents come in level order, and each parent's
    # neighbourhoods in increasing mask order
    for n in range(2, 9):
        parents = {g.masks: i for i, g in enumerate(enumerate_graphs(n - 1))}
        last = 1 << (n - 1)
        keys = []
        for g in enumerate_graphs(n):
            parent = tuple(m & ~last for m in g.masks[:-1])
            assert parent in parents
            keys.append((parents[parent], g.masks[-1]))
        assert keys == sorted(set(keys))


def test_searches_only_on_invariant_ties(monkeypatch):
    calls = []
    search = canon._search
    monkeypatch.setattr(canon, "_search", lambda masks: calls.append(masks) or search(masks))
    _clear_graph_levels()
    assert len(enumerate_graphs(7)) == GRAPH_COUNTS[7]
    # 534 tie searches on levels 2-7, and one generator search for each of
    # the 208 graphs of levels 1-6; level 7's generators are never built
    assert len(calls) == 742
    # the default corpus reads levels 1-6 from the full levels and builds
    # level 7 connected only, whose disconnected children get no search
    calls.clear()
    _clear_graph_levels()
    assert len(default_corpus(7)) == sum(CONNECTED_GRAPH_COUNTS[n] for n in range(1, 8))
    assert len(calls) == 640
    assert canon._graph_level.cache_info().misses == 7


def test_connected_levels_equal_filtered_full_levels():
    # a connected level skips the children that miss a parent's component,
    # and keeps the rest in the full level's order, mask for mask
    _clear_graph_levels()
    for n in range(1, 8):
        connected = enumerate_graphs(n, connected=True)
        full = enumerate_graphs(n)
        assert [g.masks for g in connected] == [g.masks for g in full if is_connected(g)]
        assert len(connected) == CONNECTED_GRAPH_COUNTS[n]


def test_parent_degrees_decide_most_children(monkeypatch):
    # of the 2,589 neighbourhoods at least as large as the parent's top
    # degree, the parent's degree masks decide 1,553: only 1,036 children
    # tie v on degree and reach the neighbour-degree invariant
    calls = []
    child = canon._canonical_child
    monkeypatch.setattr(
        canon, "_canonical_child", lambda masks, tied: calls.append(tied) or child(masks, tied)
    )
    _clear_graph_levels()
    assert len(enumerate_graphs(7)) == GRAPH_COUNTS[7]
    assert len(calls) == 1036
    assert all(calls)
    # level 7 built connected only: 891 children reach the invariant
    calls.clear()
    _clear_graph_levels()
    default_corpus(7)
    assert len(calls) == 891


def _cayley_z4_squared(steps):
    """The Cayley graph of Z_4 x Z_4 with the given generating steps."""
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in steps:
                u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
                edges.add((min(u, v), max(u, v)))
    return Graph(16, sorted(edges))


SHRIKHANDE = _cayley_z4_squared([(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)])
ROOK4 = _cayley_z4_squared([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])   # K_4 x K_4


def _is_automorphism(g, sigma):
    return sorted(sigma) == list(range(g.n)) and all(
        g.has_edge(sigma[u], sigma[v]) for u, v in g.edges()
    )


def test_strongly_regular_pair_is_told_apart():
    # both are SRG(16, 6, 2, 2): refinement alone cannot split either one
    for g in (SHRIKHANDE, ROOK4):
        assert {len(a) for a in g.adj} == {6}
    assert canonical_code(SHRIKHANDE) != canonical_code(ROOK4)
    for g, expect in ((SHRIKHANDE, 192), (ROOK4, 1152)):
        gens, order = automorphism_group(g)
        assert order == expect
        assert all(_is_automorphism(g, sigma) for sigma in gens)


def test_automorphism_group_closed_forms():
    for n in range(1, 31):
        gens, order = automorphism_group(complete_graph(n))
        assert order == math.factorial(n)
        assert all(sorted(sigma) == list(range(n)) for sigma in gens)
    squares = {x * x % 13 for x in range(1, 13)}
    paley13 = Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13) if v - u in squares])
    assert automorphism_group(paley13)[1] == 13 * 6
    triangles = disjoint_union(*[complete_graph(3)] * 10)
    gens, order = automorphism_group(triangles)
    assert order == 6 ** 10 * math.factorial(10)
    assert all(_is_automorphism(triangles, sigma) for sigma in gens)
    # near the cap: Paley(61), of order 61 * 30, and the 8 x 8 rook's graph
    # K_8 x K_8, of order 2 * (8!)^2; a seeded relabelling keeps the code
    squares = {x * x % 61 for x in range(1, 61)}
    paley61 = Graph(61, [(u, v) for u in range(61) for v in range(u + 1, 61) if v - u in squares])
    rook8 = Graph(
        64, [(u, v) for u in range(64) for v in range(u + 1, 64) if u // 8 == v // 8 or u % 8 == v % 8]
    )
    rng = random.Random(61)
    for g, expect in ((paley61, 61 * 30), (rook8, 2 * math.factorial(8) ** 2)):
        gens, order = automorphism_group(g)
        assert order == expect
        assert all(_is_automorphism(g, sigma) for sigma in gens)
        assert canonical_code(_relabelled(rng, g.n, list(g.edges()))) == canonical_code(g)


def test_code_at_the_general_cap():
    code = canonical_code(complete_graph(64))
    # every one of the 2016 lower-triangle bits is set
    assert code == b"G" + bytes([64]) + ((1 << 2016) - 1).to_bytes(252, "big")


def _degree_preserving_swap(rng, edges):
    """Replace edges {a, b}, {c, d} by {a, d}, {c, b}, when both are new."""
    present = set(edges)
    for _ in range(100):
        (a, b), (c, d) = rng.sample(sorted(present), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & present:
            return sorted(present - {(a, b), (min(c, d), max(c, d))} | new)
    return sorted(present)


def test_codes_against_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(8)
    for n in [*range(11, 31), *range(31, 65, 3)]:
        for p in (0.2, 0.5):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = Graph(n, [(perm[u], perm[v]) for u, v in edges])
            assert canonical_code(g) == canonical_code(relabelled)
            for h in (relabelled, Graph(n, _degree_preserving_swap(rng, edges))):
                assert sorted(map(len, g.adj)) == sorted(map(len, h.adj))
                same = nx.is_isomorphic(_networkx_graph(nx, g), _networkx_graph(nx, h))
                assert (canonical_code(g) == canonical_code(h)) == same


def test_codes_decode_to_their_graphs():
    # a code spells out a relabelling of its graph, so equal codes mean one
    # polynomial even if the search were not canonical
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)
    graphs = []
    for n in range(2, 31):
        for p in (0.15, 0.5, 0.85):
            graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for _ in range(60):
        n = rng.randint(0, 62)
        perm = rng.sample(range(n), n)
        # each vertex joins an earlier one or stays a new root: isolated vertices too
        graphs.append(Graph(n, [(perm[v], perm[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.85]))
    # two-centre trees: even paths and a double star, relabelled
    for t in (path_graph(2), path_graph(10), path_graph(62),
              Graph(12, [(0, 1)] + [(i % 2, i) for i in range(2, 12)])):
        perm = rng.sample(range(t.n), t.n)
        graphs.append(Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))
    kinds = set()
    for g in graphs:
        code = canonical_code(g)
        kinds.add(code[:1])
        h = _from_masks(general_code_masks(code)) if code[:1] == b"G" else forest_code_graph(code)
        assert nx.is_isomorphic(_networkx_graph(nx, g), _networkx_graph(nx, h)), list(g.edges())
        assert independence_polynomial(h) == independence_polynomial(g)
        assert canonical_code(h) == code
    assert kinds == {b"G", b"T"}
