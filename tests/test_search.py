import json
import random
from collections import OrderedDict

import pytest

from coronapoly import canon, search
from coronapoly.cli import main
from coronapoly.errors import ResourceLimitError
from coronapoly.graphs import (
    Graph,
    complete_graph,
    corona,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    is_tree,
    is_well_covered,
    parse_graph6,
    path_graph,
    star_graph,
)
from coronapoly.indpoly import independence_polynomial
from coronapoly.search import (
    conjecture2_scan,
    corona_equivalence_check,
    group_by_polynomial,
    hamidoune_scan,
    spider_uniqueness_scan,
    well_covered_trees,
)
from corpus import graphs_exactly, graphs_upto, relabelled_copies, trees_exactly
from knowngraphs import (
    C4_PLUS_K1,
    CHAIR_TREE,
    DENSE6_A,
    DENSE6_B,
    EMPTY65_GRAPH6,
    EQUAL_TREES10_A,
    EQUAL_TREES10_B,
    EQUAL_TREES10_POLY,
    PAIR5_A,
    PAIR5_B,
    PAIR5_POLY,
    PAIR6_A,
    PAIR6_B,
    PAIR6_POLY,
)


def test_known_pairs_classify_together():
    from oracles import isomorphic_by_permutation_search

    report = group_by_polynomial([PAIR5_A, PAIR5_B])
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.coefficients == PAIR5_POLY
    assert cls.all_isomorphic is False
    assert len(set(cls.codes)) == 2

    report = group_by_polynomial([PAIR6_A, PAIR6_B])
    assert report.classes[0].coefficients == PAIR6_POLY
    assert report.classes[0].all_isomorphic is False

    # re-verify the non-isomorphism verdicts by explicit permutation search
    assert not isomorphic_by_permutation_search(PAIR5_A, PAIR5_B)
    assert not isomorphic_by_permutation_search(PAIR6_A, PAIR6_B)
    assert not isomorphic_by_permutation_search(DENSE6_A, DENSE6_B)
    assert not isomorphic_by_permutation_search(EQUAL_TREES10_A, EQUAL_TREES10_B)
    assert isomorphic_by_permutation_search(PAIR5_A, PAIR5_A)


def test_verdicts_match_permutation_search():
    from oracles import isomorphic_by_permutation_search

    report = group_by_polynomial(graphs_upto(5))
    for cls in report.classes:
        graphs = [parse_graph6(m) for m in cls.members]
        pairwise_iso = all(
            isomorphic_by_permutation_search(graphs[0], h) for h in graphs[1:]
        )
        assert cls.all_isomorphic == pairwise_iso


def test_partition_recovers_input_multiset():
    graphs = graphs_upto(5, connected=True) * 2
    # a graph6 header is not part of the member text
    report = group_by_polynomial(graphs + [">>graph6<<A_"])
    members = [m for c in report.classes for m in c.members]
    assert sorted(members) == sorted([encode_graph6(g) for g in graphs] + ["A_"])
    assert report.graphs_seen == len(graphs) + 1


def test_order_independence():
    graphs = [encode_graph6(g) for g in graphs_upto(5)]
    a = group_by_polynomial(graphs)
    rng = random.Random(3)
    shuffled = graphs[:]
    rng.shuffle(shuffled)
    b = group_by_polynomial(shuffled)
    assert [(c.coefficients, sorted(c.members)) for c in a.classes] == [
        (c.coefficients, sorted(c.members)) for c in b.classes
    ]


def test_stream_errors_recorded_not_fatal():
    report = group_by_polynomial(["A_", "!!notgraph6!!", "B?"])
    assert report.graphs_seen == 2
    assert len(report.errors) == 1


def test_graph_past_the_vertex_cap_is_an_error_record():
    # a 63-vertex item is classified and named in graph6's long form; a
    # 65-vertex line is refused by its parse, and the report survives
    report = group_by_polynomial([EMPTY65_GRAPH6, path_graph(63), path_graph(5)])
    assert report.errors == ["item 0: graph: 65 vertices exceeds limit 64"]
    assert [c.members for c in report.classes] == [
        [encode_graph6(path_graph(5))], [encode_graph6(path_graph(63))],
    ]
    assert report.classes[1].members[0].startswith("~??~")



@pytest.fixture
def engine_calls(monkeypatch):
    """The order of every graph whose polynomial equal-poly computes, from
    an empty per-code table."""
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g.n)
        return independence_polynomial(g, *args, **kwargs)

    monkeypatch.setattr(search, "independence_polynomial", counted)
    monkeypatch.setattr(search, "_key_by_code", OrderedDict())
    return calls


def test_one_polynomial_per_code(tmp_path, capsys, engine_calls):
    bases = random.Random(5).sample(graphs_exactly(7, connected=True), 12)
    stream = tmp_path / "copies.g6"
    stream.write_text("".join(encode_graph6(g) + "\n" for g in relabelled_copies(bases, 8, 6)))
    argv = ["search", "--mode", "equal-poly", "--jobs", "1", "--output", "json"]
    assert main([*argv, "--input", str(stream)]) == 0
    assert len(engine_calls) == len(bases)
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs"] == 96 and payload["errors"] == []
    expect = sorted(independence_polynomial(g).to_json_coeffs() for g in bases)
    got = [c["polynomial"] for c in payload["classes"] for _ in range(len(c["members"]) // 8)]
    assert sorted(got) == expect
    assert all(c["all_isomorphic"] is (len(c["members"]) == 8) for c in payload["classes"])


def test_known_pairs_stay_apart_through_the_table(engine_calls):
    pairs = [(PAIR5_A, PAIR5_B), (PAIR6_A, PAIR6_B), (DENSE6_A, DENSE6_B),
             (EQUAL_TREES10_A, EQUAL_TREES10_B), (CHAIR_TREE, C4_PLUS_K1)]
    report = group_by_polynomial(relabelled_copies([g for pair in pairs for g in pair], 3, 7))
    assert len(engine_calls) == 2 * len(pairs)
    assert len(report.classes) == len(pairs)
    for cls in report.classes:
        assert len(cls.members) == 6 and len(set(cls.codes)) == 2
        assert cls.all_isomorphic is False


def test_table_is_bounded_and_least_recently_used(monkeypatch, engine_calls):
    monkeypatch.setattr(search, "_KEY_TABLE_SIZE", 3)
    b0, b1, b2, b3 = (cycle_graph(n) for n in (4, 5, 6, 7))
    # b0 is used again before b3 arrives, so b1 is the one evicted
    report = group_by_polynomial([b0, b1, b2, b0, b3, b0, b1])
    assert engine_calls == [4, 5, 6, 7, 5]
    assert len(search._key_by_code) == 3
    assert [len(c.members) for c in report.classes] == [3, 2, 1, 1]


def test_codes_over_their_cap_skip_the_table(engine_calls):
    # codes and the engine share the cap of 64 vertices: relabelled copies
    # of a graph on 31 or 64 vertices cost one engine run and get a verdict
    for n in (31, 64):
        c = cycle_graph(n)
        relabelled = Graph(n, [(3 * u % n, 3 * v % n) for u, v in c.edges()])
        report = group_by_polynomial([c, relabelled, c])
        (cls,) = report.classes
        assert cls.coefficients == independence_polynomial(c).coeffs
        assert len(cls.members) == 3 and cls.all_isomorphic is True and report.errors == []
    assert engine_calls == [31, 64] and len(search._key_by_code) == 2
    # a line over the cap is an error record from its parse, before the engine
    report = group_by_polynomial([EMPTY65_GRAPH6])
    assert report.classes == [] and report.graphs_seen == 0
    assert report.errors == ["item 0: graph: 65 vertices exceeds limit 64"]
    assert engine_calls == [31, 64]


def test_trees10_contains_known_class():
    report = group_by_polynomial(trees_exactly(10))
    targets = [c for c in report.classes if c.coefficients == EQUAL_TREES10_POLY]
    assert len(targets) == 1
    cls = targets[0]
    assert len(cls.members) >= 2
    assert cls.all_isomorphic is False
    codes = {encode_graph6(EQUAL_TREES10_A), encode_graph6(EQUAL_TREES10_B)}
    # members are canonical representatives, so compare up to isomorphism
    from coronapoly.canon import canonical_code

    member_codes = {canonical_code(parse_graph6(m)) for m in cls.members}
    known_codes = {canonical_code(parse_graph6(s)) for s in codes}
    assert known_codes <= member_codes


def test_corona_equivalence_check():
    assert corona_equivalence_check(EQUAL_TREES10_A, EQUAL_TREES10_B)
    assert corona_equivalence_check(complete_graph(2), path_graph(3))
    rng = random.Random(29)
    graphs = graphs_upto(6, connected=True)
    for _ in range(200):
        g, h = rng.choice(graphs), rng.choice(graphs)
        assert corona_equivalence_check(g, h)


def test_equal_polynomial_closed_under_corona():
    assert independence_polynomial(corona(EQUAL_TREES10_A)) == independence_polynomial(
        corona(EQUAL_TREES10_B)
    )
    u1 = disjoint_union(EQUAL_TREES10_A, EQUAL_TREES10_A)
    u2 = disjoint_union(EQUAL_TREES10_B, EQUAL_TREES10_B)
    assert independence_polynomial(u1) == independence_polynomial(u2)
    assert independence_polynomial(u1) == independence_polynomial(EQUAL_TREES10_A) ** 2


def test_classes_closed_under_corona():
    # every equivalence class found at small order stays one class after
    # taking coronas of all members
    report = group_by_polynomial(graphs_upto(6))
    for cls in report.nontrivial_classes():
        polys = {
            independence_polynomial(corona(parse_graph6(m))).coeffs
            for m in cls.members
        }
        assert len(polys) == 1, cls.members


def test_spider_uniqueness_small():
    report = spider_uniqueness_scan(6)
    assert report.violations == []
    # one star per skeleton order matches
    assert [n for n, _ in report.matches] == [2, 3, 4, 5, 6]
    for n, g6 in report.matches:
        from coronapoly.graphs import is_star

        assert is_star(parse_graph6(g6))


@pytest.mark.parametrize("cap", [0, -3])
def test_scan_caps_below_one_rejected(cap):
    def _items():
        raise AssertionError("the stream was read before the cap was checked")
        yield

    with pytest.raises(ValueError, match="skeleton cap must be >= 1"):
        spider_uniqueness_scan(cap)
    with pytest.raises(ValueError, match="tree-order cap must be >= 1"):
        conjecture2_scan(_items(), cap)


@pytest.mark.parametrize("max_order", [34, 35, 100])
def test_tree_order_past_the_catalog_cap_builds_no_level(max_order):
    # the trees on max_order // 2 > 16 vertices are refused up front: no
    # tree level is built, or even looked up, before the error
    def _items():
        raise AssertionError("the stream was read before the cap was checked")
        yield

    before = canon._tree_level.cache_info()
    with pytest.raises(ResourceLimitError, match="tree enumeration capped at 16 vertices"):
        well_covered_trees(max_order)
    with pytest.raises(ResourceLimitError, match="tree enumeration capped at 16 vertices"):
        conjecture2_scan(_items(), max_order)
    assert canon._tree_level.cache_info() == before


def test_well_covered_trees_catalog():
    trees = well_covered_trees(10)
    assert all(is_tree(t) for t in trees)
    assert all(is_well_covered(t) for t in trees)
    orders = {t.n for t in trees}
    assert orders == {1, 2, 4, 6, 8, 10}
    # counts match the skeleton counts: one corona per tree on k vertices
    assert sum(1 for t in trees if t.n == 10) == len(trees_exactly(5))


def test_conjecture2_clean_on_small_corpus():
    report = conjecture2_scan(graphs_upto(6, connected=True), max_tree_order=12)
    assert report.clean
    assert report.supporting_matches > 0
    assert report.skipped_disconnected == 0
    payload = json.loads(report.to_jsonl_lines()[0])
    assert "no counterexample" in payload["verdict"]


def test_conjecture2_encodes_no_graph_without_a_counterexample(monkeypatch):
    # 996 catalog graphs and 26 well-covered trees, none of them printed
    from coronapoly import graphs
    from coronapoly.suites import default_corpus

    corpus = default_corpus(7)
    encoded = []
    encode = graphs.encode_graph6
    for module in (graphs, search):
        monkeypatch.setattr(module, "encode_graph6", lambda g: encoded.append(g) or encode(g))
    report = conjecture2_scan(corpus, 14)
    assert report.clean and report.graphs_scanned == 996
    assert encoded == []


def test_conjecture2_counterexample_names_graph_and_tree(monkeypatch):
    # with the pendant matching forced false, K_2 in either form is a
    # "counterexample" matching the corona of K_1
    monkeypatch.setattr(search, "pendant_edges_form_perfect_matching", lambda g: False)
    report = conjecture2_scan([complete_graph(2), ">>graph6<<A_\n"], 4)
    assert report.counterexamples == [{"graph": "A_", "polynomial": ["1", "2"], "tree": "A_"}] * 2


def test_conjecture2_skips_disconnected():
    report = conjecture2_scan([disjoint_union(complete_graph(2), Graph(1))], 8)
    assert report.skipped_disconnected == 1
    assert report.graphs_scanned == 0


def test_graph_variant_of_the_tree_statement_fails():
    # a well-covered graph and a non-well-covered tree share a polynomial,
    # so replacing "tree" with "graph" in the statement is false
    assert independence_polynomial(CHAIR_TREE) == independence_polynomial(C4_PLUS_K1)
    assert is_tree(CHAIR_TREE) and not is_well_covered(CHAIR_TREE)
    assert is_well_covered(C4_PLUS_K1) and not is_tree(C4_PLUS_K1)
    # and a well-covered non-tree sharing a non-well-covered graph's polynomial
    assert independence_polynomial(DENSE6_A) == independence_polynomial(DENSE6_B)
    assert is_well_covered(DENSE6_B) and not is_well_covered(DENSE6_A)


def test_hamidoune_scan_small():
    report = hamidoune_scan(graphs_upto(6, connected=True))
    assert report.clean
    assert report.claw_free_count > 0
    assert report.nonreal_contrast_count > 0
    # the star with three leaves is the canonical claw: skipped by the filter
    claws = [star_graph(3)]
    sub = hamidoune_scan(claws)
    assert sub.claw_free_count == 0


def test_hamidoune_verdicts_read_the_cache():
    # 996 connected graphs on at most 7 vertices share 176 polynomials
    from coronapoly import roots
    from coronapoly.suites import default_corpus

    corpus = default_corpus(7)
    roots.all_roots_real.cache_clear()
    report = hamidoune_scan(corpus, keep_verdicts=True)
    info = roots.all_roots_real.cache_info()
    assert info.hits >= 820 and info.hits + info.misses == len(corpus) == 996
    uncached = roots.all_roots_real.__wrapped__
    assert [real for _, _, real in report.verdicts] == [
        uncached(independence_polynomial(g)) for g in corpus
    ]
    assert (report.claw_free_count, report.nonreal_contrast_count) == (264, 252)


def test_hamidoune_report_same_from_graphs_and_graph6():
    # the catalog's Graph items are encoded only when the report is read;
    # the same graphs as graph6 lines, some with a header, give its bytes
    from coronapoly.suites import default_corpus

    corpus = default_corpus(6)
    texts = [encode_graph6(g) for g in corpus]
    lines = [(">>graph6<<" if i % 2 else "") + t + "\n" for i, t in enumerate(texts)]
    from_graphs = hamidoune_scan(corpus, keep_verdicts=True)
    from_text = hamidoune_scan(lines, keep_verdicts=True)
    assert from_graphs.to_json() == from_text.to_json()
    assert from_graphs.to_jsonl_lines() == from_text.to_jsonl_lines()
    for report in (from_graphs, from_text):
        assert [g6 for g6, _, _ in report.verdicts] == texts
        assert all(type(cf) is type(rr) is bool for _, cf, rr in report.verdicts)
    assert from_graphs.graphs_scanned == len(corpus) == 143


def test_hamidoune_keeps_verdicts_only_when_asked():
    # the same summary either way; without the keyword no per-graph state
    from coronapoly.suites import default_corpus

    corpus = default_corpus(5)
    kept, summary = hamidoune_scan(corpus, keep_verdicts=True), hamidoune_scan(corpus)
    assert summary.to_json() == kept.to_json()
    assert len(kept.verdicts) == len(corpus) and summary.verdicts == []
    assert summary.to_jsonl_lines() == kept.to_jsonl_lines()[:1]


def test_hamidoune_evidence_same_at_two_jobs(tmp_path, monkeypatch):
    from coronapoly import cli

    monkeypatch.setattr(cli, "_default_jobs", lambda: 2)
    workers, fork_map = [], cli._fork_map

    def counting_map(fn, items, n, size):
        workers.append(n)
        return fork_map(fn, items, n, size)

    monkeypatch.setattr(cli, "_fork_map", counting_map)
    evidence = []
    for jobs in ("1", "2"):
        path = tmp_path / f"evidence-{jobs}.jsonl"
        argv = ["search", "--mode", "hamidoune", "--max-n", "6", "--jobs", jobs]
        assert main([*argv, "--evidence", str(path)]) == 0
        evidence.append(path.read_bytes())
    assert workers == [2]
    assert evidence[0] == evidence[1]
    assert len(evidence[0].splitlines()) == 1 + 143


def test_hamidoune_paths_and_cycles():
    from coronapoly.graphs import cycle_graph

    stream = [path_graph(n) for n in range(1, 13)]
    stream += [cycle_graph(n) for n in range(3, 13)]
    report = hamidoune_scan(stream)
    assert report.clean
    assert report.claw_free_count == len(stream)
