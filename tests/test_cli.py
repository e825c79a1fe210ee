import gc
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from io import StringIO
from math import comb
from pathlib import Path

import pytest

import coronapoly
from coronapoly.cli import main
from coronapoly.corona import corona_coefficients, spider_polynomial
from coronapoly.graphs import (
    Graph,
    complete_graph,
    corona,
    cycle_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    spider_graph,
)
from coronapoly.indpoly import independence_polynomial
from coronapoly.polynomials import IntPolynomial
from knowngraphs import EMPTY65_GRAPH6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_family(capsys):
    code, out, _ = run(capsys, "poly", "--family", "path", "--n", "4")
    assert code == 0
    assert out.strip() == "1 + 4x + 3x^2"


def test_poly_spiders_match_the_binomial_formula(capsys):
    # corona(K_{1,n}) is one vertex of degree >= 3 with paths at it, a hub
    # leaf of the engine; spider_polynomial is an independent binomial sum
    for n in range(2, 32):
        assert sum(len(a) >= 3 for a in spider_graph(n).adj) == 1
        code, out, _ = run(capsys, "poly", "--family", "spider", "--n", str(n))
        assert code == 0
        assert out.strip() == str(spider_polynomial(n))


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--family", "cycle", "--n", "7", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "7", "14", "7"]


def test_poly_from_stream(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("A_\nB?\n")
    code, out, _ = run(capsys, "poly", "--input", str(path))
    assert code == 0
    assert out.splitlines() == ["1 + 2x", "1 + 3x + 3x^2 + x^3"]


def test_poly_from_edgelist(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "poly", "--input", str(path), "--format", "edgelist")
    assert code == 0
    assert out.strip() == "1 + 4x + 3x^2"


@pytest.mark.parametrize("text, reason", [
    ("3 4\n", "line 1: expected vertex count, got '3 4'"),
    ("x\n", "line 1: bad vertex count 'x'"),
    ("-1\n", "line 1: negative vertex count"),
    ("3\n0 a\n", "line 2: non-integer endpoint in '0 a'"),
])
def test_edge_list_parse_errors(tmp_path, capsys, text, reason):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, "poly", "--format", "edgelist", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"coronapoly: parse error: {reason}\n"


def test_corona_command(capsys):
    code, out, _ = run(capsys, "corona", "--family", "complete", "--n", "2")
    assert code == 0
    g6, poly = out.strip().split("\t")
    assert poly == "1 + 4x + 3x^2"
    assert parse_graph6(g6).n == 4


def test_poly_text_runs_to_the_forest_cap(capsys):
    code, out, err = run(capsys, "poly", "--family", "path", "--n", "64")
    assert code == 0 and err == ""
    assert out.strip() == str(IntPolynomial([comb(65 - j, j) for j in range(33)]))
    code, out, err = run(capsys, "poly", "--family", "star", "--n", "63")
    assert code == 0 and err == ""
    assert out.strip() == str(IntPolynomial((1, 1)) ** 63 + IntPolynomial((0, 1)))


def test_corona_at_the_vertex_cap(capsys):
    # a forest and a cycle: the engine on 64 vertices against the transform
    for family, skeleton in (("path", path_graph(32)), ("cycle", cycle_graph(32))):
        code, out, _ = run(capsys, "corona", "--family", family, "--n", "32", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert parse_graph6(payload["corona"]).n == 64
        want = corona_coefficients(independence_polynomial(skeleton), 32)
        assert payload["coefficients"] == want.to_json_coeffs()


@pytest.mark.parametrize(
    "argv, field, graph",
    [
        (("poly", "--family", "path", "--n", "63", "--output", "json"), "graph", path_graph(63)),
        (("corona", "--family", "path", "--n", "32"), None, corona(path_graph(32))),
        (("corona", "--family", "path", "--n", "32", "--output", "json"), "corona",
         corona(path_graph(32))),
        (("gen", "--family", "path", "--n", "63"), None, path_graph(63)),
    ],
)
def test_graph6_output_past_the_short_form(capsys, argv, field, graph):
    # graph6's long header names graphs on 63 and 64 vertices, so these run
    # to the vertex cap; a text line's graph6 is its first field
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    text = json.loads(out)[field] if field else out.split("\t")[0]
    assert text.startswith("~") and parse_graph6(text) == graph


@pytest.mark.parametrize(
    "argv",
    [("roots", "--family", "path", "--n", "63"), ("roots", "--family", "cycle", "--n", "64")],
)
def test_roots_checks_the_enumeration_cap_before_the_engine(monkeypatch, capsys, argv):
    # no pendant matching, so well-coveredness needs the enumeration, whose
    # cap is 24: refused before the engine runs
    from coronapoly import roots

    def work(*args):
        raise AssertionError("the engine ran before the enumeration cap was checked")

    monkeypatch.setattr(roots, "independence_polynomial", work)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "maximal stable sets" in err


def test_transform_round_trip(capsys):
    code, out, _ = run(capsys, "transform", "--coeffs", "1,2", "--n", "2")
    assert code == 0
    assert out.strip() == "1 + 4x + 3x^2"
    code, out, _ = run(capsys, "transform", "--coeffs", "1,4,3", "--n", "2", "--inverse")
    assert code == 0
    assert out.strip() == "1 + 2x"


def test_transform_rejects_non_image(capsys):
    code, out, _ = run(
        capsys, "transform", "--coeffs", "1,0,1", "--n", "2", "--inverse", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["corona_image"] is False


def test_transform_inverse_reads_alpha_off_the_corona_polynomial(capsys):
    inverse = ("transform", "--n", "2", "--inverse", "--coeffs")
    # s_2 = 1 - 3 + 1: no 2-vertex skeleton has the corona polynomial 1 + 3x + x^2
    code, out, _ = run(capsys, *inverse, "1,3,1")
    assert (code, out) == (0, "reconstructed s_2 = -1 < 0: not a corona image\n")
    # s_0 = t_0 must be 1, as the forward transform requires
    code, out, err = run(capsys, *inverse, "2,4,2")
    assert (code, out) == (2, "")
    assert err == "coronapoly: corona coefficients must start at t_0 = 1\n"
    with pytest.raises(SystemExit) as info:
        main([*inverse, "1,4,3", "--alpha", "1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "cycle", "--n", "7", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minus_one_multiplicity"] == 0
    assert len(payload["real_roots"]) == 3
    names = {b["name"] for b in payload["bounds"]}
    assert {"annulus", "xi_max_window", "modulus_floor"} <= names


_SCHEMA_TAIL = '"complex_certification": "numeric-residual", "real_certification": "exact-sturm"'
# the two graphs under 2 vertices take no bound: K_0 (I = 1) has no root,
# and K_1 (I = 1 + x) has its root -1 in (-4, 0)
_ROOTS_UNDER_TWO = {
    "?": (
        "graph ?: I = 1\n  multiplicity of -1: 0\n",
        '{"polynomial": ["1"], "minus_one_multiplicity": 0, "real_roots": [], '
        f'"complex_roots": [], "bounds": [], {_SCHEMA_TAIL}, "graph": "?"}}\n',
    ),
    "@": (
        "graph @: I = 1 + x\n  multiplicity of -1: 1\n  real root in (-4, 0), multiplicity 1\n",
        '{"polynomial": ["1", "1"], "minus_one_multiplicity": 1, "real_roots": '
        '[{"interval": ["-4", "0"], "multiplicity": 1}], '
        f'"complex_roots": [], "bounds": [], {_SCHEMA_TAIL}, "graph": "@"}}\n',
    ),
}


@pytest.mark.parametrize("g6", _ROOTS_UNDER_TWO)
def test_roots_under_two_vertices(monkeypatch, capsys, g6):
    for output, want in zip(("text", "json"), _ROOTS_UNDER_TWO[g6]):
        monkeypatch.setattr(sys, "stdin", StringIO(g6 + "\n"))
        assert run(capsys, "roots", "--input", "-", "--output", output) == (0, want, "")


def test_gen_families(capsys):
    code, out, _ = run(capsys, "gen", "--family", "spider", "--n", "2")
    assert code == 0
    g6, poly = out.strip().split("\t")
    assert parse_graph6(g6).n == 6
    assert poly == "1 + 6x + 10x^2 + 5x^3"

    code, out, _ = run(capsys, "gen", "--trees", "4")
    assert code == 0
    assert len(out.splitlines()) == 2

    code, out, _ = run(capsys, "gen", "--graphs", "4", "--connected")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_gen_multipartite(capsys):
    code, out, _ = run(capsys, "gen", "--family", "multipartite", "--sizes", "2,2")
    assert code == 0
    g6 = out.split("\t")[0].strip()
    assert parse_graph6(g6).num_edges == 4


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "multiplicity", "--max-n", "4", "--jobs", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_stream_input(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("".join(encode_graph6(path_graph(n)) + "\n" for n in range(2, 6)))
    code, out, _ = run(
        capsys, "verify", "--suite", "corona-identities", "--input", str(stream), "--jobs", "1"
    )
    assert code == 0
    assert "4 instances" in out


def test_verify_bijection_past_ten_vertices(tmp_path, capsys):
    # the bijection has no cap of its own: the coronas' 22 and 62 vertices
    # fit the engine
    stream = tmp_path / "cycles.g6"
    stream.write_text(encode_graph6(cycle_graph(11)) + "\n" + encode_graph6(cycle_graph(31)) + "\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "bijection", "--input", str(stream), "--jobs", "1"
    )
    assert code == 0
    assert "2 instances, 0 failures: PASS" in out


def test_verify_bounds_on_a_corona_at_the_vertex_cap(tmp_path, capsys):
    # a 64-vertex corona that is no forest: the engine and the clique
    # number (alpha of the complement) both run at 64 vertices
    rng = random.Random(31)
    g = Graph(32, [(u, v) for u in range(32) for v in range(u + 1, 32) if rng.random() < 0.15])
    stream = tmp_path / "corona32.g6"
    stream.write_text(encode_graph6(corona(g)) + "\n")
    code, out, err = run(
        capsys, "verify", "--suite", "bounds", "--input", str(stream), "--jobs", "1"
    )
    assert code == 0 and err == ""
    assert out.strip() == "suite bounds: 1 instances, 0 failures: PASS"


def test_verify_parallel_jobs(tmp_path, capsys):
    stream = tmp_path / "many.g6"
    from corpus import graphs_upto

    graphs = graphs_upto(5, connected=True) * 4
    stream.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    code, out, _ = run(
        capsys, "verify", "--suite", "monotonicity", "--input", str(stream), "--jobs", "2"
    )
    assert code == 0
    assert f"{len(graphs)} instances" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    from coronapoly import suites

    monkeypatch.setattr(suites, "check_one", lambda suite, g: "forced failure")
    code, out, _ = run(capsys, "verify", "--suite", "divisibility", "--max-n", "3", "--jobs", "1")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "planted, failed",
    [
        # roots -1/4 and (-3 -+ sqrt 5)/2: one below -1, inside the annulus
        ((1, 7, 13, 4), ["real_window"]),
        # (1+x)^2 (1+6x): a root at -1/6 = -1/n, the window's open end, which
        # is the annulus' inner circle too
        ((1, 8, 13, 6), ["annulus", "real_window"]),
    ],
)
def test_verify_bounds_reports_a_planted_real_window_failure(tmp_path, monkeypatch, capsys, planted, failed):
    # the corona of K_3 (n = 6, alpha 3, clique number 3), given a
    # polynomial with a real root outside [-1, -1/6); every other bound holds
    from coronapoly import roots

    monkeypatch.setattr(roots, "independence_polynomial", lambda g: IntPolynomial(planted))
    g6 = encode_graph6(corona(complete_graph(3)))
    stream = tmp_path / "corona3.g6"
    stream.write_text(g6 + "\n")
    code, out, err = run(capsys, "verify", "--suite", "bounds", "--input", str(stream), "--jobs", "1")
    assert code == 1 and err == ""
    assert out == f"suite bounds: 1 instances, 1 failures: FAIL\n  {g6}: failed bounds {failed}\n"


def test_verify_no_root_below_minus_one_reports_a_planted_root(monkeypatch, capsys):
    # I(G*) replaced by 1 + 3x + x^2, with a root at (-3 - sqrt 5)/2 < -1:
    # K_2, the one graph with an edge on at most 2 vertices, fails
    from coronapoly import suites

    monkeypatch.setattr(suites, "independence_polynomial", lambda g: IntPolynomial((1, 3, 1)))
    code, out, err = run(capsys, "verify", "--suite", "no-root-below-minus-one", "--max-n", "2", "--jobs", "1")
    assert code == 1 and err == ""
    assert out == (
        "suite no-root-below-minus-one: 2 instances, 1 failures: FAIL\n"
        "  A_: corona polynomial has a real root < -1\n"
    )


def test_verify_resource_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--suite", "multiplicity", "--max-n", "9", "--jobs", "1")
    assert code == 3
    assert "resource limit" in err


def test_verify_hk_uses_the_suite_default(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hk")
    assert code == 0
    assert "4 instances" in out
    # --max-n is the largest k
    code, out, _ = run(capsys, "verify", "--suite", "hk", "--max-n", "2")
    assert code == 0
    assert "2 instances" in out


def test_verify_hk_cap_checked_before_building(monkeypatch, capsys):
    from coronapoly import suites

    def build_hk(*args):
        raise AssertionError("H_k built before the cap was checked")

    monkeypatch.setattr(suites, "build_hk", build_hk)
    code, _, err = run(capsys, "verify", "--suite", "hk", "--max-n", "6")
    assert code == 3
    assert "resource limit" in err


def test_gen_trees_over_the_cap_exit_code(capsys):
    code, out, err = run(capsys, "gen", "--trees", "17")
    assert code == 3
    assert out == "" and "resource limit" in err


_GEN_AT_THE_CAP = [
    ("--family", "path", "--n", "64"),
    ("--family", "cycle", "--n", "64"),
    ("--family", "complete", "--n", "64"),
    ("--family", "star", "--n", "63"),
    ("--family", "spider", "--n", "31"),
    ("--family", "centipede", "--n", "32"),
    ("--family", "multipartite", "--sizes", "30,34"),
]


@pytest.mark.parametrize("argv", _GEN_AT_THE_CAP)
def test_gen_family_at_the_vertex_cap(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 0 and err == ""
    assert parse_graph6(out.split("\t")[0]).n == 64


@pytest.mark.parametrize(
    "argv, n",
    [
        (("--family", "path", "--n", "65"), 65),
        (("--family", "cycle", "--n", "65"), 65),
        (("--family", "complete", "--n", "100000"), 100000),
        (("--family", "star", "--n", "64"), 65),
        (("--family", "spider", "--n", "32"), 66),
        (("--family", "centipede", "--n", "33"), 66),
        (("--family", "spider", "--n", "70"), 142),
        (("--family", "centipede", "--n", "70"), 140),
        (("--family", "multipartite", "--sizes", "30,35"), 65),
    ],
)
def test_gen_family_over_the_vertex_cap_exit_code(monkeypatch, capsys, argv, n):
    # the closed forms check no size: the family's Graph refuses its order
    # before any closed form, engine run or encoding (a spider or a
    # centipede names its own order, not its skeleton's)
    from coronapoly import cli

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(cli, "_CLOSED_FORMS", dict.fromkeys(cli._CLOSED_FORMS, _must_not_run))
    monkeypatch.setattr(cli, "independence_polynomial", _must_not_run)
    monkeypatch.setattr(cli, "encode_graph6", _must_not_run)
    code, out, err = run(capsys, "gen", *argv)
    assert code == 3
    assert out == "" and err == f"coronapoly: resource limit: graph: {n} vertices exceeds limit 64\n"


def _peak_of_main(capsys, *argv):
    """(exit code, stdout, stderr, tracemalloc peak in bytes) of one main call."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    return code, out.out, out.err, peak


@pytest.mark.parametrize("command", ["poly", "corona", "roots", "gen"])
def test_family_over_the_cap_refused_before_any_work(capsys, command):
    # K_1000 has 499,500 edges; its Graph refuses the order before one
    # edge tuple exists
    code, out, err, peak = _peak_of_main(capsys, command, "--family", "complete", "--n", "1000")
    assert code == 3 and out == ""
    assert err == "coronapoly: resource limit: graph: 1000 vertices exceeds limit 64\n"
    assert peak < 1 << 20


def test_edge_list_over_the_cap_refused_before_any_work(monkeypatch, capsys):
    # the count line alone decides: no mask list of 10^9 entries is made
    monkeypatch.setattr(sys, "stdin", StringIO("1000000000\n0 1\n"))
    code, out, err, peak = _peak_of_main(capsys, "poly", "--input", "-", "--format", "edgelist")
    assert code == 3 and out == ""
    assert err == "coronapoly: resource limit: graph: 1000000000 vertices exceeds limit 64\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "bounds", "--jobs", "1"),
        ("search", "--mode", "conjecture2", "--jobs", "1"),
        ("poly",),
    ],
)
def test_graph6_line_over_the_cap_exit_code(tmp_path, capsys, argv):
    # refused by its parse, not by a layer's cap or as a disconnected graph
    path = tmp_path / "in.g6"
    path.write_text(EMPTY65_GRAPH6 + "\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 3 and out == ""
    assert err == "coronapoly: resource limit: graph: 65 vertices exceeds limit 64\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_equal_poly_records_a_line_over_the_cap(tmp_path, capsys, jobs):
    path = tmp_path / "in.g6"
    path.write_text(EMPTY65_GRAPH6 + "\n")
    code, out, _ = run(
        capsys, "search", "--mode", "equal-poly", "--jobs", jobs, "--output", "json",
        "--input", str(path),
    )
    assert code == 2
    got = json.loads(out)
    assert got["graphs"] == 0 and got["errors"] == ["line 1: graph: 65 vertices exceeds limit 64"]


def test_corona_over_the_cap_exit_code(capsys):
    # P_40 is built; its corona, on 80 vertices, is refused
    code, out, err = run(capsys, "corona", "--family", "path", "--n", "40")
    assert code == 3 and out == ""
    assert err == "coronapoly: resource limit: graph: 80 vertices exceeds limit 64\n"


def test_transform_at_the_vertex_cap(capsys):
    # the skeleton order is a vertex count, and 64 runs both ways
    t = corona_coefficients(IntPolynomial((1, 2)), 64)
    code, out, err = run(capsys, "transform", "--coeffs", "1,2", "--n", "64")
    assert (code, out, err) == (0, f"{t}\n", "")
    coeffs = ",".join(map(str, t.coeffs))
    code, out, err = run(capsys, "transform", "--coeffs", coeffs, "--n", "64", "--inverse")
    assert (code, out, err) == (0, "1 + 2x\n", "")


@pytest.mark.parametrize("n", [65, 10**9])
@pytest.mark.parametrize("inverse", [(), ("--inverse",)])
def test_transform_over_the_vertex_cap_exit_code(monkeypatch, capsys, n, inverse):
    # the skeleton order is a vertex count, refused before any binomial
    # sum, in either direction
    from coronapoly import corona as corona_mod

    def _must_not_run(*args, **kwargs):
        raise AssertionError("a sum started before the cap was checked")

    monkeypatch.setattr(corona_mod, "comb", _must_not_run)
    code, out, err = run(capsys, "transform", "--coeffs", "1,2", "--n", str(n), *inverse)
    assert code == 3 and out == ""
    assert err == f"coronapoly: resource limit: graph: {n} vertices exceeds limit 64\n"


def test_spider_unique_over_the_cap_exit_code(monkeypatch, capsys):
    # the tree catalog's cap, 16, checked before any tree level is built
    from coronapoly import search

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(search, "enumerate_trees", _must_not_run)
    code, out, err = run(capsys, "search", "--mode", "spider-unique", "--max-skeleton", "17")
    assert code == 3
    assert out == "" and err == "coronapoly: resource limit: tree enumeration capped at 16 vertices\n"


def test_spider_unique_past_the_default(capsys):
    # one star per skeleton order 2..10, and no other tree matches
    code, out, err = run(capsys, "search", "--mode", "spider-unique", "--max-skeleton", "10",
                         "--output", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [m["order"] for m in payload["matches"]] == list(range(2, 11))
    assert payload["violations"] == [] and payload["skeletons_checked"] == 200


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poly"])  # no input source
    assert info.value.code == 2


# A value of each option for the table-built cases below.  Both paths name
# files that are never created, so a call that opened one would exit
# through main's error handling, not through the usage error.
_SAMPLE = {
    "--suite": "bounds", "--mode": "hamidoune", "--family": "path", "--n": "3", "--sizes": "2,2",
    "--input": "MISSING", "--format": "edgelist", "--trees": "4", "--graphs": "3",
    "--connected": None, "--coeffs": "1,2", "--inverse": None, "--max-n": "3",
    "--max-skeleton": "3", "--max-tree-order": "5", "--jobs": "2", "--evidence": "MISSING",
    "--output": "json",
}


def _given(option, value=None):
    value = _SAMPLE[option] if value is None else value
    return [option] if _SAMPLE[option] is None else [option, value]


def _option_cases():
    """(argv, accepted) for every entry of the option table: the entry's
    call with each option it reads (accepted) and with each declared option
    it does not read (refused), unless that option selects another entry."""
    from coronapoly import cli

    cases = []
    for command, (_, _, entries) in cli._COMMANDS.items():
        declared = {o for entry in entries.items() for o in cli._reads(" ".join(entry))}
        for label, reads in entries.items():
            selects, reads = cli._reads(label), cli._reads(reads)
            base = [command]
            for option, value in selects.items():
                base += _given(option, None if value is cli._REQUIRED else value)
            for option, default in reads.items():
                if default is cli._REQUIRED:
                    base += _given(option)
            cases.append((tuple(base), True))
            cases += [
                (tuple(base + _given(o)), True) for o, d in reads.items() if d is not cli._REQUIRED
            ]
            cases += [
                (tuple(base + _given(o)), False)
                for o in sorted(declared - selects.keys() - reads.keys())
                if f"{label} {o}" not in entries
            ]
    return cases


# every option that a command ignored before the table, each exiting 0
_IGNORED = [
    ("verify", "--suite", "bounds", "--input", "MISSING", "--max-n", "3"),
    ("search", "--mode", "spider-unique", "--max-skeleton", "3", "--max-n", "2",
     "--max-tree-order", "5"),
    ("search", "--mode", "spider-unique", "--jobs", "2"),
    ("search", "--mode", "equal-poly", "--input", "MISSING", "--max-n", "3", "--max-skeleton", "2"),
    ("search", "--mode", "hamidoune", "--max-n", "4", "--max-tree-order", "3"),
    ("search", "--mode", "conjecture2", "--max-n", "4", "--max-skeleton", "3"),
    ("gen", "--trees", "4", "--n", "3", "--sizes", "1,2"),
    ("gen", "--family", "multipartite", "--sizes", "2,2", "--n", "9"),
    ("poly", "--family", "path", "--n", "3", "--sizes", "4,5"),
    ("poly", "--family", "path", "--n", "3", "--format", "edgelist"),
    ("poly", "--input", "MISSING", "--n", "5"),
    ("verify", "--suite", "hk", "--max-n", "2", "--jobs", "2"),
    ("gen", "--trees", "4", "--graphs", "3"),
    ("gen", "--family", "path", "--n", "3", "--trees", "3"),
    ("gen", "--trees", "4", "--connected"),
    ("gen", "--family", "path", "--n", "3", "--connected"),
    ("search", "--mode", "spider-unique", "--input", "MISSING"),
]


@pytest.mark.parametrize("argv, accepted", [
    pytest.param(argv, accepted, id=f"{'_'.join(argv)}-{'accepted' if accepted else 'refused'}")
    for argv, accepted in dict.fromkeys([*_option_cases(), *((argv, False) for argv in _IGNORED)])
])
def test_each_option_is_read_by_the_entry_it_is_given_to(
    tmp_path, monkeypatch, capsys, argv, accepted
):
    from coronapoly import cli, search, suites

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    monkeypatch.setattr(search, "enumerate_trees", _must_not_run)
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    argv = [str(tmp_path / "missing") if a == "MISSING" else a for a in argv]
    if accepted:
        parser = cli.build_parser()
        args = parser.parse_args(argv)
        given = {k: v for k, v in vars(args).items() if v is not None}
        cli._resolve(parser, args)
        assert vars(args).items() >= given.items()      # defaults fill only what was not given
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")


def test_the_parser_declares_what_the_table_reads():
    import argparse

    from coronapoly import cli

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS)
    read = set()
    for command, (_, _, entries) in cli._COMMANDS.items():
        reads = {o for entry in entries.items() for o in cli._reads(" ".join(entry))}
        declared = {o for a in sub.choices[command]._actions for o in a.option_strings}
        declared -= {"-h", "--help"}
        assert declared == reads, command
        read |= reads
    assert read == set(cli._OPTIONS)     # no option that nothing reads


def test_verify_hk_rejects_input_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing.g6"    # never created: opening it would fail
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "hk", "--input", str(missing)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--input is not read by verify --suite=hk" in err
    assert "No such file" not in err and "parse error" not in err


def test_a_refused_option_prints_the_usage_of_its_command(tmp_path, capsys):
    # the usage above the message is the one argparse prints for its own
    # errors on that command, here a missing --suite
    def refused(argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        return err

    err = refused(["verify", "--suite", "hk", "--input", str(tmp_path / "F")])
    usage, message = err.split("coronapoly verify: error: ")
    assert usage.startswith("usage: coronapoly verify [-h] --suite")
    assert message == "--input is not read by verify --suite=hk\n"
    assert refused(["verify"]).startswith(usage)


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("poly", "--family", "path", "--n", "3"),
    ("corona", "--input", "MISSING"),
    ("roots", "--family", "cycle", "--n", "5"),
    ("verify", "--suite", "bounds", "--max-n", "3"),
    ("verify", "--suite", "divisibility", "--input", "MISSING"),
    ("search", "--mode", "equal-poly", "--input", "MISSING"),
    ("search", "--mode", "hamidoune", "--max-n", "3"),
    ("search", "--mode", "conjecture2", "--input", "MISSING"),
], ids="_".join)
def test_jobs_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, jobs):
    from coronapoly import suites

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before --jobs was checked")

    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    argv = [str(tmp_path / "missing.g6") if a == "MISSING" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--jobs", jobs])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: --jobs must be >= 1, got {jobs}\n")


@pytest.mark.parametrize("argv", [
    ("equal-poly", "--input", "MISSING"),
    ("spider-unique",),
    ("conjecture2", "--max-n", "4"),
    ("hamidoune", "--max-n", "4"),
], ids=lambda argv: argv[0])
def test_unwritable_evidence_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv):
    from coronapoly import search, suites

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before --evidence was opened")

    monkeypatch.setattr(search, "enumerate_trees", _must_not_run)
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    path = tmp_path / "no" / "such" / "ev.jsonl"
    argv = [str(tmp_path / "missing.g6") if a == "MISSING" else a for a in argv]
    code, out, err = run(capsys, "search", "--mode", *argv, "--evidence", str(path))
    assert code == 2
    assert out == ""
    assert err == f"coronapoly: cannot write --evidence {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ("poly",),
    ("poly", "--format", "edgelist"),
    ("roots", "--jobs", "2"),
    ("verify", "--suite", "bounds", "--jobs", "1"),
    ("search", "--mode", "equal-poly"),
    ("search", "--mode", "hamidoune", "--jobs", "2"),
], ids=["poly", "poly-edgelist", "roots-jobs2", "verify-bounds", "equal-poly", "hamidoune-jobs2"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, argv, kind):
    path = tmp_path / "missing.g6" if kind == "missing" else tmp_path
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2
    assert out == "" and err == f"coronapoly: cannot read --input {path}: {reason}\n"


def test_root_convergence_exit_code(monkeypatch, capsys):
    from coronapoly import roots
    from coronapoly.errors import RootConvergenceError

    def numeric_roots(*args, **kwargs):
        raise RootConvergenceError("no convergence after 500 sweeps", [])

    monkeypatch.setattr(roots, "numeric_roots", numeric_roots)
    # I(K_{1,3}) = 1 + 4x + 3x^2 + x^3 has two nonreal roots, so its root
    # pass reaches Aberth (a real-rooted polynomial such as I(C_5) does not)
    code, out, err = run(capsys, "roots", "--family", "star", "--n", "3")
    assert code == 4
    assert out == ""
    assert err == "coronapoly: root iteration did not converge: no convergence after 500 sweeps\n"


@pytest.mark.parametrize("limit, value, reason", [
    ("_MAX_SWEEPS", 0, r"no convergence after 0 iterations"),
    ("_RESIDUAL_TOL", 0, r"residual \d\.\d{3}e[-+]\d+ above threshold at \(.+j\)"),
])
def test_numeric_roots_raises_through_the_cli(monkeypatch, capsys, limit, value, reason):
    # numeric_roots' own raises, not a stub's: no sweep at all, or a
    # residual that no approximation can meet
    import re

    from coronapoly import roots

    monkeypatch.setattr(roots, limit, value)
    code, out, err = run(capsys, "roots", "--family", "star", "--n", "3")
    assert code == 4 and out == ""
    assert re.fullmatch(f"coronapoly: root iteration did not converge: {reason}\n", err)


def test_roots_well_covered_cap_before_root_work(monkeypatch, capsys):
    from coronapoly import roots

    def no_root_work(*args, **kwargs):
        raise AssertionError("root work started before the well-covered cap was checked")

    monkeypatch.setattr(roots, "numeric_roots", no_root_work)
    monkeypatch.setattr(roots, "isolate_real_roots", no_root_work)
    code, out, err = run(capsys, "roots", "--family", "star", "--n", "30")
    assert code == 3
    assert out == "" and "31 vertices exceeds limit 24" in err


def test_roots_on_a_corona_past_the_enumeration_cap(tmp_path, capsys):
    # 30 vertices: the pendant matching makes the corona well-covered, so
    # the root work runs (the star above, on 31 vertices, still exits 3)
    stream = tmp_path / "corona15.g6"
    stream.write_text(encode_graph6(corona(path_graph(15))) + "\n")
    code, out, err = run(capsys, "roots", "--input", str(stream))
    assert code == 0 and err == ""
    assert "bound modulus_floor: pass" in out and "FAIL" not in out


def test_roots_on_a_forest_corona_past_the_alpha_cap(tmp_path, capsys):
    # 62 vertices: the clique number is alpha of the complement, which fits
    # the vertex cap of 64
    stream = tmp_path / "corona31.g6"
    stream.write_text(encode_graph6(corona(path_graph(31))) + "\n")
    code, out, err = run(capsys, "roots", "--input", str(stream))
    assert code == 0 and err == ""
    assert "bound real_window: pass" in out and "FAIL" not in out


def test_roots_real_window_on_a_corona_of_girth_3_and_on_k2(tmp_path, capsys):
    # the corona of K_3 meets the paper's hypothesis; K_2 = K_1* does not,
    # as its one root is the window's open end -1/2
    stream = tmp_path / "corona3.g6"
    stream.write_text(encode_graph6(corona(complete_graph(3))) + "\n")
    code, out, err = run(capsys, "roots", "--input", str(stream))
    assert code == 0 and err == ""
    assert "  bound real_window: pass\n" in out and "FAIL" not in out
    code, out, err = run(capsys, "roots", "--family", "complete", "--n", "2")
    assert code == 0 and err == ""
    assert "  bound real_window: N/A (hypotheses not met)\n" in out


def test_stream_json_names_a_line_by_its_text(tmp_path, capsys):
    # header and whitespace dropped, a line's text is its graph's graph6
    graphs = [path_graph(4), cycle_graph(5), corona(path_graph(3))]
    stream = tmp_path / "in.g6"
    stream.write_text("".join(f" >>graph6<<{encode_graph6(g)}\t\n" for g in graphs))
    for command, field in (("poly", "graph"), ("corona", "skeleton"), ("roots", "graph")):
        code, out, _ = run(capsys, command, "--input", str(stream), "--output", "json", "--jobs", "1")
        assert code == 0
        assert [json.loads(line)[field] for line in out.splitlines()] == list(map(encode_graph6, graphs))


@pytest.mark.parametrize("extra", [("--input", "-"), ("--format", "edgelist")])
def test_gen_takes_no_stream_options(capsys, extra):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "path", "--n", "3", *extra])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--family", "path", "--n", "4"),
        ("verify", "--suite", "bounds", "--max-n", "3"),
    ],
)
def test_root_pass_takes_no_tolerance(capsys, argv):
    # the numeric slack is a constant of the root pass, not an option
    with pytest.raises(SystemExit) as info:
        main([*argv, "--tol", "1e-9"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "bounds", "--max-n", "0"),
        ("verify", "--suite", "multiplicity", "--max-n", "-4"),
        ("search", "--mode", "hamidoune", "--max-n", "0"),
        ("search", "--mode", "conjecture2", "--max-n", "0"),
    ],
)
def test_corpus_cap_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--jobs", "1")
    assert code == 2
    assert out == ""
    assert "corpus cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (("search", "--mode", "spider-unique", "--max-skeleton"), "skeleton cap"),
        (("search", "--mode", "conjecture2", "--max-n", "3", "--jobs", "1", "--max-tree-order"),
         "tree-order cap"),
    ],
)
def test_scan_cap_below_one_is_a_usage_error(monkeypatch, capsys, argv, name, cap):
    # a cap that admits nothing is refused before any work, not reported clean
    from coronapoly import search, suites

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(search, "enumerate_trees", _must_not_run)
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    code, out, err = run(capsys, *argv, cap)
    assert code == 2
    assert out == ""
    assert f"{name} must be >= 1, got {cap}" in err


def test_tree_order_past_the_catalog_cap_exits_3_before_any_work(monkeypatch, capsys):
    # --max-tree-order 34 needs the trees on 17 vertices: refused before the
    # corpus or any tree level is built
    from coronapoly import search, suites

    def _must_not_run(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(search, "enumerate_trees", _must_not_run)
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    argv = ("search", "--mode", "conjecture2", "--max-n", "3", "--max-tree-order", "34", "--jobs", "1")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "coronapoly: resource limit: tree enumeration capped at 16 vertices\n"


def test_search_equal_poly(tmp_path, capsys):
    from corpus import trees_exactly

    # the trees on 10 vertices, then a 62-vertex graph with cycles and a
    # relabelled copy, which their canonical codes tell isomorphic
    rng = random.Random(62)
    edges = [(u, v) for u in range(62) for v in range(u + 1, 62) if rng.random() < 0.1]
    perm = rng.sample(range(62), 62)
    g62 = [Graph(62, edges), Graph(62, [(perm[u], perm[v]) for u, v in edges])]
    assert g62[0].num_edges >= 62
    stream = tmp_path / "trees10.g6"
    stream.write_text("".join(encode_graph6(g) + "\n" for g in [*trees_exactly(10), *g62]))
    code, out, _ = run(capsys, "search", "--mode", "equal-poly", "--input", str(stream))
    assert code == 0
    assert "classes" in out
    code, out, _ = run(
        capsys, "search", "--mode", "equal-poly", "--input", str(stream), "--output", "json"
    )
    payload = json.loads(out)
    assert payload["errors"] == []
    assert any(
        c["polynomial"] == ["1", "10", "36", "58", "42", "12", "1"]
        and len(c["members"]) >= 2
        and c["all_isomorphic"] is False
        for c in payload["classes"]
    )
    (cls,) = [c for c in payload["classes"] if c["members"][0] in map(encode_graph6, g62)]
    assert cls["all_isomorphic"] is True and len(cls["members"]) == 2
    assert cls["polynomial"] == independence_polynomial(g62[0]).to_json_coeffs()


def _write_stream(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _parse_error(line):
    from coronapoly.errors import GraphParseError

    with pytest.raises(GraphParseError) as info:
        parse_graph6(line)
    return str(info.value)


def _bulk_lines():
    from corpus import graphs_upto

    lines = [encode_graph6(g) for g in graphs_upto(6, connected=True)]
    assert len(lines) >= 64     # shorter streams are never fanned out
    return lines


STREAM_SCANS = {
    "verify": ["verify", "--suite", "monotonicity"],
    "equal-poly": ["search", "--mode", "equal-poly"],
    "hamidoune": ["search", "--mode", "hamidoune"],
    "conjecture2": ["search", "--mode", "conjecture2"],
}


# the commands that print one text per graph, in text and in JSON
PRINT_STREAMS = {
    f"{command}{suffix}": [command, *output]
    for command in ("poly", "corona", "roots")
    for suffix, output in (("", []), ("-json", ["--output", "json"]))
}


@pytest.fixture
def pools(monkeypatch):
    """The number of workers each fan-out of the CLI forks, one entry per
    fan-out."""
    from coronapoly import cli

    fork, fork_map, fanouts = os.fork, cli._fork_map, []

    def counting_map(*args):
        fanouts.append(0)
        return fork_map(*args)

    def counting_fork():
        pid = fork()
        if pid:
            fanouts[-1] += 1
        return pid

    monkeypatch.setattr(cli, "_fork_map", counting_map)
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_default_jobs", lambda: 4)   # whatever the host's CPUs
    return fanouts


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process the CLI forks."""
    from coronapoly import cli

    fork, pids = os.fork, []
    monkeypatch.setattr(cli, "_default_jobs", lambda: 4)   # whatever the host's CPUs

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):    # neither running nor a zombie
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("scan", [*STREAM_SCANS, *PRINT_STREAMS])
def test_stream_scan_parallel_matches_serial(tmp_path, capsys, pools, scan):
    stream = _write_stream(tmp_path / "bulk.g6", _bulk_lines())
    results = []
    for jobs in ("1", "2"):
        if scan in STREAM_SCANS:
            argv = [*STREAM_SCANS[scan], "--input", stream, "--jobs", jobs, "--output", "json"]
        else:
            argv = [*PRINT_STREAMS[scan], "--input", stream, "--jobs", jobs]
        evidence = tmp_path / f"evidence-{jobs}.jsonl"
        if argv[0] == "search":
            argv += ["--evidence", str(evidence)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        results.append((out, evidence.read_bytes() if argv[0] == "search" else b""))
    assert results[0] == results[1]
    assert pools == [2]


def test_catalog_scan_parallel_matches_serial(capsys, pools):
    # a catalog scan sends Graph objects, not graph6 lines, to the workers
    outs = []
    for jobs in ("1", "2"):
        argv = ["verify", "--suite", "multiplicity", "--max-n", "6", "--jobs", jobs]
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["checked"] == 143
    assert pools == [2]


def test_equal_poly_parallel_matches_serial_on_copies(tmp_path, capsys, pools):
    # each worker keeps its own per-code table; the fold must not notice
    from corpus import graphs_exactly, relabelled_copies

    bases = graphs_exactly(6, connected=True)[::8]
    lines = [encode_graph6(g) for g in relabelled_copies(bases, 6, 11)]
    lines += lines[:20]     # verbatim duplicates too
    assert len(lines) >= 64 and len(set(lines)) < len(lines)
    stream = _write_stream(tmp_path / "copies.g6", lines)
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "search", "--mode", "equal-poly", "--input", stream,
                           "--jobs", jobs, "--output", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["graphs"] == len(lines)
    assert pools == [2]


def test_parallel_stdin_matches_serial_and_prints_once(tmp_path):
    # a real process reading a pipe: output printed before the workers are
    # forked sits in stdout's buffer, and must reach the pipe once
    src = str(Path(coronapoly.__file__).resolve().parents[1])
    probe = "import sys; from coronapoly.cli import main; print('start'); sys.exit(main(sys.argv[1:]))"
    lines = _bulk_lines()
    outs = []
    for jobs in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", probe, "poly", "--input", "-", "--jobs", jobs],
            input="".join(line + "\n" for line in lines),
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0 and done.stderr == ""
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[1].startswith("start\n") and outs[1].count("start") == 1
    assert len(outs[1].splitlines()) == len(lines) + 1


@pytest.mark.parametrize("command", ["poly", "corona", "roots"])
def test_bad_line_mid_chunk_matches_serial(tmp_path, capsys, pools, command):
    lines = _bulk_lines()
    # 144 lines over 2 workers are 8 chunks of 18: line 41 is the 5th of the third
    dirty = _write_stream(tmp_path / "dirty.g6", lines[:40] + ["A!"] + lines[40:])
    serial = run(capsys, command, "--input", dirty, "--jobs", "1")
    assert run(capsys, command, "--input", dirty, "--jobs", "2") == serial
    assert pools == [2]
    code, out, err = serial
    assert code == 2
    assert err == f"coronapoly: parse error: line 41: {_parse_error('A!')}\n"
    head = _write_stream(tmp_path / "head.g6", lines[:40])
    assert out == run(capsys, command, "--input", head, "--jobs", "1")[1]


def test_no_more_workers_than_chunks(tmp_path, capsys, monkeypatch, pools):
    from coronapoly import cli

    monkeypatch.setattr(cli, "_MIN_FORK", 2)
    stream = _write_stream(tmp_path / "three.g6", _bulk_lines()[:3])
    serial = run(capsys, "poly", "--input", stream, "--jobs", "1")
    assert run(capsys, "poly", "--input", stream, "--jobs", "4") == serial
    assert pools == [3]


def test_read_ahead_releases_each_item_as_it_goes(monkeypatch):
    # the items read ahead to size the chunks are held only until they
    # are taken from the scan's stream
    import weakref
    from itertools import islice

    from coronapoly import cli

    class Item:
        pass

    refs = []

    def stream():
        for _ in range(100):
            item = Item()
            refs.append(weakref.ref(item))
            yield item

    monkeypatch.setattr(cli, "_default_jobs", lambda: 2)
    with cli._scan_map(stream(), 2) as (_, items):
        assert len(refs) == 100
        for _ in islice(items, 50):
            pass
        assert [r() is None for r in refs] == [True] * 49 + [False] * 51


def test_jobs_clamped_to_the_cpus(tmp_path, capsys, monkeypatch):
    # --jobs 1000 on a 144-line stream would be 144 workers of one line
    # each; the stub map forks nothing
    from coronapoly import cli

    handed = []

    def stub_map(fn, items, workers, size):
        handed.append(workers)
        yield from map(fn, items)

    monkeypatch.setattr(cli, "_default_jobs", lambda: 3)
    monkeypatch.setattr(cli, "_fork_map", stub_map)
    monkeypatch.setattr(os, "fork", None)   # a fork would fail the test
    stream = _write_stream(tmp_path / "bulk.g6", _bulk_lines())
    serial = run(capsys, "poly", "--input", stream, "--jobs", "1")
    assert run(capsys, "poly", "--input", stream, "--jobs", "1000") == serial
    assert handed == [3]
    with pytest.raises(SystemExit):
        main(["poly", "--help"])
    assert "clamped to that" in " ".join(capsys.readouterr().out.split())


def test_killed_worker_fails_loudly(tmp_path, capsys, monkeypatch, forks):
    from coronapoly import cli

    lines = _bulk_lines()
    stream = _write_stream(tmp_path / "bulk.g6", lines)
    parent, engine = os.getpid(), cli.independence_polynomial

    def engine_killed_at_line_51(g):
        if os.getpid() != parent and encode_graph6(g) == lines[50]:
            os.kill(os.getpid(), signal.SIGKILL)
        return engine(g)

    monkeypatch.setattr(cli, "independence_polynomial", engine_killed_at_line_51)
    code, out, err = run(capsys, "poly", "--input", stream, "--jobs", "2")
    assert code == 5
    assert err.startswith("coronapoly: worker process ") and err.count("\n") == 1
    assert "died" in err and "Traceback" not in err
    assert len(out.splitlines()) <= 50      # never the whole stream
    assert len(forks) == 2
    assert_reaped(forks)


class _StdoutGone:
    """A stdout that raises `error` at its second line."""

    def __init__(self, error):
        self.error, self.lines = error, 0

    def write(self, text):
        self.lines += text.count("\n")
        if self.lines > 1:
            raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize("end", ["broken pipe", "interrupt", "bad line"])
def test_no_worker_left_after_an_early_exit(tmp_path, monkeypatch, forks, end):
    lines = _bulk_lines()
    if end == "bad line":
        lines = lines[:70] + ["A!"] + lines[70:]
    argv = ["poly", "--input", _write_stream(tmp_path / "bulk.g6", lines), "--jobs", "2"]
    if end == "bad line":
        assert main(argv) == 2
    elif end == "broken pipe":
        monkeypatch.setattr(sys, "stdout", _StdoutGone(BrokenPipeError))
        assert main(argv) == 0
    else:
        monkeypatch.setattr(sys, "stdout", _StdoutGone(KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert len(forks) == 2
    assert_reaped(forks)


# Importing the CLI must load neither multiprocessing nor pickle (a scan
# imports pickle when it forks workers), nor the costly stdlib behind
# dataclasses and typing; it must load every package module that
# perfbench/traced.py wraps by name.
_CLI_IMPORT = [
    *((m, False)
      for m in ("multiprocessing", "pickle", "dataclasses", "inspect", "typing", "ast", "dis")),
    *((f"coronapoly.{m}", True)
      for m in ("cli", "graphs", "canon", "indpoly", "polynomials", "roots", "suites", "search")),
]


@pytest.fixture(scope="module")
def cli_import_modules():
    # a fresh interpreter with no site hooks, probed once for every case
    src = str(Path(coronapoly.__file__).resolve().parents[1])
    probe = "import sys, coronapoly.cli; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


@pytest.mark.parametrize("module, loaded", _CLI_IMPORT, ids=[m for m, _ in _CLI_IMPORT])
def test_cli_import_modules(cli_import_modules, module, loaded):
    assert (module in cli_import_modules) == loaded


def _cli_env():
    return {**os.environ, "PYTHONPATH": str(Path(coronapoly.__file__).resolve().parents[1])}


def _cli_process(*args):
    return subprocess.run(
        [sys.executable, *args], env=_cli_env(), capture_output=True, text=True, timeout=120
    )


# A CLI process freezes its objects at exit, so the interpreter's final
# collections skip them; what the process prints and returns is unchanged.
def test_process_prints_what_main_prints(capsys):
    done = _cli_process("-m", "coronapoly.cli", "gen", "--graphs", "6")
    code, out, err = run(capsys, "gen", "--graphs", "6")
    assert (code, err) == (0, "")
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
    assert len(out.splitlines()) == 156


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "--suite", "bounds", "--max-n", "3", "--tol", "1"], 2,
     "coronapoly: error: unrecognized arguments: --tol 1\n"),
    (["gen", "--trees", "17"], 3,
     "coronapoly: resource limit: tree enumeration capped at 16 vertices\n"),
], ids=["usage", "size-cap"])
def test_process_exit_code_and_stderr(argv, code, err):
    done = _cli_process("-m", "coronapoly.cli", *argv)
    assert done.returncode == code
    assert done.stdout == "" and done.stderr.endswith(err)


def test_process_exits_cleanly_when_the_reader_leaves():
    with subprocess.Popen(
        [sys.executable, "-m", "coronapoly.cli", "gen", "--graphs", "7"],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "F????\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == ""


def test_import_registers_the_exit_freeze():
    # registered first, the probe runs last, after the CLI's own handler
    probe = ("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
             "import coronapoly.cli")
    done = _cli_process("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_main_does_not_freeze(capsys):
    code, out, _ = run(capsys, "poly", "--family", "path", "--n", "4")
    assert (code, out) == (0, "1 + 4x + 3x^2\n")
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_equal_poly_records_a_bad_line(tmp_path, capsys, jobs):
    lines = _bulk_lines()
    clean = _write_stream(tmp_path / "clean.g6", lines)
    # a blank line is skipped but still counted, so the bad one is line 42
    dirty = _write_stream(tmp_path / "dirty.g6", lines[:40] + ["", "A!"] + lines[40:])
    argv = ["search", "--mode", "equal-poly", "--jobs", jobs, "--output", "json"]
    code, out, _ = run(capsys, *argv, "--input", clean)
    assert code == 0
    expect = json.loads(out)
    code, out, _ = run(capsys, *argv, "--input", dirty)
    assert code == 2
    got = json.loads(out)
    assert got["classes"] == expect["classes"]
    assert got["graphs"] == expect["graphs"] == len(lines)
    assert expect["errors"] == []
    assert got["errors"] == [f"line 42: {_parse_error('A!')}"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_equal_poly_records_a_non_ascii_line(tmp_path, capsys, jobs):
    lines = _bulk_lines()
    clean = _write_stream(tmp_path / "clean.g6", lines)
    dirty = tmp_path / "dirty.g6"
    dirty.write_bytes("".join(line + "\n" for line in lines[:40] + ["Aé"] + lines[40:]).encode())
    argv = ["search", "--mode", "equal-poly", "--jobs", jobs, "--output", "json"]
    code, out, _ = run(capsys, *argv, "--input", clean)
    expect = json.loads(out)
    code, out, err = run(capsys, *argv, "--input", str(dirty))
    assert code == 2 and err == ""
    got = json.loads(out)
    assert got["classes"] == expect["classes"]
    assert got["errors"] == ["line 41: non-ASCII character at offset 1"]


def _one_shot_equal_poly(path):
    """The JSON, text and evidence of equal-poly on a graph6 file, each
    built whole: the report as one json.dumps, its table as one string and
    the evidence lines joined."""
    from coronapoly import cli, search

    report = search.group_by_polynomial(cli._graph6_items(path), source=path)
    evidence = "\n".join(json.dumps(c.to_json()) for c in report.nontrivial_classes())
    return json.dumps(report.to_json()) + "\n", report.summary_table() + "\n", evidence + "\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("stream", ["empty", "bad line", "bulk"])
def test_equal_poly_streams_the_bytes_of_one_report(tmp_path, capsys, pools, jobs, stream):
    # the report and the evidence are written one class at a time, in the
    # bytes of the whole report written at once
    lines = {"empty": [], "bad line": _bulk_lines()[:70] + ["", "A!"], "bulk": _bulk_lines()}[stream]
    path = _write_stream(tmp_path / "in.g6", lines)
    want = _one_shot_equal_poly(path)
    got = []
    for output in ("json", "text"):
        evidence = tmp_path / f"{output}.jsonl"
        code, out, err = run(capsys, "search", "--mode", "equal-poly", "--jobs", jobs, "--input",
                             path, "--output", output, "--evidence", str(evidence))
        assert (code, err) == (2 if stream == "bad line" else 0, "")
        got.append(out)
        assert evidence.read_text() == want[2]
    assert tuple(got) == want[:2]
    assert pools == ([2, 2] if jobs == "2" and lines else [])
    if stream == "empty":
        assert want == (f'{{"source": "{path}", "graphs": 0, "classes": [], "errors": []}}\n',
                        f"source: {path}\ngraphs: 0, classes: 0, nontrivial: 0\n size    iso  polynomial\n",
                        "\n")
    else:
        assert len(json.loads(want[0])["errors"]) == (stream == "bad line")
        assert want[2].count("\n") >= 2    # two or more nontrivial classes


def test_hamidoune_peak_does_not_grow_with_the_stream(tmp_path, capsys):
    # without --evidence the scan keeps no per-graph state, so four copies
    # of the connected catalog at n <= 7 peak within a fixed bound of one
    # copy; a per-graph verdict list made that gap about 360 KB
    from coronapoly.suites import default_corpus

    text = "".join(encode_graph6(g) + "\n" for g in default_corpus(7))
    one, four = tmp_path / "one.g6", tmp_path / "four.g6"
    one.write_text(text)
    four.write_text(text * 4)
    argv = ["search", "--mode", "hamidoune", "--jobs", "1", "--input"]
    assert main([*argv, str(one)]) == 0    # fills the per-process caches
    capsys.readouterr()
    peaks = []
    for path, graphs in ((one, 996), (four, 3984)):
        code, out, _, peak = _peak_of_main(capsys, *argv, str(path))
        assert code == 0 and out.startswith(f"hamidoune: {graphs} graphs,")
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 128 << 10


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("scan", ["verify", "hamidoune", "conjecture2"])
def test_bad_line_exit_names_the_line(tmp_path, capsys, scan, jobs):
    lines = _bulk_lines()
    dirty = _write_stream(tmp_path / "dirty.g6", lines[:70] + ["", "A!"] + lines[70:])
    code, out, err = run(capsys, *STREAM_SCANS[scan], "--input", dirty, "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"coronapoly: parse error: line 72: {_parse_error('A!')}\n"


def test_family_parameter_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--family", "spider", "--n", "1")
    assert code == 2
    assert "spider" in err


def test_search_spider_and_evidence(tmp_path, capsys):
    evidence = tmp_path / "spider.jsonl"
    code, out, _ = run(
        capsys, "search", "--mode", "spider-unique", "--max-skeleton", "5",
        "--evidence", str(evidence),
    )
    assert code == 0
    assert "0 violations" in out
    payload = json.loads(evidence.read_text().splitlines()[0])
    assert payload["violations"] == []


def test_search_conjecture2(capsys):
    code, out, _ = run(
        capsys, "search", "--mode", "conjecture2", "--max-n", "5", "--max-tree-order", "10"
    )
    assert code == 0
    assert "counterexamples 0" in out


def test_search_hamidoune(capsys):
    code, out, _ = run(capsys, "search", "--mode", "hamidoune", "--max-n", "5")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("name, planted, violations", [
    ("is_star", lambda t: False, [f"{g6}: non-star skeleton matches the spider polynomial"
                                  for g6 in ("A_", "Bo", "Cs")]),
    ("is_star", lambda t: True, ["Cq: star skipped by multiplicity filter"]),
    ("multiplicity_of_minus_one", lambda q: 2, [
        f"{g6}: {what}" for g6 in ("A_", "Bo", "Cs") for what in (
            "multiple root at -1 yet matches a spider polynomial",
            "star skipped by multiplicity filter",
        )
    ]),
    ("spider_polynomial", lambda n: IntPolynomial((1,)),
     [f"{g6}: star skeleton fails to match the spider polynomial" for g6 in ("Bo", "Cs")]),
])
def test_spider_unique_reports_a_planted_violation(monkeypatch, capsys, name, planted, violations):
    from coronapoly import search

    monkeypatch.setattr(search, name, planted)
    code, out, _ = run(capsys, "search", "--mode", "spider-unique", "--max-skeleton", "4",
                       "--output", "json")
    assert code == 1
    assert json.loads(out)["violations"] == violations
    code, out, _ = run(capsys, "search", "--mode", "spider-unique", "--max-skeleton", "4")
    assert code == 1 and out.endswith(f", {len(violations)} violations\n")


def test_hamidoune_reports_a_planted_failure(monkeypatch, capsys):
    # every claw-free graph on at most 4 vertices fails; the claw is the
    # one contrast example
    from coronapoly import search

    monkeypatch.setattr(search, "all_roots_real", lambda p: False)
    argv = ["search", "--mode", "hamidoune", "--max-n", "4", "--jobs", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == "hamidoune: 10 graphs, 9 claw-free, 9 failures, 1 non-claw-free with nonreal roots\n"
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 1
    got = json.loads(out)
    assert got["verdict"] == "FAILURE FOUND"
    assert got["failures"] == ["@", "A_", "BW", "Bw", "CU", "CV", "C]", "C^", "C~"]
    assert got["nonreal_contrast_examples"] == ["CF"]


def test_env_var_default(monkeypatch, capsys):
    # no environment variable sets --max-n: the default corpus is scanned
    for value in ("3", "abc"):
        monkeypatch.setenv("CORONAPOLY_MAX_N", value)
        code, out, _ = run(capsys, "verify", "--suite", "divisibility", "--jobs", "1")
        assert code == 0
        assert "996 instances" in out   # connected graphs on <= 7 vertices
