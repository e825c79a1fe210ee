import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import coronapoly
from coronapoly.cli import main
from coronapoly.graphs import cycle_graph, encode_graph6, parse_graph6, path_graph
from coronapoly.polynomials import IntPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_family(capsys):
    code, out, _ = run(capsys, "poly", "--family", "path", "--n", "4")
    assert code == 0
    assert out.strip() == "1 + 4x + 3x^2"


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


def test_corona_at_the_graph6_cap(capsys):
    code, out, _ = run(capsys, "corona", "--family", "path", "--n", "31", "--output", "json")
    assert code == 0
    assert parse_graph6(json.loads(out)["corona"]).n == 62


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--family", "path", "--n", "63", "--output", "json"),
        ("corona", "--family", "path", "--n", "32"),
        ("corona", "--family", "path", "--n", "32", "--output", "json"),
        ("roots", "--family", "path", "--n", "63"),
        ("gen", "--family", "path", "--n", "63"),
    ],
)
def test_graph6_output_cap_checked_before_any_work(monkeypatch, capsys, argv):
    from coronapoly import cli

    def work(*args):
        raise AssertionError("computed before the graph6 output cap was checked")

    monkeypatch.setattr(cli, "independence_polynomial", work)
    monkeypatch.setattr(cli, "verify_bounds", work)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "resource limit" in err and "62" in err


def test_transform_round_trip(capsys):
    code, out, _ = run(capsys, "transform", "--coeffs", "1,2", "--n", "2")
    assert code == 0
    assert out.strip() == "1 + 4x + 3x^2"
    code, out, _ = run(
        capsys, "transform", "--coeffs", "1,4,3", "--n", "2", "--inverse", "--alpha", "1"
    )
    assert code == 0
    assert out.strip() == "1 + 2x"


def test_transform_rejects_non_image(capsys):
    code, out, _ = run(
        capsys, "transform", "--coeffs", "1,0,1", "--n", "2", "--inverse", "--alpha", "2",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["corona_image"] is False


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "cycle", "--n", "7", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minus_one_multiplicity"] == 0
    assert len(payload["real_roots"]) == 3
    names = {b["name"] for b in payload["bounds"]}
    assert {"annulus", "xi_max_window", "modulus_floor"} <= names


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
    # the bijection has no cap of its own: the corona's 22 vertices fit the engine
    stream = tmp_path / "c11.g6"
    stream.write_text(encode_graph6(cycle_graph(11)) + "\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "bijection", "--input", str(stream), "--jobs", "1"
    )
    assert code == 0
    assert "1 instances" in out


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

    monkeypatch.setattr(suites, "check_one", lambda suite, g, tol=1e-9: "forced failure")
    code, out, _ = run(capsys, "verify", "--suite", "divisibility", "--max-n", "3", "--jobs", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_resource_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--suite", "multiplicity", "--max-n", "9", "--jobs", "1")
    assert code == 3
    assert "resource limit" in err


def test_verify_hk_uses_the_suite_default(monkeypatch, capsys):
    monkeypatch.delenv("CORONAPOLY_MAX_N", raising=False)
    code, out, _ = run(capsys, "verify", "--suite", "hk")
    assert code == 0
    assert "4 instances" in out
    # the corpus cap in the environment does not reach the hk iteration count
    monkeypatch.setenv("CORONAPOLY_MAX_N", "7")
    code, out, _ = run(capsys, "verify", "--suite", "hk")
    assert code == 0
    assert "4 instances" in out


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


def test_spider_unique_over_the_cap_exit_code(capsys):
    code, out, err = run(capsys, "search", "--mode", "spider-unique", "--max-skeleton", "9")
    assert code == 3
    assert out == "" and "resource limit" in err


def test_bad_env_max_n_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CORONAPOLY_MAX_N", "abc")
    code, out, err = run(capsys, "verify", "--suite", "multiplicity", "--jobs", "1")
    assert code == 2
    assert out == "" and err == "coronapoly: bad CORONAPOLY_MAX_N 'abc'\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poly"])  # no input source
    assert info.value.code == 2


def test_verify_hk_rejects_input_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing.g6"    # never created: opening it would fail
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "hk", "--input", str(missing)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--suite hk builds its own instances and takes no --input" in err
    assert "No such file" not in err and "parse error" not in err


def test_root_convergence_exit_code(monkeypatch, capsys):
    from coronapoly import roots
    from coronapoly.errors import RootConvergenceError

    def numeric_roots(*args, **kwargs):
        raise RootConvergenceError("no convergence after 500 sweeps", [])

    monkeypatch.setattr(roots, "numeric_roots", numeric_roots)
    code, out, err = run(capsys, "roots", "--family", "cycle", "--n", "5")
    assert code == 4
    assert out == ""
    assert err == "coronapoly: root iteration did not converge: no convergence after 500 sweeps\n"


def test_roots_well_covered_cap_before_root_work(monkeypatch, capsys):
    from coronapoly import roots

    def root_report(*args, **kwargs):
        raise AssertionError("root work started before the well-covered cap was checked")

    monkeypatch.setattr(roots, "root_report", root_report)
    code, out, err = run(capsys, "roots", "--family", "star", "--n", "30")
    assert code == 3
    assert out == "" and "31 vertices exceeds limit 24" in err


def test_search_equal_poly(tmp_path, capsys):
    from corpus import trees_exactly

    stream = tmp_path / "trees10.g6"
    stream.write_text("".join(encode_graph6(t) + "\n" for t in trees_exactly(10)))
    code, out, _ = run(capsys, "search", "--mode", "equal-poly", "--input", str(stream))
    assert code == 0
    assert "classes" in out
    code, out, _ = run(
        capsys, "search", "--mode", "equal-poly", "--input", str(stream), "--output", "json"
    )
    payload = json.loads(out)
    assert any(
        c["polynomial"] == ["1", "10", "36", "58", "42", "12", "1"]
        and len(c["members"]) >= 2
        and c["all_isomorphic"] is False
        for c in payload["classes"]
    )


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


@pytest.fixture
def pools(monkeypatch):
    """The arguments of every Pool the CLI opens."""
    from multiprocessing import Pool

    from coronapoly import cli

    calls = []

    def counting_pool(*args):
        calls.append(args)
        return Pool(*args)

    monkeypatch.setattr(cli, "Pool", counting_pool)
    return calls


@pytest.mark.parametrize("scan", STREAM_SCANS)
def test_stream_scan_parallel_matches_serial(tmp_path, capsys, pools, scan):
    stream = _write_stream(tmp_path / "bulk.g6", _bulk_lines())
    results = []
    for jobs in ("1", "2"):
        argv = [*STREAM_SCANS[scan], "--input", stream, "--jobs", jobs, "--output", "json"]
        evidence = tmp_path / f"evidence-{jobs}.jsonl"
        if scan != "verify":
            argv += ["--evidence", str(evidence)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        results.append((out, evidence.read_bytes() if scan != "verify" else b""))
    assert results[0] == results[1]
    assert pools == [(2,)]


def test_catalog_scan_parallel_matches_serial(capsys, pools):
    # a catalog scan sends Graph objects, not graph6 lines, through the pool
    outs = []
    for jobs in ("1", "2"):
        argv = ["verify", "--suite", "multiplicity", "--max-n", "6", "--jobs", jobs]
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["checked"] == 143
    assert pools == [(2,)]


# Importing the CLI must not load the pool (a scan imports it when it opens
# one), nor the costly stdlib behind dataclasses and typing; it must load
# every package module that perfbench/traced.py wraps by name.
_CLI_IMPORT = [
    *((m, False) for m in ("multiprocessing", "dataclasses", "inspect", "typing", "ast", "dis")),
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


def test_env_var_default(monkeypatch, capsys):
    monkeypatch.setenv("CORONAPOLY_MAX_N", "3")
    code, out, _ = run(capsys, "verify", "--suite", "divisibility", "--jobs", "1")
    assert code == 0
    assert "4 instances" in out  # connected graphs on <= 3 vertices
