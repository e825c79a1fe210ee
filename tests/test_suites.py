import pytest

from coronapoly import suites
from coronapoly.errors import ResourceLimitError
from coronapoly.graphs import cycle_graph, encode_graph6
from coronapoly.suites import DEFAULT_MAX_K, check_one, default_corpus, run_hk_suite, run_suite


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the size cap was checked")


def test_hk_default_is_one_rule():
    result = run_hk_suite()
    assert result.checked == DEFAULT_MAX_K == 4
    assert result.passed
    assert run_hk_suite().checked == DEFAULT_MAX_K


def test_hk_rejects_nonpositive_max_k():
    # an explicit 0 used to fall back to the default silently
    with pytest.raises(ValueError):
        run_hk_suite(0)


def test_hk_cap_checked_before_building(monkeypatch):
    monkeypatch.setattr(suites, "build_hk", _must_not_run)
    with pytest.raises(ResourceLimitError):
        run_hk_suite(6)    # H_6 of K_2 has 128 > 64 vertices
    with pytest.raises(ResourceLimitError):
        run_hk_suite(7)    # the old default corpus cap


def test_corpus_cap_checked_before_enumeration(monkeypatch):
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    with pytest.raises(ResourceLimitError):
        default_corpus(9)


@pytest.mark.parametrize("cap", [0, -4])
def test_corpus_cap_below_one_rejected_before_enumeration(monkeypatch, cap):
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    with pytest.raises(ValueError):
        default_corpus(cap)


def test_failures_named_once_by_graph6(monkeypatch):
    # check_one gives the bare reason; run_suite names the graph once, by its
    # graph6 without a header, for a Graph item and for a padded line alike
    c5 = cycle_graph(5)
    text = encode_graph6(c5)
    monkeypatch.setattr(suites, "divisibility_check", lambda g: (3, 1, False))
    assert check_one("divisibility", c5) == "3 not divisible by 2^1"
    monkeypatch.setattr(suites, "check_one", lambda suite, g: "forced failure")
    result = run_suite("divisibility", [c5, f"  >>graph6<<{text}\n"])
    assert result.checked == 2
    assert result.failures == [f"{text}: forced failure"] * 2
