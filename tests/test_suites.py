import pytest

from coronapoly import suites
from coronapoly.errors import ResourceLimitError
from coronapoly.suites import DEFAULT_MAX_K, default_corpus, run_hk_suite, run_suite


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the size cap was checked")


def test_hk_default_is_one_rule():
    result = run_suite("hk")
    assert result.checked == DEFAULT_MAX_K == 4
    assert result.passed
    assert run_hk_suite().checked == DEFAULT_MAX_K


def test_hk_rejects_nonpositive_max_k():
    # an explicit 0 used to fall back to the default silently
    with pytest.raises(ValueError):
        run_suite("hk", max_n=0)


def test_hk_cap_checked_before_building(monkeypatch):
    monkeypatch.setattr(suites, "build_hk", _must_not_run)
    with pytest.raises(ResourceLimitError):
        run_suite("hk", max_n=6)    # H_6 of K_2 has 128 > 64 vertices
    with pytest.raises(ResourceLimitError):
        run_suite("hk", max_n=7)    # the old default corpus cap


def test_corpus_cap_checked_before_enumeration(monkeypatch):
    monkeypatch.setattr(suites, "enumerate_graphs", _must_not_run)
    with pytest.raises(ResourceLimitError):
        default_corpus(9)
