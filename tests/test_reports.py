import pickle
from fractions import Fraction

import pytest

from coronapoly.graphs import StreamItem
from coronapoly.polynomials import IntPolynomial
from coronapoly.roots import BijectionReport, BoundCheck, RootReport
from coronapoly.search import (
    Conjecture2Report,
    EquivalenceReport,
    HamidouneReport,
    PolynomialClass,
    SpiderScanReport,
)
from coronapoly.suites import SuiteResult

# class -> (positional arguments by name, defaults of the fields after them)
_CASES = {
    BoundCheck: (
        {"name": "annulus", "passed": False},
        {"note": ""},
    ),
    RootReport: (
        {
            "polynomial": IntPolynomial([1, 2]),
            "real_roots": [(Fraction(-1, 2), Fraction(-1, 2), 1)],
            "complex_roots": [],
        },
        {"bounds": {}},
    ),
    BijectionReport: ({}, {"notes": []}),
    PolynomialClass: (
        {"coefficients": (1, 2), "members": ["@"], "codes": ["aa"]},
        {},
    ),
    EquivalenceReport: (
        {"classes": [PolynomialClass((1, 2), ["@"], ["aa"])]},
        {"source": "", "errors": []},
    ),
    SpiderScanReport: (
        {
            "max_skeleton": 3,
            "skeletons_checked": 2,
            "matches": [(3, "Bw")],
            "skipped_multiplicity": 0,
            "violations": [],
        },
        {},
    ),
    Conjecture2Report: (
        {
            "max_tree_order": 4,
            "graphs_scanned": 5,
            "skipped_disconnected": 1,
            "supporting_matches": 2,
            "counterexamples": [],
        },
        {},
    ),
    HamidouneReport: (
        {"graphs_scanned": 3, "claw_free_count": 2, "failures": [], "nonreal_contrast": ["C~"]},
        {"nonreal_contrast_count": 0, "verdicts": []},
    ),
    SuiteResult: ({"suite": "bounds", "checked": 4}, {"failures": []}),
    StreamItem: ({"label": "line 1", "graph": "A_"}, {}),
}
_IMMUTABLE = (BoundCheck, StreamItem)


def _state(obj, names):
    return obj.to_json() if hasattr(obj, "to_json") else [getattr(obj, n) for n in names]


@pytest.mark.parametrize("cls", _CASES, ids=lambda cls: cls.__name__)
def test_report_class_contract(cls):
    args, defaults = _CASES[cls]
    names = [*args, *defaults]
    first, second = cls(*args.values()), cls(*args.values())
    # positional order and defaults
    assert [getattr(first, n) for n in names] == [*args.values(), *defaults.values()]
    # a mutable default is a fresh object per instance
    for name, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(first, name) is not getattr(second, name), name
    # slots: no attribute outside the declared fields
    with pytest.raises(AttributeError):
        first.undeclared = 1
    if cls in _IMMUTABLE:
        with pytest.raises(AttributeError):
            setattr(first, names[-1], None)
    if cls is RootReport:
        first.bounds["modulus_floor"] = BoundCheck("modulus_floor", True)
    copy = pickle.loads(pickle.dumps(first))
    assert type(copy) is cls
    assert _state(copy, names) == _state(first, names)


def test_derived_fields_follow_their_source():
    assert BoundCheck("a", None).applicable is False
    assert BoundCheck("a", False).applicable is True
    assert BijectionReport(["x"]).passed is False
    assert BijectionReport().passed is True
    assert PolynomialClass((1, 2), ["@", "@"], ["aa", "aa"]).all_isomorphic is True
    assert PolynomialClass((1, 2), ["@", "@"], ["aa", "ab"]).all_isomorphic is False
    report = EquivalenceReport(
        [PolynomialClass((1, 2), ["@"], ["aa"]), PolynomialClass((1, 3), ["A_", "A_"], ["ab", "ab"])],
        errors=["e"],
    )
    assert report.graphs_seen == 3 == report.to_json()["graphs"]
    assert RootReport(IntPolynomial([1, 1]) ** 2, [], []).minus_one_multiplicity == 2
