"""Named invariant suites behind ``coronapoly verify``.

Each graph suite sweeps a corpus (an ingested graph6 stream, or
``default_corpus``, the built-in catalog of connected graphs) and records a
failure message per violated instance.  Everything here is exact; a
suite passes iff no instance fails.  ``run_suite`` maps a picklable
per-graph check, which returns a bare reason, with ``graphs.map_items``
over its ``mapper`` (the builtin ``map``, or an ordered parallel map),
and the fold names each failing graph once, in graph6.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import partial

from .canon import GRAPH_ENUM_LIMIT, enumerate_graphs
from .corona import (
    coefficient_monotonicity_check,
    corona_coefficients,
    corona_polynomial_identity,
    divisibility_check,
    inverse_corona_coefficients,
)
from .errors import ResourceLimitError
from .graphs import (
    Graph,
    alpha,
    complete_graph,
    corona,
    is_connected,
    item_graph6,
    item_parse,
    map_items,
)
from .indpoly import independence_polynomial
from .roots import (
    build_hk,
    check_hk_order,
    count_distinct_real_roots,
    multiplicity_of_minus_one,
    root_bijection_check,
    verify_bounds,
)

SUITES = (
    "corona-identities",
    "divisibility",
    "multiplicity",
    "bijection",
    "bounds",
    "monotonicity",
    "hk",
    "no-root-below-minus-one",
)

DEFAULT_MAX_N = 7   # catalog cap of the graph suites when none is given
DEFAULT_MAX_K = 4   # iterations of the hk suite when none is given


class SuiteResult:
    __slots__ = ("suite", "checked", "failures")

    def __init__(self, suite: str, checked: int, failures: list[str] | None = None):
        self.suite = suite
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": self.failures,
            "pass": self.passed,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"suite {self.suite}: {self.checked} instances, {len(self.failures)} failures: {verdict}"


def default_corpus(max_n: int | None = None) -> list[Graph]:
    """Connected graphs on 1..max_n vertices (default DEFAULT_MAX_N) from
    the built-in catalog, whose memoised levels make this one pass over
    1..max_n: the levels below max_n are read from the full levels, which
    are built anyway as parents, and only level max_n is built connected
    only.  Both caps are checked before any work."""
    if max_n is None:
        max_n = DEFAULT_MAX_N
    if max_n < 1:
        raise ValueError(f"corpus cap must be >= 1, got {max_n}")
    if max_n > GRAPH_ENUM_LIMIT:
        raise ResourceLimitError(
            f"built-in catalog capped at {GRAPH_ENUM_LIMIT} vertices; "
            "ingest a graph6 stream for larger orders"
        )
    out = [g for n in range(1, max_n) for g in enumerate_graphs(n) if is_connected(g)]
    return out + enumerate_graphs(max_n, connected=True)


def check_one(suite: str, g: Graph) -> str | None:
    """Run one suite instance; None on pass, else the reason it failed."""
    n = g.n
    if suite == "corona-identities":
        s = independence_polynomial(g)
        by_sum = corona_coefficients(s, n)
        by_identity = corona_polynomial_identity(s, n)
        direct = independence_polynomial(corona(g))
        if not (by_sum == by_identity == direct):
            return "corona coefficient routes disagree"
        if inverse_corona_coefficients(by_sum, n) != s:
            return "inverse transform does not round-trip"
        return None
    if suite == "divisibility":
        if g.num_edges == 0:
            return None
        count, power, ok = divisibility_check(g)
        if not ok:
            return f"{count} not divisible by 2^{power}"
        return None
    if suite == "multiplicity":
        if g.num_edges == 0:
            return None
        m = multiplicity_of_minus_one(independence_polynomial(corona(g)))
        expect = n - alpha(g)
        if m != expect:
            return f"multiplicity {m} != {expect}"
        return None
    if suite == "bijection":
        return "; ".join(root_bijection_check(g).notes) or None
    if suite == "bounds":
        if n < 2:
            return None
        report = verify_bounds(g)
        bad = [b.name for b in report.bounds.values() if b.applicable and not b.passed]
        if bad:
            return f"failed bounds {bad}"
        return None
    if suite == "monotonicity":
        t = corona_coefficients(independence_polynomial(g), n)
        if not coefficient_monotonicity_check(t):
            return "corona coefficients not monotone to ceil(n/2)"
        return None
    if suite == "no-root-below-minus-one":
        if g.num_edges == 0:
            return None
        # no root below -1 fixes the sign there: I(G*) has degree n and a
        # positive leading coefficient, so it has the sign of (-1)^n
        q = independence_polynomial(corona(g))
        below = count_distinct_real_roots(q, None, Fraction(-1), include_hi=False)
        if below != 0:
            return "corona polynomial has a real root < -1"
        return None
    raise ValueError(f"unknown suite {suite!r}")


def _check_item(suite: str, item) -> str | None:
    """Per-item map of run_suite: check_one on one stream item."""
    return check_one(suite, item_parse(item))


def run_hk_suite(max_k: int | None = None) -> SuiteResult:
    """Iterated coronas of K_2: exact root at -1/k for k = 1..max_k
    (default DEFAULT_MAX_K).  H_max_k is checked against the vertex cap,
    VERTEX_LIMIT, before any H_k is built."""
    if max_k is None:
        max_k = DEFAULT_MAX_K
    seed = complete_graph(2)
    check_hk_order(seed, max_k)
    result = SuiteResult("hk", 0)
    for k in range(1, max_k + 1):
        result.checked += 1
        _, ok = build_hk(seed, k)
        if not ok:
            result.failures.append(f"k={k}: I(H_k;-1/k) != 0")
    return result


def run_suite(suite: str, graphs: Iterable, mapper: Callable[..., Iterable] = map) -> SuiteResult:
    """Run a graph suite over `graphs` (hk builds its own instances:
    ``run_hk_suite``)."""
    result = SuiteResult(suite, 0)
    for item, reason in map_items(partial(_check_item, suite), graphs, mapper):
        result.checked += 1
        if reason is not None:
            result.failures.append(f"{item_graph6(item.graph)}: {reason}")
    return result
