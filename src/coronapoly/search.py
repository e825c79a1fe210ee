"""Polynomial-equivalence classification and the conjecture evidence scans.

Graphs stream through as graph6 strings (what the reports retain), as
Graph values or as ``graphs.StreamItem`` lines.  Classification hashes the
exact decimal coefficient vector, so two graphs land in one class iff
their independence polynomials are identical as integer sequences.

Each stream scan is a picklable per-item function followed by a fold over
its results in stream order.  The per-item map is the scan's ``mapper``
argument: the builtin ``map`` by default, or any ordered parallel map such
as ``Pool.imap``, which gives the same report.  Scans report evidence
only: a clean pass means "no counterexample up to the stated order",
never more.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable

from .canon import canonical_code, enumerate_trees
from .corona import spider_polynomial
from .errors import GraphParseError, ResourceLimitError
from .graphs import (
    Graph,
    StreamItem,
    corona,
    encode_graph6,
    is_connected,
    is_star,
    is_tree,
    item_graph,
    label_items,
    path_graph,
    pendant_edges_form_perfect_matching,
    is_claw_free,
)
from .indpoly import independence_polynomial, independence_polynomial_tree
from .polynomials import IntPolynomial
from .roots import all_roots_real, multiplicity_of_minus_one

SPIDER_SKELETON_LIMIT = 8


# -- equivalence classification -------------------------------------------


class PolynomialClass:
    __slots__ = ("coefficients", "members", "codes", "all_isomorphic")

    def __init__(
        self,
        coefficients: tuple[int, ...],
        members: list[str],                     # graph6 strings
        codes: list[str] | None = None,         # hex canonical codes, aligned with members
        all_isomorphic: bool | None = None,     # None when codes were unavailable
    ):
        self.coefficients = coefficients
        self.members = members
        self.codes = codes
        self.all_isomorphic = all_isomorphic

    @property
    def polynomial(self) -> IntPolynomial:
        return IntPolynomial(self.coefficients)

    def to_json(self) -> dict:
        return {
            "polynomial": [str(c) for c in self.coefficients],
            "members": self.members,
            "canonical_codes": self.codes,
            "all_isomorphic": self.all_isomorphic,
        }


class EquivalenceReport:
    __slots__ = ("classes", "source", "graphs_seen", "errors")

    def __init__(
        self,
        classes: list[PolynomialClass],
        source: str = "",
        graphs_seen: int = 0,
        errors: list[str] | None = None,
    ):
        self.classes = classes
        self.source = source
        self.graphs_seen = graphs_seen
        self.errors = [] if errors is None else errors

    def nontrivial_classes(self) -> list[PolynomialClass]:
        return [c for c in self.classes if len(c.members) > 1]

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "graphs": self.graphs_seen,
            "classes": [c.to_json() for c in self.classes],
            "errors": self.errors,
        }

    def summary_table(self) -> str:
        lines = [
            f"source: {self.source or '-'}",
            f"graphs: {self.graphs_seen}, classes: {len(self.classes)}, "
            f"nontrivial: {len(self.nontrivial_classes())}",
            f"{'size':>5}  {'iso':>5}  polynomial",
        ]
        for c in self.classes:
            iso = {True: "yes", False: "NO", None: "?"}[c.all_isomorphic]
            lines.append(f"{len(c.members):>5}  {iso:>5}  {IntPolynomial(c.coefficients)}")
        if self.errors:
            lines.append(f"errors: {len(self.errors)}")
        return "\n".join(lines)


def _coefficient_key(item: StreamItem) -> tuple[tuple[int, ...] | None, str, object]:
    """Per-item map of partition_graphs: (key, graph6, hex canonical code or
    the ResourceLimitError that blocked it), or (None, error, None)."""
    try:
        g6, g = item_graph(item)
        key = independence_polynomial(g).coeffs
    except GraphParseError as exc:  # already names the item
        return None, str(exc), None
    except Exception as exc:  # per-graph failure; the stream continues
        return None, f"{item.label}: {exc}", None
    try:
        return key, g6, canonical_code(g).hex()
    except ResourceLimitError as exc:
        return key, g6, exc


def partition_graphs(
    items: Iterable[Graph | str | StreamItem], mapper: Callable[..., Iterable] = map
) -> tuple[dict[tuple[int, ...], list[tuple[str, object]]], int, list[str]]:
    """Map each graph to its exact coefficient key, keeping its graph6 and
    canonical code; an item that fails is recorded in the error list and
    the stream continues."""
    buckets: dict[tuple[int, ...], list[tuple[str, object]]] = {}
    errors: list[str] = []
    for key, text, code in mapper(_coefficient_key, label_items(items)):
        if key is None:
            errors.append(text)
        else:
            buckets.setdefault(key, []).append((text, code))
    return buckets, sum(map(len, buckets.values())), errors


def group_by_polynomial(items: Iterable[Graph | str | StreamItem], source: str = "") -> EquivalenceReport:
    """Partition a graph stream into classes of equal independence
    polynomial, with per-class isomorphism verdicts where computable."""
    return report_from_partition(partition_graphs(items), source)


def report_from_partition(
    partition: tuple[dict, int, list[str]], source: str = ""
) -> EquivalenceReport:
    """Finalize a partition into an EquivalenceReport."""
    buckets, seen, errors = partition
    errors = list(errors)
    classes = []
    for key in sorted(buckets, key=lambda k: (len(k), k)):
        pairs = sorted(buckets[key], key=lambda pair: pair[0])
        members = [g6 for g6, _ in pairs]
        codes = [code for _, code in pairs]
        blocked = next((c for c in codes if isinstance(c, ResourceLimitError)), None)
        if blocked is None:
            classes.append(PolynomialClass(key, members, codes, len(set(codes)) == 1))
        else:
            errors.append(f"isomorphism verdict skipped: {blocked}")
            classes.append(PolynomialClass(key, members))
    return EquivalenceReport(classes, source, seen, errors)


def corona_equivalence_check(g: Graph, h: Graph) -> bool:
    """Whether I(G)=I(H) <=> I(G*)=I(H*); a False is a defect detector."""
    same = independence_polynomial(g) == independence_polynomial(h)
    same_corona = independence_polynomial(corona(g)) == independence_polynomial(corona(h))
    return same == same_corona


# -- spider uniqueness -------------------------------------------------------


class SpiderScanReport:
    __slots__ = (
        "max_skeleton", "skeletons_checked", "matches", "skipped_multiplicity", "violations",
    )

    def __init__(
        self,
        max_skeleton: int,
        skeletons_checked: int,
        matches: list[tuple[int, str]],         # (skeleton order, skeleton graph6)
        skipped_multiplicity: int,
        violations: list[str],
    ):
        self.max_skeleton = max_skeleton
        self.skeletons_checked = skeletons_checked
        self.matches = matches
        self.skipped_multiplicity = skipped_multiplicity
        self.violations = violations

    def to_json(self) -> dict:
        return {
            "max_skeleton": self.max_skeleton,
            "skeletons_checked": self.skeletons_checked,
            "matches": [{"order": n, "skeleton": g6} for n, g6 in self.matches],
            "skipped_multiplicity": self.skipped_multiplicity,
            "violations": self.violations,
        }


def spider_uniqueness_scan(max_skeleton: int) -> SpiderScanReport:
    """Confirm over all tree skeletons up to the given order that only the
    stars produce a spider polynomial under the corona.

    Skeletons whose corona polynomial has -1 as a multiple root are
    skipped up front (they cannot match: every spider polynomial has the
    multiplicity exactly 1), and the skip is itself validated.
    """
    if max_skeleton > SPIDER_SKELETON_LIMIT:
        raise ResourceLimitError(
            f"spider uniqueness scan capped at skeleton order {SPIDER_SKELETON_LIMIT}"
        )
    checked = 0
    skipped = 0
    matches: list[tuple[int, str]] = []
    violations: list[str] = []
    for n in range(2, max_skeleton + 1):
        for t in enumerate_trees(n):
            checked += 1
            q = independence_polynomial_tree(corona(t))
            expected = (
                independence_polynomial_tree(corona(path_graph(2)))
                if n == 2
                else spider_polynomial(n - 1)
            )
            star = is_star(t)
            if multiplicity_of_minus_one(q) != 1:
                skipped += 1
                if q == expected:
                    violations.append(
                        f"{encode_graph6(t)}: multiple root at -1 yet matches a spider polynomial"
                    )
                if star:
                    violations.append(f"{encode_graph6(t)}: star skipped by multiplicity filter")
                continue
            if q == expected:
                if star:
                    matches.append((n, encode_graph6(t)))
                else:
                    violations.append(
                        f"{encode_graph6(t)}: non-star skeleton matches the spider polynomial"
                    )
            elif star:
                violations.append(
                    f"{encode_graph6(t)}: star skeleton fails to match the spider polynomial"
                )
    return SpiderScanReport(max_skeleton, checked, matches, skipped, violations)


# -- conjecture evidence scans -----------------------------------------------


def well_covered_trees(max_order: int) -> list[Graph]:
    """K_1 plus every corona of a tree on up to max_order/2 vertices; by the
    pendant-matching characterization these are exactly the well-covered
    trees up to max_order."""
    out = [Graph(1)] if max_order >= 1 else []
    for k in range(1, max_order // 2 + 1):
        out.extend(corona(t) for t in enumerate_trees(k))
    return out


class Conjecture2Report:
    __slots__ = (
        "max_tree_order", "graphs_scanned", "skipped_disconnected", "supporting_matches",
        "counterexamples",
    )

    def __init__(
        self,
        max_tree_order: int,
        graphs_scanned: int,
        skipped_disconnected: int,
        supporting_matches: int,
        counterexamples: list[dict],
    ):
        self.max_tree_order = max_tree_order
        self.graphs_scanned = graphs_scanned
        self.skipped_disconnected = skipped_disconnected
        self.supporting_matches = supporting_matches
        self.counterexamples = counterexamples

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "statement": "connected graph sharing a well-covered tree's polynomial "
            "is itself a well-covered tree",
            "verdict": (
                f"no counterexample up to tree order {self.max_tree_order}"
                if self.clean
                else "COUNTEREXAMPLE FOUND"
            ),
            "max_tree_order": self.max_tree_order,
            "graphs_scanned": self.graphs_scanned,
            "skipped_disconnected": self.skipped_disconnected,
            "supporting_matches": self.supporting_matches,
            "counterexamples": self.counterexamples,
        }

    def to_jsonl_lines(self) -> list[str]:
        lines = [json.dumps(self.to_json())]
        lines.extend(json.dumps(c) for c in self.counterexamples)
        return lines


def _conjecture2_verdict(item: StreamItem) -> tuple[str, tuple[int, ...] | None, bool]:
    """Per-item map of conjecture2_scan: (graph6, key or None if disconnected,
    well-covered tree)."""
    g6, g = item_graph(item)
    if not is_connected(g):
        return g6, None, False
    well_covered_tree = is_tree(g) and (g.n == 1 or pendant_edges_form_perfect_matching(g))
    return g6, independence_polynomial(g).coeffs, well_covered_tree


def conjecture2_scan(
    items: Iterable[Graph | str | StreamItem], max_tree_order: int, mapper: Callable[..., Iterable] = map
) -> Conjecture2Report:
    """Evidence scan: every connected stream graph whose polynomial matches a
    well-covered tree's should itself be a well-covered tree.

    Disconnected stream graphs are skipped with a count (the statement is
    about connected graphs).  Counterexamples, if any, are reported
    verbatim as graph6.
    """
    index: dict[tuple[int, ...], str] = {}
    for t in well_covered_trees(max_tree_order):
        index[independence_polynomial_tree(t).coeffs] = encode_graph6(t)
    scanned = 0
    skipped = 0
    supporting = 0
    counterexamples: list[dict] = []
    for g6, key, well_covered_tree in mapper(_conjecture2_verdict, label_items(items)):
        if key is None:
            skipped += 1
            continue
        scanned += 1
        if key not in index:
            continue
        if well_covered_tree:
            supporting += 1
        else:
            counterexamples.append(
                {"graph": g6, "polynomial": [str(c) for c in key], "tree": index[key]}
            )
    return Conjecture2Report(max_tree_order, scanned, skipped, supporting, counterexamples)


class HamidouneReport:
    __slots__ = (
        "graphs_scanned", "claw_free_count", "failures", "nonreal_contrast",
        "nonreal_contrast_count", "verdicts",
    )

    def __init__(
        self,
        graphs_scanned: int,
        claw_free_count: int,
        failures: list[str],                    # claw-free with a nonreal root
        nonreal_contrast: list[str],            # not claw-free, nonreal roots
        nonreal_contrast_count: int = 0,
        verdicts: list[tuple[str, bool, bool]] | None = None,
    ):
        self.graphs_scanned = graphs_scanned
        self.claw_free_count = claw_free_count
        self.failures = failures
        self.nonreal_contrast = nonreal_contrast
        self.nonreal_contrast_count = nonreal_contrast_count
        # per-graph (graph6, claw_free, real_rooted); JSON carries the summary
        self.verdicts = [] if verdicts is None else verdicts

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "statement": "claw-free graphs have real-rooted independence polynomials",
            "verdict": "no failure in scanned corpus" if self.clean else "FAILURE FOUND",
            "graphs_scanned": self.graphs_scanned,
            "claw_free": self.claw_free_count,
            "failures": self.failures,
            "nonreal_contrast_count": self.nonreal_contrast_count,
            "nonreal_contrast_examples": self.nonreal_contrast,
        }

    def to_jsonl_lines(self) -> list[str]:
        lines = [json.dumps(self.to_json())]
        lines.extend(
            json.dumps({"graph": g6, "claw_free": cf, "real_rooted": rr})
            for g6, cf, rr in self.verdicts
        )
        return lines


_CONTRAST_EXAMPLES = 10   # non-claw-free nonreal-rooted graphs kept on the report


def _hamidoune_verdict(item: StreamItem) -> tuple[str, bool, bool]:
    """Per-item map of hamidoune_scan: (graph6, claw-free, real-rooted)."""
    g6, g = item_graph(item)
    return g6, is_claw_free(g), all_roots_real(independence_polynomial(g))


def hamidoune_scan(
    items: Iterable[Graph | str | StreamItem], *, mapper: Callable[..., Iterable] = map
) -> HamidouneReport:
    """Exact all-real-root certificates for every claw-free graph in the
    stream (Sturm counts weighted by square-free multiplicity must exhaust
    the degree).  Non-claw-free graphs with nonreal roots are tallied for
    contrast, and every graph's (claw-free, real-rooted) verdict is kept on
    the report."""
    scanned = 0
    claw_free = 0
    failures: list[str] = []
    contrast: list[str] = []
    contrast_count = 0
    verdicts: list[tuple[str, bool, bool]] = []
    for g6, cf, real_rooted in mapper(_hamidoune_verdict, label_items(items)):
        scanned += 1
        verdicts.append((g6, cf, real_rooted))
        if cf:
            claw_free += 1
            if not real_rooted:
                failures.append(g6)
        elif not real_rooted:
            contrast_count += 1
            if len(contrast) < _CONTRAST_EXAMPLES:
                contrast.append(g6)
    return HamidouneReport(
        scanned, claw_free, failures, contrast, contrast_count, verdicts
    )
