"""Traced in-process replay of one coronapoly CLI call.

usage: PYTHONPATH=src python3 perfbench/traced.py STATS_PATH CLI_ARG ...

Wraps the public functions at each module boundary of the package in
spans, rebinding each name in every module that imports it, then runs
``coronapoly.cli.main`` on the given arguments in this interpreter and
writes per-span aggregates to STATS_PATH as JSON.  The package's own
files are not changed.  Spans are aggregated as they close (calls, total
and self seconds, durations) rather than kept one by one; a span's self
time is its duration minus the time of the spans it opened.

``LAYER_METRICS`` names the per-layer metrics, and for each the
end-to-end metric it should move, the workload where it should, and the
workload that bypasses the layer, where it should not.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# span name -> the (module, function) pairs it wraps
SPANS = {
    "cli.main": [("cli", "main")],
    "graphs.parse_graph6": [("graphs", "parse_graph6")],
    "graphs.predicates": [
        ("graphs", f)
        for f in ("alpha", "is_well_covered", "girth", "is_claw_free", "is_connected", "complement")
    ],
    "canon.enumerate_graphs": [("canon", "enumerate_graphs")],
    "canon.canonical_code": [("canon", "canonical_code")],
    "indpoly.independence_polynomial": [("indpoly", "independence_polynomial")],
    "roots.verify_bounds": [("roots", "verify_bounds")],
    "roots.isolate_real_roots": [("roots", "isolate_real_roots")],
    "roots.count_distinct_real_roots": [("roots", "count_distinct_real_roots")],
    "roots.refine_root_interval": [("roots", "refine_root_interval")],
    "roots.square_free": [("roots", "square_free_part"), ("roots", "square_free_decomposition")],
    "roots.sturm_chain": [("roots", "sturm_chain")],
    "roots.numeric_roots": [("roots", "numeric_roots")],
    "roots.all_roots_real": [("roots", "all_roots_real")],
    "suites.check_one": [("suites", "check_one")],
    "search.partition_graphs": [("search", "partition_graphs")],
    "search.report_from_partition": [("search", "report_from_partition")],
    "search.hamidoune_scan": [("search", "hamidoune_scan")],
}

_ROOTS_SLOW = ("graphs_per_s", "bounds; slightly catalog-hamidoune", "poly-large, classify")
_CLASSIFY = ("graphs_per_s", "classify", "catalog-hamidoune")
_SEARCH = ("graphs_per_s, peak_rss_mb, cpu_s", "classify", "bounds, poly-large")
_ENGINE = ("graphs_per_s", "poly-large; partly classify", "bounds")
_CATALOG = ("wall_s", "catalog-hamidoune", "bounds, poly-large, classify")

# name -> (unit, better, moves, on workload, bypass workload)
LAYER_METRICS = {
    "graphs.parse_graph6.calls": ("count", "lower", *_CLASSIFY),
    "graphs.parse_graph6.self_s": ("s", "lower", *_CLASSIFY),
    "graphs.predicates.self_s": ("s", "lower", "graphs_per_s", "bounds, catalog-hamidoune", "poly-large, classify"),
    "canon.enumerate_graphs.self_s": ("s", "lower", *_CATALOG),
    "canon.canonical_code.calls": ("count", "lower", "graphs_per_s; wall_s", "classify; catalog-hamidoune", "bounds, poly-large"),
    "canon.canonical_code.self_s": ("s", "lower", "graphs_per_s; wall_s", "classify; catalog-hamidoune", "bounds, poly-large"),
    "canon.augment_yield": ("ratio", "higher", *_CATALOG),
    "polynomials.eval.calls": ("count", "lower", *_ROOTS_SLOW),
    "indpoly.independence_polynomial.calls": ("count", "lower", *_ENGINE),
    "indpoly.independence_polynomial.self_s": ("s", "lower", *_ENGINE),
    "indpoly.independence_polynomial.tail_ms": ("ms", "lower", *_ENGINE),
    "roots.verify_bounds.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.isolate_real_roots.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.count_distinct_real_roots.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.refine_root_interval.calls": ("count", "lower", *_ROOTS_SLOW),
    "roots.refine_root_interval.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.square_free.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.sturm_chain.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.numeric_roots.calls": ("count", "lower", *_ROOTS_SLOW),
    "roots.numeric_roots.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.all_roots_real.self_s": ("s", "lower", *_ROOTS_SLOW),
    "roots.square_free_part.hit_ratio": ("ratio", "higher", *_ROOTS_SLOW),
    "suites.check_one.self_s": ("s", "lower", "graphs_per_s", "bounds", "poly-large, classify, catalog-hamidoune"),
    "search.partition_graphs.self_s": ("s", "lower", *_SEARCH),
    "search.report_from_partition.self_s": ("s", "lower", *_SEARCH),
    "search.hamidoune_scan.self_s": ("s", "lower", "wall_s", "catalog-hamidoune", "bounds, poly-large, classify"),
    "cli.main.self_s": ("s", "lower", "wall_s", "classify (JSON output)", "bounds"),
    "trace.overhead_s": ("s", "lower", "none: cost of the traced replay", "-", "-"),
    "trace.layer_share": ("ratio", "higher", "none: traced wall time inside layer spans", "-", "-"),
}


class Tracer:
    """Per-name span aggregates: [calls, total_s, self_s, durations]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.eval_calls = 0
        self.candidates = 0     # canonical_code calls inside enumerate_graphs
        self.kept = 0           # distinct codes (classes) those calls produced
        self._open: list[list[float]] = []    # child time of each open span
        self._enumerations: list[set] = []

    def span(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0, []])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - child[0]
                stat[3].append(took)

        return traced

    def count_evals(self, fn):
        def counted(poly, x):
            self.eval_calls += 1
            return fn(poly, x)

        return counted

    def enumeration(self, fn):
        def enumerate_graphs(*args, **kwargs):
            self._enumerations.append(set())
            try:
                return fn(*args, **kwargs)
            finally:
                self.kept += len(self._enumerations.pop())

        return enumerate_graphs

    def candidate(self, fn):
        def canonical_code(*args, **kwargs):
            code = fn(*args, **kwargs)
            if self._enumerations:
                self.candidates += 1
                self._enumerations[-1].add(code)
            return code

        return canonical_code


def install(tracer: Tracer):
    """Wrap every SPANS function; returns the original square_free_part,
    whose lru cache statistics the summary reads."""
    from coronapoly import canon, cli, polynomials, roots

    modules = [m for name, m in list(sys.modules.items())
               if name == "coronapoly" or name.startswith("coronapoly.")]
    inner = {
        canon.enumerate_graphs: tracer.enumeration,
        canon.canonical_code: tracer.candidate,
    }
    square_free_part = roots.square_free_part
    for name, targets in SPANS.items():
        for module, attr in targets:
            original = getattr(sys.modules[f"coronapoly.{module}"], attr)
            wrapped = tracer.span(name, inner.get(original, lambda f: f)(original))
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapped)
    polynomials.IntPolynomial.__call__ = tracer.count_evals(polynomials.IntPolynomial.__call__)
    return square_free_part, cli


def tail(durations: list[float]) -> float:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples
    beyond it (p50 when there are fewer than 20)."""
    n = len(durations)
    if not n:
        return 0.0
    pct = next((p for p in (99.9, 99.0, 90.0) if n * (100 - p) / 100 >= 10), 50.0)
    return sorted(durations)[max(0, math.ceil(pct / 100 * n) - 1)]


def summarize(tracer: Tracer, square_free_part, main_s: float) -> dict:
    spans = {}
    for name, (calls, total, self_s, durations) in tracer.spans.items():
        spans[name] = {"calls": calls, "total_s": total, "self_s": self_s,
                       "tail_s": tail(durations)}
    info = square_free_part.cache_info()
    return {
        "spans": spans,
        "eval_calls": tracer.eval_calls,
        "candidates": tracer.candidates,
        "kept": tracer.kept,
        "square_free_part": {"hits": info.hits, "misses": info.misses},
        "main_s": main_s,
    }


def layer_metrics(stats: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced replay's summary."""
    spans = stats["spans"]

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            out[metric] = get(span, kind)
    out["canon.augment_yield"] = stats["kept"] / stats["candidates"] if stats["candidates"] else 0.0
    out["polynomials.eval.calls"] = stats["eval_calls"]
    out["indpoly.independence_polynomial.tail_ms"] = 1e3 * get("indpoly.independence_polynomial", "tail_s")
    cache = stats["square_free_part"]
    lookups = cache["hits"] + cache["misses"]
    out["roots.square_free_part.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["trace.overhead_s"] = traced_wall - untraced_wall
    main = spans["cli.main"]
    out["trace.layer_share"] = (main["total_s"] - main["self_s"]) / traced_wall
    assert set(out) == set(LAYER_METRICS)
    return out


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    square_free_part, cli = install(tracer)
    start = time.perf_counter()
    rc = cli.main(argv)
    done = time.perf_counter()
    sys.stdout.flush()
    summary = summarize(tracer, square_free_part, done - start)
    summary["export_s"] = time.perf_counter() - done
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
