"""Command-line surface: compute, transform, analyze roots, verify, search.

Exit codes: 0 success, 1 a verification failure or counterexample was
found, 2 usage error, 3 a size cap was exceeded, 4 a numeric root
iteration did not converge.  Every run is deterministic for fixed inputs
and flags (fixed pivot rule, fixed numeric initialization, no RNG
anywhere).

Input is read lazily, line by line.  Each stream scan maps its per-graph
work in order over ``--jobs`` worker processes once a stream has 64
graphs.  A bad graph6 line is named by its line number; ``equal-poly``
records it and exits 2 after its report.  ``CORONAPOLY_MAX_N`` in the
environment supplies the default ``--max-n`` of the graph corpora.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain, islice

from . import canon, corona as corona_mod, search, suites
from .errors import (
    GraphParseError,
    NotACoronaImage,
    ResourceLimitError,
    RootConvergenceError,
)
from .graphs import (
    StreamItem,
    centipede_graph,
    complete_graph,
    complete_multipartite_graph,
    corona,
    cycle_graph,
    encode_graph6,
    item_graph,
    parse_edge_list,
    path_graph,
    spider_graph,
    star_graph,
)
from .indpoly import independence_polynomial
from .polynomials import IntPolynomial
from .roots import root_report, verify_bounds

_FAMILIES = {
    "path": lambda n, sizes: path_graph(n),
    "cycle": lambda n, sizes: cycle_graph(n),
    "complete": lambda n, sizes: complete_graph(n),
    "star": lambda n, sizes: star_graph(n),
    "spider": lambda n, sizes: spider_graph(n),
    "centipede": lambda n, sizes: centipede_graph(n),
    "multipartite": lambda n, sizes: complete_multipartite_graph(sizes),
}

def _star_closed_form(n: int, sizes) -> IntPolynomial:
    # stable sets of K_{1,n}: any leaf subset, or the center alone
    return IntPolynomial((1, 1)) ** n + IntPolynomial((0, 1))


def _multipartite_closed_form(n: int, sizes) -> IntPolynomial | None:
    if sizes and len(set(sizes)) == 1:
        p, a = len(sizes), sizes[0]
        return p * IntPolynomial((1, 1)) ** a + IntPolynomial((1 - p,))
    return None  # unequal parts: computed by the engine


_CLOSED_FORMS = {
    "path": lambda n, sizes: corona_mod.path_polynomial(n),
    "spider": lambda n, sizes: corona_mod.spider_polynomial(n),
    "centipede": lambda n, sizes: corona_mod.centipede_polynomial(n),
    "complete": lambda n, sizes: IntPolynomial((1, n)),
    "star": _star_closed_form,
    "multipartite": _multipartite_closed_form,
}


def _default_max_n(fallback: int) -> int:
    value = os.environ.get("CORONAPOLY_MAX_N")
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"bad CORONAPOLY_MAX_N {value!r}") from None


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(_FAMILIES))
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--sizes", help="comma-separated part sizes (multipartite)")
    p.add_argument("--input", help="graph file, or - for stdin")
    p.add_argument(
        "--format", choices=("graph6", "edgelist"), default="graph6",
        help="input format: graph6 stream (one per line) or a single edge list",
    )


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("text", "json"), default="text")


_CHUNK = 64     # items per worker task; shorter streams are not fanned out


def _read_lines(path: str):
    """(line number, line) of a file, or of stdin for "-", read lazily.  A
    non-ASCII byte in a file is kept (as a lone surrogate) for the parser
    to reject with its line number."""
    file = nullcontext(sys.stdin) if path == "-" else open(
        path, encoding="ascii", errors="surrogateescape"
    )
    with file as fh:
        yield from enumerate(fh, 1)


def _graph6_items(path: str):
    """One StreamItem per non-blank line of a graph6 stream, named by its line."""
    return (StreamItem(f"line {n}", line) for n, line in _read_lines(path) if line.strip())


def Pool(processes: int):
    """multiprocessing.Pool, imported only when a scan opens one."""
    from multiprocessing import Pool as pool

    return pool(processes)


@contextmanager
def _scan_map(args: argparse.Namespace, default_max_n: int = 0):
    """(mapper, stream) of a scan over --input, else the catalog up to
    --max-n.  The mapper is the builtin map at --jobs 1 or for a stream of
    under _CHUNK items (read ahead to tell), else an ordered Pool.imap."""
    if args.input:
        items = _graph6_items(args.input)
    else:
        max_n = args.max_n if args.max_n is not None else _default_max_n(default_max_n)
        items = iter(suites.default_corpus(max_n))
    head = list(islice(items, _CHUNK))
    items = chain(head, items)
    if args.jobs <= 1 or len(head) < _CHUNK:
        yield map, items
    else:
        with Pool(args.jobs) as pool:
            yield lambda fn, items: pool.imap(fn, items, _CHUNK), items


def _graphs_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser):
    sources = sum(1 for flag in (args.family, args.input) if flag)
    if sources != 1:
        parser.error("exactly one input source required: --family or --input")
    if args.family == "multipartite":
        if not args.sizes:
            parser.error("--family multipartite requires --sizes a,b,c")
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        yield _FAMILIES[args.family](0, sizes)
    elif args.family:
        if args.n is None:
            parser.error(f"--family {args.family} requires --n")
        yield _FAMILIES[args.family](args.n, None)
    elif args.format == "edgelist":
        yield parse_edge_list("".join(line for _, line in _read_lines(args.input)))
    else:
        for item in _graph6_items(args.input):
            yield item_graph(item)[1]


def _parse_coeffs(text: str) -> IntPolynomial:
    text = text.strip()
    if text.startswith("["):
        return IntPolynomial.from_json_coeffs(json.loads(text))
    return IntPolynomial([int(tok) for tok in text.replace(",", " ").split()])


def _emit(obj: dict, text: str, mode: str) -> None:
    print(json.dumps(obj) if mode == "json" else text)


# -- command implementations -------------------------------------------------


def _cmd_poly(args, parser) -> int:
    for g in _graphs_from_args(args, parser):
        p = independence_polynomial(g)
        _emit(
            {"graph": encode_graph6(g), "coefficients": p.to_json_coeffs()},
            str(p),
            args.output,
        )
    return 0


def _cmd_corona(args, parser) -> int:
    for g in _graphs_from_args(args, parser):
        star = corona(g)
        p = independence_polynomial(star)
        _emit(
            {
                "skeleton": encode_graph6(g),
                "corona": encode_graph6(star),
                "coefficients": p.to_json_coeffs(),
            },
            f"{encode_graph6(star)}\t{p}",
            args.output,
        )
    return 0


def _cmd_transform(args, parser) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    if args.inverse:
        if args.alpha is None:
            parser.error("--inverse requires --alpha")
        try:
            s = corona_mod.inverse_corona_coefficients(coeffs, args.n, args.alpha)
        except NotACoronaImage as exc:
            _emit(
                {"corona_image": False, "reason": str(exc)},
                f"not a corona image: {exc}",
                args.output,
            )
            return 0
        _emit(
            {"corona_image": True, "coefficients": s.to_json_coeffs()},
            str(s),
            args.output,
        )
        return 0
    t = corona_mod.corona_coefficients(coeffs, args.n)
    _emit({"coefficients": t.to_json_coeffs()}, str(t), args.output)
    return 0


def _cmd_roots(args, parser) -> int:
    for g in _graphs_from_args(args, parser):
        report = verify_bounds(g, args.tol) if g.n >= 2 else root_report(
            independence_polynomial(g), args.tol
        )
        if args.output == "json":
            payload = report.to_json()
            payload["graph"] = encode_graph6(g)
            print(json.dumps(payload))
        else:
            print(f"graph {encode_graph6(g)}: I = {report.polynomial}")
            print(f"  multiplicity of -1: {report.minus_one_multiplicity}")
            for lo, hi, m in report.real_roots:
                where = f"= {lo}" if lo == hi else f"in ({lo}, {hi})"
                print(f"  real root {where}, multiplicity {m}")
            for re, im, m in report.complex_roots:
                print(f"  complex root ~ {re:.12g} {im:+.12g}i, multiplicity {m}")
            for b in report.bounds.values():
                state = "N/A" if not b.applicable else ("pass" if b.passed else "FAIL")
                margin = "" if b.margin is None else f" margin={b.margin:.3e}"
                note = f" ({b.note})" if b.note else ""
                print(f"  bound {b.name}: {state}{margin}{note}")
    return 0


def _cmd_gen(args, parser) -> int:
    if args.trees is not None:
        emitted = [(t, None) for t in canon.enumerate_trees(args.trees)]
    elif args.graphs is not None:
        emitted = [
            (g, None) for g in canon.enumerate_graphs(args.graphs, connected=args.connected)
        ]
    elif args.family:
        sizes = (
            [int(tok) for tok in args.sizes.split(",") if tok.strip()]
            if args.sizes
            else None
        )
        closed = _CLOSED_FORMS.get(args.family)
        emitted = []
        for g in _graphs_from_args(args, parser):
            poly = closed(args.n, sizes) if closed else None
            emitted.append((g, poly if poly is not None else independence_polynomial(g)))
    else:
        parser.error("gen needs --family, --trees or --graphs")
    for g, poly in emitted:
        if args.output == "json":
            payload = {"graph": encode_graph6(g)}
            if poly is not None:
                payload["coefficients"] = poly.to_json_coeffs()
            print(json.dumps(payload))
        else:
            print(encode_graph6(g) if poly is None else f"{encode_graph6(g)}\t{poly}")
    return 0


def _cmd_verify(args, parser) -> int:
    if args.suite == "hk":
        if args.input:
            parser.error("--suite hk builds its own instances and takes no --input")
        result = suites.run_suite("hk", max_n=args.max_n)
    else:
        with _scan_map(args, suites.DEFAULT_MAX_N) as (mapper, stream):
            result = suites.run_suite(args.suite, stream, tol=args.tol, mapper=mapper)
    if args.output == "json":
        print(json.dumps(result.to_json()))
    else:
        print(result.summary())
        for msg in result.failures:
            print(f"  {msg}")
    return 0 if result.passed else 1


def _cmd_search(args, parser) -> int:
    if args.mode == "equal-poly":
        if not args.input:
            parser.error("search --mode equal-poly requires --input")
        with _scan_map(args) as (mapper, stream):
            partition = search.partition_graphs(stream, mapper)
        report = search.report_from_partition(partition, source=args.input)
        status = 2 if partition[2] else 0   # a line that could not be classified
        text = report.summary_table()
        evidence_lines = [json.dumps(c.to_json()) for c in report.nontrivial_classes()]
    elif args.mode == "spider-unique":
        report = search.spider_uniqueness_scan(args.max_skeleton)
        status = 1 if report.violations else 0
        text = (
            f"spider uniqueness up to skeleton {report.max_skeleton}: "
            f"{report.skeletons_checked} skeletons, {len(report.matches)} star matches, "
            f"{report.skipped_multiplicity} filtered by multiplicity, "
            f"{len(report.violations)} violations"
        )
        evidence_lines = [json.dumps(report.to_json())]
    elif args.mode == "conjecture2":
        with _scan_map(args, 7) as (mapper, stream):
            report = search.conjecture2_scan(stream, args.max_tree_order, mapper)
        status = 0 if report.clean else 1
        text = (
            f"conjecture2: {report.graphs_scanned} connected graphs vs well-covered trees "
            f"<= {report.max_tree_order}; supporting {report.supporting_matches}, "
            f"counterexamples {len(report.counterexamples)}"
        )
        evidence_lines = report.to_jsonl_lines()
    else:  # hamidoune
        with _scan_map(args, 8) as (mapper, stream):
            report = search.hamidoune_scan(stream, mapper=mapper)
        status = 0 if report.clean else 1
        text = (
            f"hamidoune: {report.graphs_scanned} graphs, {report.claw_free_count} claw-free, "
            f"{len(report.failures)} failures, "
            f"{report.nonreal_contrast_count} non-claw-free with nonreal roots"
        )
        evidence_lines = report.to_jsonl_lines()
    _emit(report.to_json(), text, args.output)
    if args.evidence:
        with open(args.evidence, "w", encoding="utf-8") as fh:
            fh.write("\n".join(evidence_lines) + "\n")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronapoly",
        description="Exact independence polynomials, corona transforms, and root certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print I(G;x) for each input graph")
    _add_graph_source(p)
    _add_output(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("corona", help="print G* (graph6) and I(G*;x)")
    _add_graph_source(p)
    _add_output(p)
    p.set_defaults(func=_cmd_corona)

    p = sub.add_parser("transform", help="corona coefficient transform of a vector")
    p.add_argument("--coeffs", required=True, help='e.g. "1,2" or ["1","2"]')
    p.add_argument("--n", type=int, required=True, help="skeleton order")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--alpha", type=int, help="skeleton stability number (inverse)")
    _add_output(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("roots", help="root report with bound verdicts")
    _add_graph_source(p)
    _add_output(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("gen", help="emit graphs (and closed-form polynomials)")
    _add_graph_source(p)
    p.add_argument("--trees", type=int, help="emit all trees on N vertices")
    p.add_argument("--graphs", type=int, help="emit all graphs on N vertices (N <= 8)")
    p.add_argument("--connected", action="store_true", help="with --graphs: connected only")
    _add_output(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", choices=suites.SUITES, required=True)
    p.add_argument(
        "--max-n", type=int,
        help="corpus cap (default env CORONAPOLY_MAX_N or 7); for --suite hk the largest k (default 4)",
    )
    p.add_argument(
        "--input", help="graph6 stream instead of the built-in catalog (not with --suite hk)"
    )
    p.add_argument(
        "--tol", type=float, default=1e-9,
        help="numeric tolerance of the complex-root bound verdicts (read only by --suite bounds)",
    )
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes for streams of 64 or more graphs (unused by --suite hk)",
    )
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="equivalence classes and conjecture scans")
    p.add_argument(
        "--mode",
        choices=("equal-poly", "spider-unique", "conjecture2", "hamidoune"),
        required=True,
    )
    p.add_argument("--input", help="graph6 stream, or - for stdin")
    p.add_argument("--max-n", type=int, help="internal corpus cap when no --input")
    p.add_argument("--max-skeleton", type=int, default=8)
    p.add_argument("--max-tree-order", type=int, default=14)
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes for streams of 64 or more graphs (unused by spider-unique)",
    )
    p.add_argument("--evidence", help="write machine-readable JSONL evidence here")
    _add_output(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ResourceLimitError as exc:
        print(f"coronapoly: resource limit: {exc}", file=sys.stderr)
        return 3
    except RootConvergenceError as exc:
        print(f"coronapoly: root iteration did not converge: {exc}", file=sys.stderr)
        return 4
    except GraphParseError as exc:
        print(f"coronapoly: parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"coronapoly: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
