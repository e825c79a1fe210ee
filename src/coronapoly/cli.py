"""Command-line surface: compute, transform, analyze roots, verify, search.

Exit codes: 0 success, 1 a verification failure or counterexample was
found, 2 usage error, 3 a size cap was exceeded, 4 a numeric root
iteration did not converge, 5 a worker process died.  The ``Graph`` type
refuses a family, edge list or graph6 line over 64 vertices before any
edge is read, and ``transform`` an ``--n`` over 64; other caps are those
of the layer doing the work.  graph6, in its short and 4-byte long forms,
names any graph.  Every run is
deterministic for fixed inputs and flags (fixed pivot rule, fixed numeric
initialization, no RNG anywhere).

Input is read lazily, line by line.  Every stream command (``poly``,
``corona``, ``roots``, ``verify`` and the ``search`` scans) runs its
per-graph work through ``graphs.map_items``, in order over ``--jobs``
forked worker processes once a stream has 64 graphs; a worker that dies
ends the command with exit 5.  A graph6 line is parsed by that work and
named in output by its own text; a bad one is named by its line number,
and ``equal-poly`` records it and exits 2 after its report.  Any option
that the table ``_COMMANDS`` does not name for the command, and its
``--suite``, ``--mode`` or source, is a usage error before any input is
read, as is a ``--jobs`` below 1.  A process freezes its objects at exit,
so the interpreter's final collections skip them; output is unchanged.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
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
    item_graph6,
    item_parse,
    map_items,
    parse_edge_list,
    path_graph,
    spider_graph,
    star_graph,
)
from .indpoly import independence_polynomial
from .polynomials import IntPolynomial
from .roots import RootReport, verify_bounds

atexit.register(gc.freeze)  # Py_FinalizeEx's collections skip frozen objects: ~6 ms a call

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


_MIN_FORK = 64          # shorter streams are not fanned out
_READ_AHEAD = 4096      # items read ahead to size the chunks
_CHUNKS_PER_WORKER = 4  # Pool.map's rule; also the chunks in flight per worker


def _default_jobs() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_lines(path: str):
    """(line number, line) of a file, or of stdin for "-", read lazily.  A
    non-ASCII byte in a file is kept (as a lone surrogate) for the parser
    to reject with its line number.  A path that cannot be opened is a
    usage error (ValueError)."""
    try:
        file = nullcontext(sys.stdin) if path == "-" else open(
            path, encoding="ascii", errors="surrogateescape"
        )
    except OSError as exc:
        raise ValueError(f"cannot read --input {path}: {exc.strerror}") from None
    with file as fh:
        yield from enumerate(fh, 1)


def _graph6_items(path: str):
    """One StreamItem per non-blank line of a graph6 stream, named by its line."""
    return (StreamItem(f"line {n}", line) for n, line in _read_lines(path) if line.strip())


class WorkerLost(Exception):
    """A worker process of a parallel scan ended without returning its chunk."""


def _send(fd: int, data: bytes) -> None:
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytes | None:
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 20))
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _recv(fd: int) -> bytes | None:
    """One message written by _send, or None at the end of the pipe (or
    of a message cut short)."""
    header = _read_exactly(fd, 8)
    return None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))


def _serve(fn, tasks: int, results: int) -> None:
    """A worker's loop: map fn over each pickled chunk and write back its
    results and the error that stopped it, until the task pipe closes."""
    import pickle   # already loaded by the parent

    while (data := _recv(tasks)) is not None:
        done, error = [], None
        try:
            for item in pickle.loads(data):
                done.append(fn(item))
        except Exception as exc:
            error = exc
        _send(results, pickle.dumps((done, error), pickle.HIGHEST_PROTOCOL))


def _fork_worker(fn, procs: list) -> tuple[int, int, int]:
    """(pid, task pipe, result pipe) of one new worker; `procs` are the
    workers already running, whose pipe ends the new one must not hold."""
    tasks, task_end = os.pipe()
    result_end, results = os.pipe()
    pid = os.fork()
    if pid == 0:    # the worker leaves only through os._exit
        status = 1
        try:
            for fd in (task_end, result_end, *(fd for _, *fds in procs for fd in fds)):
                os.close(fd)
            _serve(fn, tasks, results)
            status = 0
        finally:
            os._exit(status)
    os.close(tasks)
    os.close(results)
    return pid, task_end, result_end


def _fork_map(fn, items, workers: int, size: int):
    """fn over items in stream order, in chunks of `size` items spread over
    `workers` forked processes.

    A chunk is written only to an idle worker, one that is blocked reading
    its task pipe, so no write can deadlock whatever the chunk size.  At
    most _CHUNKS_PER_WORKER chunks per worker are out at a time.  An error
    raised at item k is raised here after every result before k.  Workers
    are reaped when the map ends and killed first when it ends early; one
    that dies raises WorkerLost."""
    import pickle
    import select
    import signal

    items = iter(items)
    sys.stdout.flush()      # a worker must not inherit buffered output
    sys.stderr.flush()
    procs, finished = [], False
    try:
        for _ in range(workers):
            procs.append(_fork_worker(fn, procs))
        idle = list(procs)
        busy = {}       # result pipe -> (chunk index, worker)
        returned = {}   # chunk index -> (results, error)
        sent = yielded = 0
        more = True
        while more or busy or returned:
            while more and idle and sent - yielded < _CHUNKS_PER_WORKER * workers:
                chunk = list(islice(items, size))
                if not chunk:
                    more = False
                    break
                proc = idle.pop()
                try:
                    _send(proc[1], pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL))
                except BrokenPipeError:
                    raise WorkerLost(f"worker process {proc[0]} died") from None
                busy[proc[2]] = sent, proc
                sent += 1
            while yielded in returned:
                results, error = returned.pop(yielded)
                yielded += 1
                yield from results
                if error is not None:
                    raise error
            for fd in select.select(list(busy), [], [])[0] if busy else ():
                index, proc = busy.pop(fd)
                data = _recv(fd)
                if data is None:
                    raise WorkerLost(f"worker process {proc[0]} died before returning its chunk")
                returned[index] = pickle.loads(data)
                idle.append(proc)
        finished = True
    finally:
        for pid, task_end, result_end in procs:
            os.close(task_end)      # the worker's end of input
            os.close(result_end)
            if not finished:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _, _ in procs]
    for (pid, _, _), status in zip(procs, statuses):
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise WorkerLost(f"worker process {pid} died with exit code {code}")


@contextmanager
def _scan_map(items, jobs: int | None):
    """(mapper, items) of a scan.  `jobs` is clamped to the CPUs this
    process may run on, and None takes them all.  The mapper is the builtin
    map at one job, without os.fork or for a stream of under _MIN_FORK items
    (read ahead to tell), else _fork_map.  Chunks follow Pool.map's rule,
    about _CHUNKS_PER_WORKER per worker, on up to _READ_AHEAD items read ahead.
    A scan that ends early leaves no worker behind."""
    jobs = min(jobs, _default_jobs()) if jobs else _default_jobs()
    if jobs <= 1 or not hasattr(os, "fork"):
        yield map, items
        return
    items = iter(items)
    head = list(islice(items, _READ_AHEAD))
    items = chain(head, items)
    if len(head) < _MIN_FORK:
        yield map, items
        return
    size = -(-len(head) // (_CHUNKS_PER_WORKER * jobs))
    workers = min(jobs, -(-len(head) // size))     # no more workers than chunks
    maps = []

    def mapper(fn, stream):
        maps.append(_fork_map(fn, stream, workers, size))
        return maps[-1]

    try:
        yield mapper, items
    finally:
        for m in maps:
            m.close()


def _scan_items(args: argparse.Namespace):
    """The graphs of a verify or search scan: --input, else the catalog up to --max-n."""
    return suites.default_corpus(args.max_n) if args.input is None else _graph6_items(args.input)


def _sizes(args: argparse.Namespace) -> list[int] | None:
    sizes = args.sizes
    return None if sizes is None else [int(tok) for tok in sizes.split(",") if tok.strip()]


def _graphs_from_args(args: argparse.Namespace):
    """The input of poly, corona and roots, one StreamItem per graph: the
    --family graph, an edge list, or the lines of a graph6 stream, which
    the per-item work parses."""
    if args.family is not None:
        yield StreamItem(f"--family {args.family}", _FAMILIES[args.family](args.n, _sizes(args)))
    elif args.format == "edgelist":
        text = "".join(line for _, line in _read_lines(args.input))
        yield StreamItem(f"--input {args.input}", parse_edge_list(text))
    else:
        yield from _graph6_items(args.input)


def _parse_coeffs(text: str) -> IntPolynomial:
    text = text.strip()
    if text.startswith("["):
        return IntPolynomial.from_json_coeffs(json.loads(text))
    return IntPolynomial([int(tok) for tok in text.replace(",", " ").split()])


# -- command implementations -------------------------------------------------


def _print_each(render, args) -> int:
    """poly, corona and roots: print render(as_json, item) of each input graph, over --jobs."""
    with _scan_map(_graphs_from_args(args), args.jobs) as (mapper, items):
        for _, text in map_items(partial(render, args.output == "json"), items, mapper):
            print(text)
    return 0


def _poly_text(as_json: bool, item: StreamItem) -> str:
    p = independence_polynomial(item_parse(item))
    if not as_json:
        return str(p)
    return json.dumps({"graph": item_graph6(item.graph), "coefficients": p.to_json_coeffs()})


def _corona_text(as_json: bool, item: StreamItem) -> str:
    star = corona(item_parse(item))
    p = independence_polynomial(star)
    if not as_json:
        return f"{encode_graph6(star)}\t{p}"
    return json.dumps(
        {
            "skeleton": item_graph6(item.graph),
            "corona": encode_graph6(star),
            "coefficients": p.to_json_coeffs(),
        }
    )


def _cmd_transform(args) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    if not args.inverse:
        t = corona_mod.corona_coefficients(coeffs, args.n)
        obj, text = {"coefficients": t.to_json_coeffs()}, str(t)
    else:
        try:
            s = corona_mod.inverse_corona_coefficients(coeffs, args.n)
            obj, text = {"corona_image": True, "coefficients": s.to_json_coeffs()}, str(s)
        except NotACoronaImage as exc:
            obj, text = {"corona_image": False, "reason": str(exc)}, str(exc)
    print(json.dumps(obj) if args.output == "json" else text)
    return 0


def _roots_text(as_json: bool, item: StreamItem) -> str:
    g = item_parse(item)
    report = verify_bounds(g) if g.n >= 2 else RootReport(independence_polynomial(g))
    if as_json:
        payload = report.to_json()
        payload["graph"] = item_graph6(item.graph)
        return json.dumps(payload)
    lines = [
        f"graph {item_graph6(item.graph)}: I = {report.polynomial}",
        f"  multiplicity of -1: {report.minus_one_multiplicity}",
    ]
    for lo, hi, m in report.real_roots:
        where = f"= {lo}" if lo == hi else f"in ({lo}, {hi})"
        lines.append(f"  real root {where}, multiplicity {m}")
    for re, im, m in report.complex_roots:
        lines.append(f"  complex root ~ {re:.12g} {im:+.12g}i, multiplicity {m}")
    for b in report.bounds.values():
        state = "N/A" if not b.applicable else ("pass" if b.passed else "FAIL")
        note = f" ({b.note})" if b.note else ""
        lines.append(f"  bound {b.name}: {state}{note}")
    return "\n".join(lines)


def _cmd_gen(args) -> int:
    if args.trees is not None:
        emitted = [(t, None) for t in canon.enumerate_trees(args.trees)]
    elif args.graphs is not None:
        emitted = [
            (g, None) for g in canon.enumerate_graphs(args.graphs, connected=args.connected)
        ]
    else:
        n, sizes = args.n, _sizes(args)
        g = _FAMILIES[args.family](n, sizes)
        closed = _CLOSED_FORMS.get(args.family)
        poly = closed(n, sizes) if closed else None
        emitted = [(g, poly if poly is not None else independence_polynomial(g))]
    for g, poly in emitted:
        if args.output == "json":
            payload = {"graph": encode_graph6(g)}
            if poly is not None:
                payload["coefficients"] = poly.to_json_coeffs()
            print(json.dumps(payload))
        else:
            print(encode_graph6(g) if poly is None else f"{encode_graph6(g)}\t{poly}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "hk":
        result = suites.run_hk_suite(args.max_n)
    else:
        with _scan_map(_scan_items(args), args.jobs) as (mapper, stream):
            result = suites.run_suite(args.suite, stream, mapper)
    if args.output == "json":
        print(json.dumps(result.to_json()))
    else:
        print(result.summary())
        for msg in result.failures:
            print(f"  {msg}")
    return 0 if result.passed else 1


def _cmd_search(args) -> int:
    # --evidence is opened before any work; the text and the evidence lines
    # are built only when they are written
    try:
        sink = open(args.evidence, "w", encoding="utf-8") if args.evidence else nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot write --evidence {args.evidence}: {exc.strerror}") from None
    with sink as fh:
        if args.mode == "equal-poly":
            with _scan_map(_scan_items(args), args.jobs) as (mapper, stream):
                partition = search.partition_graphs(stream, mapper)
            report = search.report_from_partition(partition, source=args.input)
            status = 2 if partition[1] else 0   # a line that could not be classified
            text = report.summary_table
            evidence = lambda: [json.dumps(c.to_json()) for c in report.nontrivial_classes()]
        elif args.mode == "spider-unique":
            report = search.spider_uniqueness_scan(args.max_skeleton)
            status = 1 if report.violations else 0
            text = lambda: (
                f"spider uniqueness up to skeleton {report.max_skeleton}: "
                f"{report.skeletons_checked} skeletons, {len(report.matches)} star matches, "
                f"{report.skipped_multiplicity} filtered by multiplicity, "
                f"{len(report.violations)} violations"
            )
            evidence = lambda: [json.dumps(report.to_json())]
        elif args.mode == "conjecture2":
            # both caps before the corpus
            search.require_scan_cap("tree-order", args.max_tree_order)
            search.require_tree_order_cap(args.max_tree_order)
            with _scan_map(_scan_items(args), args.jobs) as (mapper, stream):
                report = search.conjecture2_scan(stream, args.max_tree_order, mapper)
            status = 0 if report.clean else 1
            text = lambda: (
                f"conjecture2: {report.graphs_scanned} connected graphs vs well-covered trees "
                f"<= {report.max_tree_order}; supporting {report.supporting_matches}, "
                f"counterexamples {len(report.counterexamples)}"
            )
            evidence = report.to_jsonl_lines
        else:  # hamidoune
            with _scan_map(_scan_items(args), args.jobs) as (mapper, stream):
                report = search.hamidoune_scan(stream, mapper=mapper)
            status = 0 if report.clean else 1
            text = lambda: (
                f"hamidoune: {report.graphs_scanned} graphs, {report.claw_free_count} claw-free, "
                f"{len(report.failures)} failures, "
                f"{report.nonreal_contrast_count} non-claw-free with nonreal roots"
            )
            evidence = report.to_jsonl_lines
        print(json.dumps(report.to_json()) if args.output == "json" else text())
        if fh is not None:
            fh.write("\n".join(evidence()) + "\n")
    return status


# -- the option table ----------------------------------------------------------

_REQUIRED = object()    # the default of an option that a call must give where it is read


def _option(default=_REQUIRED, **kwargs) -> tuple:
    """An option's default where an entry reads it and a call does not give it, and its
    argparse keywords, whose default None lets _resolve tell what a call gave."""
    if default not in (None, False, _REQUIRED):
        kwargs["help"] = f"{kwargs['help']} (default {default})"
    return default, {**kwargs, "default": None}


_OPTIONS = {
    "--suite": _option(choices=suites.SUITES, required=True),
    "--mode": _option(choices=("equal-poly", "spider-unique", "conjecture2", "hamidoune"),
                      required=True),
    "--family": _option(choices=sorted(_FAMILIES), help="an inline graph family"),
    "--n": _option(type=int, help="family size parameter; transform: skeleton order"),
    "--sizes": _option(help="comma-separated part sizes (multipartite)"),
    "--input": _option(help="graph file, or - for stdin"),
    "--format": _option("graph6", choices=("graph6", "edgelist"),
                        help="graph6 stream (one per line) or a single edge list"),
    "--trees": _option(type=int, help="emit all trees on N vertices"),
    "--graphs": _option(type=int, help="emit all graphs on N vertices (N <= 8)"),
    "--connected": _option(False, action="store_true", help="connected graphs only"),
    "--coeffs": _option(help='e.g. "1,2" or ["1","2"]'),
    "--inverse": _option(False, action="store_true", help="recover s from t; alpha is read off t"),
    "--max-n": _option(None, type=int, help="corpus cap; hk: the largest k"),
    "--max-skeleton": _option(8, type=int, help="largest tree skeleton"),
    "--max-tree-order": _option(14, type=int, help="largest well-covered tree"),
    "--jobs": _option(None, type=int, help=f"worker processes for streams of {_MIN_FORK} or more "
                      "graphs (default: the CPUs this process may run on; a larger value is "
                      "clamped to that)"),
    "--evidence": _option(None, help="write machine-readable JSONL evidence here"),
    "--output": _option("text", choices=("text", "json"), help="report format"),
}

# Each command: its function, its help, and its entries in the order they are tried.  A
# call's entry is the first whose label options it gives (with the value after "=", where
# there is one); it reads those and the options it maps to, where "=" sets its own default.
_GRAPH_SOURCES = {
    "--family=multipartite": "--sizes --jobs --output",
    "--family": "--n --jobs --output",
    "--input": "--format --jobs --output",
}
_SCAN = "--jobs --output --evidence"

_COMMANDS = {
    "poly": (partial(_print_each, _poly_text), "print I(G;x) for each input graph", _GRAPH_SOURCES),
    "corona": (partial(_print_each, _corona_text), "print G* (graph6) and I(G*;x)", _GRAPH_SOURCES),
    "transform": (_cmd_transform, "corona coefficient transform of a vector",
                  {"": "--coeffs --n --inverse --output"}),
    "roots": (partial(_print_each, _roots_text), "root report with bound verdicts", _GRAPH_SOURCES),
    "gen": (_cmd_gen, "emit graphs (and closed-form polynomials)", {
        "--family=multipartite": "--sizes --output",
        "--family": "--n --output",
        "--trees": "--output",
        "--graphs": "--connected --output",
    }),
    "verify": (_cmd_verify, "run a named invariant suite", {
        "--suite=hk": f"--max-n={suites.DEFAULT_MAX_K} --output",
        "--suite --input": "--jobs --output",
        "--suite": f"--max-n={suites.DEFAULT_MAX_N} --jobs --output",
    }),
    "search": (_cmd_search, "equivalence classes and conjecture scans", {
        "--mode=equal-poly": f"--input {_SCAN}",
        "--mode=spider-unique": "--max-skeleton --output --evidence",
        "--mode=conjecture2 --input": f"--max-tree-order {_SCAN}",
        "--mode=conjecture2": f"--max-n={suites.DEFAULT_MAX_N} --max-tree-order {_SCAN}",
        "--mode=hamidoune --input": _SCAN,
        "--mode=hamidoune": f"--max-n=8 {_SCAN}",
    }),
}


def _reads(options: str) -> dict:
    """{option: default} of a label or of the options an entry reads."""
    reads = {}
    for token in options.split():
        option, eq, value = token.partition("=")
        default, kwargs = _OPTIONS[option]
        reads[option] = kwargs.get("type", str)(value) if eq else default
    return reads


def _resolve(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The command function of a parsed call, after the one check against its entry: a
    given option it does not read, one it reads that has no default and is not given, and
    a --jobs below 1 are usage errors of the command's own parser, as argparse's are.  The
    other options it reads get their defaults."""
    run, _, entries = _COMMANDS[args.command]
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parser = commands[args.command]
    dests = {option: option[2:].replace("-", "_") for option in _OPTIONS}
    given = {option: getattr(args, dest, None) for option, dest in dests.items()}
    label = next((label for label in entries if all(
        given[option] is not None and value in (_REQUIRED, given[option])
        for option, value in _reads(label).items()
    )), None)
    if label is None:
        sources = dict.fromkeys(label.split()[0].split("=")[0] for label in entries)
        parser.error(f"{args.command} takes one source: {' or '.join(sources)}")
    name, reads = f"{args.command} {label}".rstrip(), _reads(f"{label} {entries[label]}")
    unread = [o for o, value in given.items() if value is not None and o not in reads]
    if unread:
        parser.error(f"{unread[0]} is not read by {name}")
    for option, default in reads.items():
        if given[option] is None:
            if default is _REQUIRED:
                parser.error(f"{name} requires {option}")
            setattr(args, dests[option], default)
    if given["--jobs"] is not None and given["--jobs"] < 1:
        parser.error(f"--jobs must be >= 1, got {given['--jobs']}")
    return run


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from _COMMANDS: a command declares the options
    that some entry of it reads, and its --help lists the entries."""
    import shutil
    parser = argparse.ArgumentParser(
        prog="coronapoly",
        description="Exact independence polynomials, corona transforms, and root certificates",
    )
    # the terminal's width, read once rather than by each option's formatter,
    # and the prefix of each command's prog, which argparse would render
    width = shutil.get_terminal_size().columns - 2
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for command, (_, help, entries) in _COMMANDS.items():
        pad = max(map(len, entries))
        rows = [f"  {command} {label.ljust(pad)}  {reads}" for label, reads in entries.items()]
        p = sub.add_parser(
            command, help=help,
            formatter_class=partial(argparse.RawDescriptionHelpFormatter, width=width),
            epilog="each call reads the options of the first entry it matches:\n" + "\n".join(rows),
        )
        declared = set(" ".join(rows).replace("=", " ").split())
        for option, (_, kwargs) in _OPTIONS.items():
            if option in declared:
                p.add_argument(option, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _resolve(parser, args)
    try:
        return run(args)
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
    except WorkerLost as exc:
        print(f"coronapoly: {exc}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
