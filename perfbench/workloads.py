"""The benchmark's workloads: seeded input generators, CLI argv and oracles.

Generators use only ``random.Random(seed)`` and this file's own graph6
encoder, so one seed always gives byte-identical input, independent of
the package under test.  Oracles run after the timed region and return
the number of graphs whose result is missing or wrong; they raise
ValueError, KeyError, TypeError or IndexError on output they cannot read.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# -- graph6 and small graph helpers ------------------------------------------


def encode_g6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62) of a simple graph on 0..n-1."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in adj for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [n + 63]
    for k in range(0, len(bits), 6):
        out.append(63 + sum(1 << (5 - i) for i, b in enumerate(bits[k : k + 6]) if b))
    return bytes(out).decode("ascii")


def decode_g6(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = line.strip().encode("ascii")
    n = data[0] - 63
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if (data[1 + bit // 6] - 63) >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    return n, edges


def _masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _connected(n: int, masks: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= masks[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def low_counts(n: int, edges) -> tuple[int, int, int, int]:
    """Stable sets of size 0..3, counted directly."""
    masks = _masks(n, edges)
    full = (1 << n) - 1
    s3 = 0
    for j in range(n):
        above_j = full & ~((2 << j) - 1)
        free_j = above_j & ~masks[j]
        for i in range(j):
            if not masks[i] >> j & 1:
                s3 += (free_j & ~masks[i]).bit_count()
    return 1, n, n * (n - 1) // 2 - len(edges), s3


def brute_polynomial(n: int, edges) -> list[int]:
    """I(G;x) by enumerating the stable sets (small n only)."""
    masks = _masks(n, edges)
    counts = [0] * (n + 1)

    def rec(avail: int, size: int) -> None:
        counts[size] += 1
        while avail:
            b = avail & -avail
            avail ^= b
            rec(avail & ~masks[b.bit_length() - 1], size + 1)

    rec((1 << n) - 1, 0)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def parse_poly_text(text: str) -> list[int]:
    """Coefficients, lowest degree first, of the CLI's ``1 + 4x + 3x^2`` form."""
    coeffs: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if "x" in tok:
            mag, _, power = tok.partition("x")
            k = int(power[1:]) if power else 1
            c = int(mag) if mag else 1
        else:
            k, c = 0, int(tok)
        coeffs[k] = sign * c
        sign = 1
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)] if coeffs else []


# -- seeded generators ----------------------------------------------------------


def gnp_connected(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
        if _connected(n, _masks(n, edges)):
            return edges


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labelled tree from a random Pruefer sequence."""
    if n == 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def random_regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """Random simple d-regular graph: stub pairing that re-pairs only the
    stubs that would form a loop or a repeated edge, restarting when no
    valid pairing is left."""
    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            rng.shuffle(stubs)
            left: list[int] = []
            for a, b in zip(stubs[::2], stubs[1::2]):
                a, b = min(a, b), max(a, b)
                if a != b and (a, b) not in edges:
                    edges.add((a, b))
                else:
                    left += [a, b]
            if left and not any(
                a != b and (min(a, b), max(a, b)) not in edges
                for i, a in enumerate(left)
                for b in left[i + 1 :]
            ):
                break
            stubs = left
        if not stubs:
            return sorted(edges)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


# Inputs cycle through fixed strata of (size, density) so that a call's
# total work varies little from seed to seed; the seed picks the graphs.
BOUNDS_STRATA = [(n, p) for n in range(8, 15) for p in (0.3, 0.5, 0.7)]
REGULAR_STRATA = [(d, n) for d in (3, 4, 5) for n in range(34, 41) if n * d % 2 == 0]
LARGE_TREE_ORDERS = list(range(40, 63, 2))
CLASSIFY_STRATA = [("gnp", n, p) for n in (8, 9, 10) for p in (0.3, 0.5)] + [
    ("tree", n, None) for n in range(12, 19)
]
CLASSIFY_COPIES = 8


def gen_bounds(seed: int, count: int) -> list[str]:
    rng = random.Random(f"bounds:{seed}")
    out = []
    for i in range(count):
        n, p = BOUNDS_STRATA[i % len(BOUNDS_STRATA)]
        out.append(encode_g6(n, gnp_connected(rng, n, p)))
    return out


def gen_poly_large(seed: int, count: int) -> list[str]:
    """Alternately a random regular graph and a random tree."""
    rng = random.Random(f"poly-large:{seed}")
    out = []
    for i in range(count):
        if i % 2 == 0:
            d, n = REGULAR_STRATA[i // 2 % len(REGULAR_STRATA)]
            out.append(encode_g6(n, random_regular(rng, n, d)))
        else:
            n = LARGE_TREE_ORDERS[i // 2 % len(LARGE_TREE_ORDERS)]
            out.append(encode_g6(n, random_tree(rng, n)))
    return out


def gen_classify(seed: int, count: int) -> tuple[list[str], list[int]]:
    """CLASSIFY_COPIES random relabelings of each graph of a seeded base
    pool, shuffled, with each item's base index."""
    rng = random.Random(f"classify:{seed}")
    bases = []
    for i in range(max(1, count // CLASSIFY_COPIES)):
        kind, n, p = CLASSIFY_STRATA[i % len(CLASSIFY_STRATA)]
        bases.append((n, gnp_connected(rng, n, p) if kind == "gnp" else random_tree(rng, n)))
    origin = [i % len(bases) for i in range(count)]
    rng.shuffle(origin)
    lines = []
    for b in origin:
        n, edges = bases[b]
        lines.append(encode_g6(n, relabel(rng, n, edges)))
    return lines, origin


# -- oracles --------------------------------------------------------------------


def _is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_poly(out: str, lines: list[str]) -> int:
    """Forests must match the forest DP exactly; other graphs must match
    direct counts of the stable sets of size 0..3."""
    got = out.splitlines()
    failed = max(0, len(lines) - len(got))
    for line, text in zip(lines, got):
        coeffs = parse_poly_text(text)
        n, edges = decode_g6(line)
        if _is_forest(n, edges):
            ok = coeffs == polynomial(n, edges)
        else:
            ok = tuple((coeffs + [0] * 4)[:4]) == low_counts(n, edges)
        failed += not ok
    return failed


def check_bounds_suite(out: str, lines: list[str]) -> int:
    """verify --suite bounds: every graph checked, no failure, a pass."""
    res = json.loads(out)
    failed = len(res.get("failures", [])) + max(0, len(lines) - res.get("checked", 0))
    if res.get("pass") is not True or res.get("suite") != "bounds":
        failed = max(failed, 1)
    return min(failed, len(lines))


def check_root_reports(out: str, lines: list[str]) -> int:
    """roots --output json on a sample: real roots, their multiplicities and
    isolating intervals against sympy, low coefficients against direct
    counts, and every applicable bound passing."""
    import sympy

    x = sympy.Symbol("x")
    reports = [json.loads(s) for s in out.splitlines() if s.strip()]
    failed = max(0, len(lines) - len(reports))
    for line, rep in zip(lines, reports):
        n, edges = decode_g6(line)
        coeffs = [int(c) for c in rep["polynomial"]]
        expect = []  # (root, multiplicity), ascending
        for factor, mult in sympy.Poly(list(reversed(coeffs)), x).sqf_list()[1]:
            expect += [(r, mult) for r in set(factor.real_roots())]
        expect.sort(key=lambda rm: float(rm[0]))
        got = rep["real_roots"]
        ok = (
            rep["graph"] == line
            and tuple((coeffs + [0] * 4)[:4]) == low_counts(n, edges)
            and len(got) == len(expect)
            and all(
                g["multiplicity"] == m and _inside(g["interval"], r)
                for g, (r, m) in zip(got, expect)
            )
            and all(b["pass"] for b in rep["bounds"] if b["applicable"])
        )
        failed += not ok
    return failed


def _inside(interval: list[str], root) -> bool:
    """Exact test that root lies in [lo, lo] or in the open (lo, hi)."""
    import sympy

    lo, hi = (sympy.Rational(v) for v in interval)
    return bool(root == lo) if lo == hi else bool(lo < root) and bool(root < hi)


def check_classes(out: str, lines: list[str], origin: list[int]) -> int:
    """search --mode equal-poly: every item comes back in exactly one class,
    relabelled copies of one base share a class, each class polynomial is
    its members' polynomial, and each nontrivial class's ``all_isomorphic``
    verdict matches networkx."""
    import networkx as nx

    res = json.loads(out)
    submitted = Counter(lines)
    returned = Counter(m for cls in res["classes"] for m in cls["members"])
    failed = sum((submitted - returned).values()) + sum((returned - submitted).values())
    failed += len(res.get("errors", []))
    base_of = dict(zip(lines, origin))
    first_line = {}
    for line, b in zip(lines, origin):
        first_line.setdefault(b, line)
    class_of_base: dict[int, int] = {}
    bad: set[int] = set()
    for ci, cls in enumerate(res["classes"]):
        poly = [int(c) for c in cls["polynomial"]]
        # a member that was never submitted is already counted above
        bases = sorted({base_of[m] for m in cls["members"] if m in base_of})
        graphs = []
        for b in bases:
            if class_of_base.setdefault(b, ci) != ci:
                bad.add(b)
            n, edges = decode_g6(first_line[b])
            if polynomial(n, edges) != poly:
                bad.add(b)
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            graphs.append(g)
        # copies of one base are isomorphic by construction
        iso = all(nx.is_isomorphic(graphs[0], h) for h in graphs[1:])
        if len(cls["members"]) > 1 and cls["all_isomorphic"] is not iso:
            bad.update(bases)
    failed += sum(1 for b in origin if b in bad)
    return min(failed, len(lines))


def polynomial(n: int, edges) -> list[int]:
    """Oracle I(G;x): the package's forest DP, which shares no code with the
    pivot engine, for forests; stable-set enumeration otherwise."""
    if not _is_forest(n, edges):
        return brute_polynomial(n, edges)
    from coronapoly.graphs import Graph
    from coronapoly.indpoly import independence_polynomial_tree

    return list(independence_polynomial_tree(Graph(n, edges)).coeffs)


# OEIS partial sums over n <= 7: A001349 (connected graphs) and A022562
# (connected claw-free graphs); the contrast count is pinned from the code.
# n <= 7 rather than 8: a 1.2 s call gives a run many calls to take the
# median of, where one 15-19 s call per run left its bursts of host noise in.
HAMIDOUNE_EXPECT = {"graphs_scanned": 996, "claw_free": 264, "nonreal_contrast_count": 252}


def check_hamidoune(out: str, total: int) -> int:
    res = json.loads(out)
    failed = len(res.get("failures", [])) + sum(
        abs(res.get(k, 0) - v) for k, v in HAMIDOUNE_EXPECT.items()
    )
    return min(failed, total)


# -- the workload table -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int                               # graphs per CLI call
    argv: Callable[[str], list[str]]        # input path -> CLI arguments


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds",
            "root-location bounds on connected G(n,p), n 8-14: isolation, Sturm counts, Aberth; the engine is negligible",
            6 * len(BOUNDS_STRATA),
            lambda path: ["verify", "--suite", "bounds", "--jobs", "1", "--output", "json", "--input", path],
        ),
        Workload(
            "poly-large",
            "pivot engine on 34-40 vertex regular graphs and 40-62 vertex trees; no root work, so it bypasses the root core",
            90,
            lambda path: ["poly", "--input", path],
        ),
        Workload(
            "classify",
            "equal-poly classes of relabelled copies: shared work, canonical codes, the Pool map/merge path at --jobs 2",
            4000,
            lambda path: ["search", "--mode", "equal-poly", "--jobs", "2", "--output", "json", "--input", path],
        ),
        Workload(
            "catalog-hamidoune",
            "exhaustive n <= 7 catalog build plus Yun/Sturm real-rootedness per graph; takes no input, so the seed is unused",
            HAMIDOUNE_EXPECT["graphs_scanned"],
            lambda path: ["search", "--mode", "hamidoune", "--max-n", "7", "--jobs", "1", "--output", "json"],
        ),
    )
}


def single_process(argv: list[str]) -> list[str]:
    """The same call at --jobs 1, so an in-process replay sees all the work."""
    return [("1" if prev == "--jobs" else a) for prev, a in zip([None] + argv, argv)]


def generate(name: str, seed: int, size: int | None = None) -> tuple[list[str], list[int] | None]:
    """Input lines for a workload (empty when it takes none) and, for
    classify, each line's base index."""
    size = WORKLOADS[name].size if size is None else size
    if name == "bounds":
        return gen_bounds(seed, size), None
    if name == "poly-large":
        return gen_poly_large(seed, size), None
    if name == "classify":
        return gen_classify(seed, size)
    return [], None
