"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package's computation paths: stable
sets are enumerated by plain backtracking over vertex order (or literal
subset filtering for tiny graphs), so these can certify the polynomial
engine, the stability number and the well-coveredness predicates.

Some helpers are deliberate exceptions.  ``unpruned_graph_levels`` uses
the package's canonical codes.  ``root_matching_notes`` uses the
package's root core (``RootReport``, Sturm counts, interval refinement):
it matches the roots of I(G) and of the deflated I(G*) one by one under
x -> x/(1-x), a root-level cross-check of the integer identity behind
``root_bijection_check``.  ``isolated_bound_verdicts`` is ``verify_bounds``
as the package computed it before it read its real legs off Sturm counts
at the bounds' rationals: each real leg compares an isolated extreme root
with the rational (``_root_sign``), and the smallest-modulus verdict
starts from xi_max's isolating interval.  ``counted_real_legs`` and
``counted_bound_verdicts`` decide the real legs of ``verify_bounds`` by
one Sturm count on I(G) per leg, the reference for the package's
comparisons with the isolated extreme roots; the nonreal legs read
mpmath's roots (``mpmath_nonreal_moduli``), not the package's.  ``bitwise_parse_graph6`` is
the graph6 decoder the package used before it read each column as one
slice: one step per bit, the long header's 18 bits included, edges into
the ``Graph`` constructor.
``center_rooted_forest_code`` is the forest encoder the package used
before its one-pass leaf peeling: centers first, then one recursive
encoding from each.  ``fraction_isolate_real_roots`` is the real-root
isolation the package used before it bisected at dyadic points: the
same Sturm chain (the package's), bisected at Fraction midpoints.
``general_code_masks`` and ``forest_code_graph`` read a canonical code
back into the graph it spells out, which shows that equal codes mean
isomorphic graphs whatever the canonical search does.
``refine_reference`` is the partition refinement the package used before
it split cells by a one-vertex splitter directly: every splitter goes
through a count table, sorted, and a fragment list per split cell.
``orbit_representative_tree_levels`` is the tree catalog the package built
before it keyed children by the forest peel alone: a leaf at one vertex per
orbit, then a dedupe by the package's ``canonical_code``.
``yun_weighted_all_roots_real`` is the real-rootedness verdict the package
used before it read the distinct roots off one Sturm chain: the distinct
real roots of each Yun factor, weighted by its multiplicity, against the
degree.
"""

import math
from fractions import Fraction
from itertools import combinations

from coronapoly.errors import GraphParseError
from coronapoly.graphs import Graph, alpha, complement, girth, is_connected, is_well_covered
from coronapoly.indpoly import independence_polynomial
from coronapoly.polynomials import IntPolynomial, sign_at
from coronapoly.roots import (
    RootReport,
    _clear_closed_disc,
    _nearest_root_real_unique,
    count_distinct_real_roots,
    count_distinct_roots_in_disc,
    isolate_real_roots,
    refine_root_interval,
    root_bound_exponent,
    square_free_decomposition,
    square_free_part,
    sturm_chain,
)


def stable_set_masks(g: Graph):
    """Yield every stable set of g (as a bitmask) exactly once, by
    lowest-vertex include/exclude backtracking."""
    masks = g.masks
    n = g.n

    def rec(allowed: int, chosen: int):
        if not allowed:
            yield chosen
            return
        v = (allowed & -allowed).bit_length() - 1
        yield from rec(allowed & ~(1 << v), chosen)
        yield from rec(allowed & ~(masks[v] | (1 << v)), chosen | (1 << v))

    yield from rec((1 << n) - 1, 0)


def count_vector(g: Graph) -> tuple[int, ...]:
    """Stable-set counts by size via the backtracking enumerator."""
    counts = [0] * (g.n + 1)
    for s in stable_set_masks(g):
        counts[s.bit_count()] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def count_vector_subsets(g: Graph) -> tuple[int, ...]:
    """Stable-set counts by literal filtering of all vertex subsets."""
    assert g.n <= 18, "subset filter is for tiny graphs"
    counts = [0] * (g.n + 1)
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for i, u in enumerate(sub) for v in sub[i + 1:]):
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def bitwise_parse_graph6(text: str) -> Graph:
    """Decode graph6 one bit at a time, the long header's order and each
    upper-triangle bit, with the package's checks and messages."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    if not s.isascii():
        off = next(i for i, ch in enumerate(s) if not ch.isascii())
        raise GraphParseError(f"non-ASCII character at offset {off}")
    data = s.encode("ascii")
    for off, b in enumerate(data):
        if not (63 <= b <= 126):
            raise GraphParseError(f"byte {b} out of range 63..126 at offset {off}")
    if data[0] != 126:
        n, head = data[0] - 63, 1
    else:
        if len(data) > 1 and data[1] == 126:
            raise GraphParseError("8-byte length header at offset 0 (n >= 258048 not supported)")
        if len(data) < 4:
            raise GraphParseError("truncated length header at offset 0")
        n, head = 0, 4
        for bit in range(18):   # big-endian over bytes 1..3
            n = 2 * n + ((data[1 + bit // 6] - 63) >> (5 - bit % 6) & 1)
        if n <= 62:
            raise GraphParseError(f"long-form length header for n={n} at offset 0 (not canonical)")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - head < need_bytes:
        raise GraphParseError(
            f"truncated: need {need_bytes} edge bytes for n={n}, got {len(data) - head}"
        )
    if len(data) - head > need_bytes:
        raise GraphParseError(f"trailing garbage at offset {head + need_bytes}")
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[head + bit // 6] - 63
            if (byte >> (5 - bit % 6)) & 1:
                edges.append((i, j))
            bit += 1
    while bit < 6 * need_bytes:
        byte = data[head + bit // 6] - 63
        if (byte >> (5 - bit % 6)) & 1:
            raise GraphParseError(f"nonzero padding bit at offset {head + bit // 6}")
        bit += 1
    return Graph(n, edges)


def brute_alpha(g: Graph) -> int:
    return max(s.bit_count() for s in stable_set_masks(g))


def brute_maximal_stable_sets(g: Graph) -> list[int]:
    """Every stable set that no vertex can join: stable sets are closed
    under subsets, so that is every stable set in no larger one."""
    masks = g.masks
    return [
        s for s in stable_set_masks(g)
        if all(s >> v & 1 or masks[v] & s for v in range(g.n))
    ]


def brute_is_well_covered(g: Graph) -> bool:
    sizes = {s.bit_count() for s in brute_maximal_stable_sets(g)}
    return len(sizes) == 1


def union_find_is_forest(g: Graph) -> bool:
    """Acyclic iff no edge joins two vertices already in one union-find set."""
    parent = list(range(g.n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges():
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_is_claw_free(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.has_edge(center, v) for v in leaves) and all(
                not g.has_edge(u, v) for u, v in combinations(leaves, 2)
            ):
                return False
    return True


def isomorphic_by_permutation_search(g: Graph, h: Graph) -> bool:
    """Explicit vertex-map backtracking (degree-pruned), independent of the
    package's canonical codes."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(len(a) for a in g.adj) != sorted(len(a) for a in h.adj):
        return False
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or len(g.adj[v]) != len(h.adj[w]):
                continue
            ok = True
            for u in range(v):
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def clique_cover_identity_holds(g: Graph, i: int, j: int) -> bool:
    """Euler-style identity: summing, over all stable i-sets, the number of
    stable j-sets containing each one must give C(j,i) * s_j."""
    from math import comb

    sets = list(stable_set_masks(g))
    by_size: dict[int, list[int]] = {}
    for s in sets:
        by_size.setdefault(s.bit_count(), []).append(s)
    s_j = len(by_size.get(j, []))
    total = sum(
        sum(1 for t in by_size.get(j, []) if t & q == q) for q in by_size.get(i, [])
    )
    return total == comb(j, i) * s_j


def unpruned_graph_levels(max_n: int) -> list[tuple[Graph, ...]]:
    """Levels 1..max_n of the graph catalog by plain canonical augmentation:
    every parent is extended by all 2^n neighbourhood subsets, in
    increasing mask order, and the first candidate seen with each code is
    kept; each level is sorted by code.  Unlike the rest of this module it
    uses the package's ``canonical_code``, because it is the reference for
    the classes that ``enumerate_graphs`` generates by orbit pruning and
    canonical construction path, not for the codes."""
    from coronapoly.canon import canonical_code

    levels = [(Graph(1),)]
    while len(levels) < max_n:
        seen: dict[bytes, Graph] = {}
        for g in levels[-1]:
            base = list(g.edges())
            for sub in range(1 << g.n):
                extra = [(i, g.n) for i in range(g.n) if (sub >> i) & 1]
                cand = Graph(g.n + 1, base + extra)
                seen.setdefault(canonical_code(cand), cand)
        levels.append(tuple(seen[c] for c in sorted(seen)))
    return levels


def _mobius(x):
    return x / (1 - x)


def root_matching_notes(p: IntPolynomial, q: IntPolynomial, tol: float = 1e-9) -> list[str]:
    """Match the roots of p = I(G) with those of q, the (1+x)-deflated
    I(G*), under x -> x/(1-x): degrees, square-free profiles, real roots
    exactly (interval images plus Sturm counts) and the complex multisets
    within tol.  Returns one note per mismatch; empty iff all match."""
    notes: list[str] = []
    if p.degree != q.degree:
        notes.append(f"degree mismatch: {p.degree} vs {q.degree}")
    prof_p = sorted((m, f.degree) for f, m in square_free_decomposition(p))
    prof_q = sorted((m, f.degree) for f, m in square_free_decomposition(q))
    if prof_p != prof_q:
        notes.append(f"square-free profiles differ: {prof_p} vs {prof_q}")
    report_p, report_q = RootReport(p), RootReport(q)
    _check_real_leg(p, q, report_p.real_roots, report_q.real_roots, notes)
    _check_numeric_leg(report_p, report_q, tol, notes)
    return notes


def _check_real_leg(
    p: IntPolynomial,
    q: IntPolynomial,
    roots_p: list[tuple[Fraction, Fraction, int]],
    roots_q: list[tuple[Fraction, Fraction, int]],
    notes: list[str],
) -> tuple[bool, bool]:
    if p.degree < 1:
        return True, True
    ok = True
    rational_ok = True
    if len(roots_p) != len(roots_q):
        notes.append(f"real root counts differ: {len(roots_p)} vs {len(roots_q)}")
        return False, rational_ok
    sf_q = square_free_part(q)
    yun_q = square_free_decomposition(q)
    for (lo, hi, mult), (_, _, qmult) in zip(roots_p, roots_q):
        if mult != qmult:
            notes.append(f"multiplicity mismatch at interval ({lo}, {hi})")
            ok = False
            continue
        if lo == hi:  # exact rational root of p
            image = _mobius(lo)
            if sign_at(q.coeffs, image) != 0:
                notes.append(f"rational root {lo} does not map to a root of the image")
                ok = rational_ok = False
                continue
            factor = next((f for f, m in yun_q if m == mult), None)
            if factor is None or sign_at(factor.coeffs, image) != 0:
                notes.append(f"rational root {lo} maps with wrong multiplicity")
                ok = rational_ok = False
            continue
        # shrink until the Mobius image isolates exactly one root of q; Yun's
        # factors have distinct multiplicities, so mult names the one to use
        f_p = next(f for f, m in square_free_decomposition(p) if m == mult)
        # the map x/(1-x) is only monotone left of its pole at 1; graph
        # roots are negative, so pull the interval below it first
        while hi >= 1:
            lo, hi = refine_root_interval(f_p, lo, hi, (hi - lo) / 4)
            if lo == hi:
                break
        if lo == hi:
            if sign_at(q.coeffs, _mobius(lo)) != 0:
                notes.append(f"rational root {lo} does not map to a root of the image")
                ok = False
            continue
        matched = False
        for _ in range(80):
            ilo, ihi = _mobius(lo), _mobius(hi)
            if sign_at(sf_q.coeffs, ilo) != 0 and sign_at(sf_q.coeffs, ihi) != 0:
                inside = count_distinct_real_roots(q, ilo, ihi, False, False)
                if inside == 1:
                    factor = next((f for f, m in yun_q if m == mult), None)
                    if factor is not None and count_distinct_real_roots(
                        factor, ilo, ihi, False, False
                    ) == 1:
                        matched = True
                    break
                if inside == 0:
                    break
            lo, hi = refine_root_interval(f_p, lo, hi, (hi - lo) / 4)
            if lo == hi:
                matched = sign_at(q.coeffs, _mobius(lo)) == 0
                break
        if not matched:
            notes.append(f"image of real root in ({lo}, {hi}) not found in deflation")
            ok = False
    return ok, rational_ok


def _check_numeric_leg(
    report_p: RootReport, report_q: RootReport, tol: float, notes: list[str]
) -> tuple[bool, float]:
    # the real roots are matched exactly by _check_real_leg
    source = [(_mobius(complex(re, im)), m) for re, im, m in report_p.complex_roots]
    target = [(complex(re, im), m) for re, im, m in report_q.complex_roots]
    if len(source) != len(target):
        notes.append("distinct nonreal root counts differ")
        return False, math.inf
    used = [False] * len(target)
    worst = 0.0
    for z, m in source:
        best_k, best_d = -1, math.inf
        for k, (w, mw) in enumerate(target):
            if not used[k] and mw == m:
                dd = abs(z - w)
                if dd < best_d:
                    best_k, best_d = k, dd
        if best_k < 0:
            notes.append(f"no multiplicity-{m} partner for mapped root {z}")
            return False, math.inf
        used[best_k] = True
        worst = max(worst, best_d)
    if worst > tol:
        notes.append(f"numeric multiset mismatch {worst:.3e} > {tol:.1e}")
        return False, worst
    return True, worst


def counted_real_legs(p: IntPolynomial, n: int, w: int) -> dict[str, bool]:
    """The real legs of ``verify_bounds`` for p = I(G), G on n vertices
    with clique number w, each decided by one Sturm count (or one
    evaluation) on p over the window that the bound names."""
    a = p.degree
    zero = Fraction(0)
    inner = Fraction(1, n)
    cap = Fraction(-1, 2 * n - 1)
    lower = max(Fraction(-a, n), Fraction(-1, w))
    return {
        "annulus_inner": count_distinct_real_roots(p, -inner, zero, True, True) == 0,
        "annulus_outer": count_distinct_real_roots(p, None, Fraction(-a), True, True) == 0,
        "annulus_touch": sign_at(p.coeffs, -inner) == 0 or sign_at(p.coeffs, -a) == 0,
        "has_real": count_distinct_real_roots(p) >= 1,
        "xi_max_cap": count_distinct_real_roots(p, cap, None, True, True) == 0,
        "xi_max_window": count_distinct_real_roots(p, lower, zero, True, False) >= 1,
        "modulus_floor": count_distinct_real_roots(p, cap, -cap, True, True) == 0,
        "real_window_below": count_distinct_real_roots(p, None, Fraction(-1), True, False) == 0,
        "real_window_above": count_distinct_real_roots(p, -inner, None, True, True) == 0,
    }


def _root_sign(q: IntPolynomial, root: tuple[Fraction, Fraction, int], c: Fraction) -> int:
    """The sign of xi - c, for the one root xi of the square-free q in the
    isolating interval `root` = (lo, hi, m) of ``RootReport.real_roots``:
    a degenerate interval is xi itself, and an open one has non-root
    endpoints, so q(c) has the sign of q(lo) iff no root lies in (lo, c]."""
    lo, hi, _ = root
    if lo == hi:
        return (lo > c) - (lo < c)
    if not lo < c < hi:
        return 1 if c <= lo else -1
    s = sign_at(q.coeffs, c)
    return 0 if s == 0 else 1 if s == sign_at(q.coeffs, lo) else -1


def isolated_bound_verdicts(g: Graph) -> dict[str, tuple[bool | None, str]]:
    """{bound: (passed, note)} of ``verify_bounds`` on G, n >= 2, from the
    exact isolation of every real root of I(G): xi_max and xi_min are its
    last and first intervals, each compared with a rational by
    ``_root_sign``, and the smallest-modulus verdict starts from xi_max's
    interval.  The legs on all roots are the package's disc counts."""
    n = g.n
    p = independence_polynomial(g)
    wc = is_well_covered(g)
    w = alpha(complement(g))
    real = [(lo, hi, m) for (lo, hi), m in isolate_real_roots(p)]
    a = p.degree
    q = square_free_part(p)
    inner = Fraction(1, n)
    out = {}
    if not wc:
        out["annulus"] = (None, "not well-covered")
    elif g.num_edges == n * (n - 1) // 2:
        out["annulus"] = (sign_at(p.coeffs, -inner) == 0, "complete graph: root on the inner boundary")
    else:
        out["annulus"] = (
            count_distinct_roots_in_disc(q, inner) == (0, 0)
            and count_distinct_roots_in_disc(q, Fraction(a))[0] == q.degree,
            "",
        )
    lower = max(Fraction(-a, n), Fraction(-1, w))
    cap = Fraction(-1, 2 * n - 1)
    out["xi_max_window"] = (
        bool(real) and _root_sign(q, real[-1], cap) < 0 and _root_sign(q, real[-1], lower) >= 0,
        "" if real else "no real root",
    )
    floor = Fraction(1, 2 * n - 1)
    out["modulus_floor"] = (
        _clear_closed_disc(p, floor) or count_distinct_roots_in_disc(q, floor) == (0, 0), ""
    )
    cycle7 = n == 7 and all(m.bit_count() == 2 for m in g.masks) and is_connected(g)
    if is_connected(g) and wc and girth(g) >= 6 and not cycle7 and not (n == 2 and g.num_edges == 1):
        out["real_window"] = (
            not real
            or (_root_sign(q, real[0], Fraction(-1)) >= 0 and _root_sign(q, real[-1], -inner) < 0),
            "",
        )
    else:
        out["real_window"] = (None, "hypotheses not met")
    if real:
        out["smallest_modulus_real_unique"] = _nearest_root_real_unique(q, real[-1])
    else:
        out["smallest_modulus_real_unique"] = (False, "no real root")
    return out


def mpmath_nonreal_moduli(p: IntPolynomial, tol: float = 1e-20) -> list:
    """The moduli of p's distinct nonreal roots, from mpmath's
    ``polyroots`` at 60 digits on sympy's square-free part of p; a root is
    nonreal when its imaginary part exceeds `tol` in size.  mpmath comes
    with sympy."""
    import mpmath
    import sympy

    x = sympy.Symbol("x")
    sqf = [int(c) for c in sympy.Poly(list(reversed(p.coeffs)), x).sqf_part().all_coeffs()]
    with mpmath.workdps(60):
        zs = mpmath.polyroots(sqf, maxsteps=100, extraprec=100) if len(sqf) > 1 else []
        return [abs(z) for z in zs if abs(mpmath.im(z)) > tol]


def counted_bound_verdicts(p: IntPolynomial, n: int, w: int, tol: float = 1e-20) -> dict[str, bool]:
    """The verdicts of ``verify_bounds`` on a well-covered, non-complete
    graph that meets the hypotheses of ``real_window``, from
    ``counted_real_legs`` and the moduli of p's nonreal roots
    (``mpmath_nonreal_moduli``), where a modulus within `tol` of a circle is on it:
    the annulus holds them strictly, and the floor's closed disc none."""
    a = p.degree
    legs = counted_real_legs(p, n, w)
    nonreal = mpmath_nonreal_moduli(p, tol)
    floor = Fraction(1, 2 * n - 1)
    return {
        "annulus": legs["annulus_inner"]
        and legs["annulus_outer"]
        and not legs["annulus_touch"]
        and all(1 / n + tol < r < a - tol for r in nonreal),
        "xi_max_window": legs["has_real"] and legs["xi_max_cap"] and legs["xi_max_window"],
        "modulus_floor": legs["modulus_floor"] and all(r > float(floor) + tol for r in nonreal),
        "real_window": legs["real_window_below"] and legs["real_window_above"],
    }


def _rooted_code(nbrs: list[list[int]], v: int, parent: int = -1) -> str:
    subs = sorted(_rooted_code(nbrs, w, v) for w in nbrs[v] if w != parent)
    return "(" + "".join(subs) + ")"


def orbit_representative_tree_levels(max_n: int) -> list[tuple[Graph, ...]]:
    """Levels 1..max_n of the tree catalog by orbit representatives: each
    parent gets a leaf at the lowest vertex of each orbit (vertices sharing
    a whole-tree rooted code), each child is built from its edge list, and
    the first child seen with each ``canonical_code`` is kept; each level
    is sorted by code."""
    from coronapoly.canon import canonical_code

    levels = [(Graph(1),)]
    while len(levels) < max_n:
        seen: dict[bytes, Graph] = {}
        for t in levels[-1]:
            base = list(t.edges())
            nbrs = [[w for w in range(t.n) if m >> w & 1] for m in t.masks]
            reps: dict[str, int] = {}
            for v in range(t.n):
                reps.setdefault(_rooted_code(nbrs, v), v)
            for v in reps.values():
                child = Graph(t.n + 1, base + [(v, t.n)])
                seen.setdefault(canonical_code(child), child)
        levels.append(tuple(seen[c] for c in sorted(seen)))
    return levels


def _tree_centers(nbrs: list[list[int]], comp: list[int]) -> list[int]:
    if len(comp) <= 2:
        return comp
    deg = {v: len(nbrs[v]) for v in comp}
    layer = [v for v in comp if deg[v] == 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in nbrs[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return layer


def center_rooted_forest_code(g: Graph) -> bytes:
    """The forest code as the package computed it before its one-pass leaf
    peeling: find each tree's centers by peeling leaves, then encode the
    tree recursively from each center and keep the smaller code."""
    nbrs = [[w for w in range(g.n) if m >> w & 1] for m in g.masks]
    seen: set[int] = set()
    codes = []
    for s in range(g.n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        codes.append(min(_rooted_code(nbrs, c) for c in _tree_centers(nbrs, sorted(comp))))
    return b"T" + bytes([g.n]) + "|".join(sorted(codes)).encode("ascii")


def refine_reference(masks: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """``canon._refine`` as the package computed it before its direct
    one-vertex splits: an equitable refinement of `cells`, splitters taken
    from `queue` first in, first out, each cell replaced by its fragments
    in increasing count order, which join the queue less the first largest
    when the cell is not itself queued."""
    n = len(masks)
    head = 0
    while head < len(queue) and len(cells) < n:
        s = queue[head]
        head += 1
        if s & (s - 1):
            by_count: dict[int, int] = {}
            for v, m in enumerate(masks):
                k = (m & s).bit_count()
                by_count[k] = by_count.get(k, 0) | 1 << v
            classes = [by_count[k] for k in sorted(by_count)]
        else:
            nb = masks[s.bit_length() - 1]
            classes = [~nb, nb]
        out = []
        for c in cells:
            if c & (c - 1):
                frags = [c & k for k in classes if c & k]
                if len(frags) > 1:
                    out += frags
                    if c not in queue[head:]:
                        frags.remove(max(frags, key=int.bit_count))
                    queue += frags
                    continue
            out.append(c)
        cells = out
    return cells


def fraction_isolate_real_roots(p: IntPolynomial) -> list[tuple[tuple[Fraction, Fraction], int]]:
    """``isolate_real_roots`` in Fractions alone: bisection of [-B, 0] and
    [0, B], B = 2^e for e = ``root_bound_exponent`` of the square-free part
    q, at Fraction midpoints, each point's sign variations on the Sturm
    chain of q evaluated once and cached by value."""
    if p.degree < 1:
        return []
    q = square_free_part(p)
    chain = sturm_chain(q)
    var_cache: dict[Fraction, int] = {}

    def is_root(x: Fraction) -> bool:
        return sign_at(q.coeffs, x) == 0

    def var(x: Fraction) -> int:
        if x not in var_cache:
            signs = [s for s in (sign_at(f, x) for f in chain) if s]
            var_cache[x] = sum(a != b for a, b in zip(signs, signs[1:]))
        return var_cache[x]

    def inside(a: Fraction, b: Fraction) -> int:
        return var(a) - var(b) - is_root(b)

    bound = Fraction(2 ** root_bound_exponent(q))
    intervals: list[tuple[Fraction, Fraction]] = []
    exact: list[Fraction] = []
    zero = Fraction(0)
    if is_root(zero):
        exact.append(zero)
    stack = [(-bound, zero, inside(-bound, zero)), (zero, bound, inside(zero, bound))]
    while stack:
        lo, hi, count = stack.pop()
        if count <= 0:
            continue
        if count == 1 and not is_root(lo) and not is_root(hi):
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if is_root(mid):
            exact.append(mid)
        stack.append((lo, mid, inside(lo, mid)))
        stack.append((mid, hi, inside(mid, hi)))

    yun = square_free_decomposition(p)
    out = [((r, r), next(m for f, m in yun if sign_at(f.coeffs, r) == 0)) for r in exact]
    for lo, hi in intervals:
        mult = next(m for f, m in yun if sign_at(f.coeffs, lo) != sign_at(f.coeffs, hi))
        out.append(((lo, hi), mult))
    return sorted(out)


def general_code_masks(code: bytes) -> tuple[int, ...]:
    """The neighbour masks of the canonical form a general code spells
    out: b"G", n, then the lower-triangle adjacency bits row by row, the
    first pair (1, 0) in the highest bit."""
    assert code[:1] == b"G"
    n = code[1]
    bits = int.from_bytes(code[2:], "big")
    k = n * (n - 1) // 2
    assert bits >> k == 0
    masks = [0] * n
    for i in range(1, n):
        for j in range(i):
            k -= 1
            if bits >> k & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def forest_code_graph(code: bytes) -> Graph:
    """The forest a forest code spells out: b"T", n, then one parenthesis
    string per tree, joined by "|"; each "(" opens a new vertex, a child
    of the innermost open one."""
    assert code[:1] == b"T"
    n = code[1]
    edges = []
    count = 0
    for tree in code[2:].decode("ascii").split("|"):
        open_vertices: list[int] = []
        for ch in tree:
            if ch == "(":
                if open_vertices:
                    edges.append((open_vertices[-1], count))
                open_vertices.append(count)
                count += 1
            else:
                open_vertices.pop()
        assert not open_vertices
    assert count == n
    return Graph(n, edges)


def yun_weighted_all_roots_real(p: IntPolynomial) -> bool:
    """Whether the distinct real roots of each square-free Yun factor,
    weighted by the factor's multiplicity, exhaust the degree of p."""
    total = sum(m * count_distinct_real_roots(f) for f, m in square_free_decomposition(p))
    return total == p.degree
