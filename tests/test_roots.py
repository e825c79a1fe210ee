import pickle
import random
from fractions import Fraction

import pytest

from coronapoly import errors
from coronapoly.errors import ResourceLimitError, RootConvergenceError
from coronapoly.graphs import (
    Graph,
    complete_graph,
    complete_multipartite_graph,
    corona,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    path_graph,
    spider_graph,
    star_graph,
)
from coronapoly.indpoly import independence_polynomial, independence_polynomial_tree
from coronapoly.polynomials import IntPolynomial
from coronapoly.roots import (
    RootReport,
    all_roots_real,
    build_hk,
    count_distinct_real_roots,
    count_distinct_roots_in_disc,
    deflate_minus_one,
    isolate_real_roots,
    multiplicity_of_minus_one,
    numeric_roots,
    root_bijection_check,
    root_bound_exponent,
    square_free_decomposition,
    square_free_part,
    sturm_chain,
    verify_bounds,
)
from corpus import graphs_upto
from knowngraphs import TREE8_NONREAL, TREE10_REALROOTED

ONE_PLUS_X = IntPolynomial((1, 1))


def test_multiplicity_of_minus_one():
    assert multiplicity_of_minus_one(independence_polynomial(path_graph(4))) == 1
    assert multiplicity_of_minus_one(IntPolynomial((1, 3))) == 0
    assert multiplicity_of_minus_one(ONE_PLUS_X ** 5 * IntPolynomial((1, 2))) == 5


def test_deflation():
    p4 = independence_polynomial(path_graph(4))
    assert deflate_minus_one(p4).coeffs == (1, 3)
    assert deflate_minus_one(IntPolynomial((1, 3))) == IntPolynomial((1, 3))
    rng = random.Random(61)
    for _ in range(50):
        base = IntPolynomial([rng.randint(1, 5)] + [rng.randint(0, 5) for _ in range(rng.randint(0, 4))])
        if base(-1) == 0:
            continue
        m = rng.randint(0, 4)
        p = ONE_PLUS_X ** m * base
        assert multiplicity_of_minus_one(p) == m
        # deflating then re-multiplying reproduces the input exactly
        assert ONE_PLUS_X ** m * deflate_minus_one(p) == p


def test_spider_deflation_cofactor():
    from math import comb

    for n in range(2, 9):
        p = independence_polynomial_tree(corona(star_graph(n)))
        cofactor = deflate_minus_one(p)
        expect = IntPolynomial(
            [1] + [comb(n, k) * 2**k + comb(n - 1, k - 1) for k in range(1, n + 1)]
        )
        assert cofactor == expect


def test_square_free_structure():
    p = ONE_PLUS_X ** 3 * IntPolynomial((1, 3)) ** 2 * IntPolynomial((1, 0, 1))
    decomp = square_free_decomposition(p)
    assert {(f.coeffs, m) for f, m in decomp} == {
        ((1, 0, 1), 1),
        ((1, 3), 2),
        ((1, 1), 3),
    }
    sf = square_free_part(p)
    assert sf == IntPolynomial((1, 1)) * IntPolynomial((1, 3)) * IntPolynomial((1, 0, 1))
    # reconstruction up to a positive constant: exact here
    rebuilt = IntPolynomial.one()
    for f, m in decomp:
        rebuilt = rebuilt * f ** m
    assert rebuilt == p


def test_sturm_chain_counts():
    p = IntPolynomial((-2, 0, 1))  # x^2 - 2
    chain = sturm_chain(p)
    assert chain[0] == p.coeffs
    assert count_distinct_real_roots(p) == 2
    assert count_distinct_real_roots(p, Fraction(0), Fraction(2)) == 1
    assert count_distinct_real_roots(p, Fraction(-2), Fraction(0)) == 1
    assert count_distinct_real_roots(p, Fraction(3), None) == 0


def test_count_endpoint_semantics():
    p = ONE_PLUS_X * IntPolynomial((1, 2))  # roots -1, -1/2
    minus_one = Fraction(-1)
    assert count_distinct_real_roots(p, minus_one, Fraction(0), True, True) == 2
    assert count_distinct_real_roots(p, minus_one, Fraction(0), False, True) == 1
    assert count_distinct_real_roots(p, None, minus_one, True, False) == 0
    assert count_distinct_real_roots(p, None, minus_one, True, True) == 1
    assert count_distinct_real_roots(p, minus_one, minus_one, True, True) == 1
    # a nonzero constant has no root, on the whole line or on an interval
    seven = IntPolynomial((7,))
    assert count_distinct_real_roots(seven) == 0
    for flags in ((True, True), (False, False)):
        assert count_distinct_real_roots(seven, minus_one, Fraction(0), *flags) == 0


def test_isolation_examples():
    roots = isolate_real_roots(IntPolynomial((1, 2)))
    assert len(roots) == 1
    (lo, hi), m = roots[0]
    assert m == 1 and lo <= Fraction(-1, 2) <= hi

    p = ONE_PLUS_X ** 2 * IntPolynomial((1, 3))
    found = isolate_real_roots(p)
    assert sorted(m for _, m in found) == [1, 2]
    for (lo, hi), m in found:
        if m == 2:
            assert lo <= Fraction(-1) <= hi
        else:
            assert lo <= Fraction(-1, 3) <= hi

    c7 = independence_polynomial(cycle_graph(7))
    isolated = isolate_real_roots(c7)
    assert [m for _, m in isolated] == [1, 1, 1]
    assert count_distinct_real_roots(c7, Fraction(-2), Fraction(-1), False, False) == 1


def test_isolation_intervals_disjoint_and_exhaustive():
    rng = random.Random(67)
    for _ in range(60):
        factors = [ONE_PLUS_X, IntPolynomial((1, 2)), IntPolynomial((1, 3)), IntPolynomial((1, 0, 1))]
        p = IntPolynomial.one()
        total_real = 0
        seen = set()
        for f in factors:
            m = rng.randint(0, 2)
            if m and f in seen:
                continue
            if m:
                seen.add(f)
                p = p * f ** m
                total_real += m if f.degree == 1 else 0
        if p.degree == 0:
            continue
        iso = isolate_real_roots(p)
        assert sum(m for _, m in iso) == total_real
        spans = sorted(((lo, hi) for (lo, hi), _ in iso))
        for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
            assert h1 <= l2


def test_isolation_against_companion_matrix_oracle():
    # numpy's eigenvalue root finder as an independent oracle: the isolated
    # intervals must contain exactly the numerically-found real roots
    import numpy as np

    rng = random.Random(73)
    pool = [
        ONE_PLUS_X,
        IntPolynomial((1, 2)),
        IntPolynomial((1, 3)),
        IntPolynomial((-1, 1)),
        IntPolynomial((1, 0, 1)),
        IntPolynomial((2, 1, 3)),
        IntPolynomial((1, 5, 5)),
    ]
    for _ in range(120):
        p = IntPolynomial((rng.randint(1, 3),))
        for f in rng.sample(pool, rng.randint(1, 4)):
            p = p * f ** rng.randint(1, 2)
        if p.degree < 1:
            continue
        np_roots = np.roots(list(reversed(p.coeffs)))
        # eigenvalue solvers split multiple real roots into conjugate pairs
        # with imaginary noise ~1e-7; the true complex roots in the factor
        # pool sit at |Im| > 0.5, so a 1e-4 window separates them cleanly
        np_real = sorted(z.real for z in np_roots if abs(z.imag) < 1e-4)
        iso = isolate_real_roots(p)
        # multiplicity-weighted real count matches, position by position
        assert sum(m for _, m in iso) == len(np_real), (p, iso, np_real)
        spans = [span for span, m in iso for _ in range(m)]
        for (lo, hi), r in zip(spans, np_real):
            assert float(lo) - 1e-5 <= r <= float(hi) + 1e-5, (p, lo, hi, r)
        # distinct counts match after clustering the numeric roots
        clusters = 1 + sum(
            1 for a, b in zip(np_real, np_real[1:]) if b - a > 1e-4
        ) if np_real else 0
        assert count_distinct_real_roots(p) == len(iso) == clusters


def test_numeric_roots_against_companion_matrix_oracle():
    import numpy as np

    rng = random.Random(79)
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        coeffs[-1] = rng.randint(1, 9)
        if coeffs[0] == 0:
            coeffs[0] = 1
        p = IntPolynomial(coeffs)
        mine = sorted(numeric_roots(p), key=lambda z: (round(z.real, 6), z.imag))
        ref = sorted(
            (complex(z) for z in np.roots(list(reversed(coeffs)))),
            key=lambda z: (round(z.real, 6), z.imag),
        )
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-6, (p, mine, ref)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        isolate_real_roots(IntPolynomial.zero())
    with pytest.raises(ValueError):
        count_distinct_real_roots(IntPolynomial.zero())


def test_numeric_roots():
    zs = numeric_roots(IntPolynomial((1, 2)))
    assert len(zs) == 1 and abs(zs[0] - (-0.5)) < 1e-12

    zs = numeric_roots(ONE_PLUS_X ** 3)
    assert len(zs) == 3
    assert all(abs(z - (-1)) < 1e-3 for z in zs)

    c7 = independence_polynomial(cycle_graph(7))
    zs = numeric_roots(c7)
    assert len(zs) == 3

    # conjugate symmetry for a polynomial with a complex pair
    p = independence_polynomial(TREE8_NONREAL)
    zs = numeric_roots(p)
    nonreal = [z for z in zs if z.imag != 0]
    assert nonreal
    for z in nonreal:
        assert any(abs(w - z.conjugate()) < 1e-9 for w in nonreal)


def test_numeric_roots_take_zero_roots_exactly():
    # x (2x^4 - 3x^3 - 2x - 3): Aberth alone stopped at -1e-80j, whose
    # scale-relative residual at the root 0 is about 1, and raised
    f = IntPolynomial((0, -3, -2, 0, -3, 2))
    zs = numeric_roots(f)
    assert len(zs) == 5 and zs.count(0j) == 1
    rep = RootReport(f ** 3 * IntPolynomial((-1, 2)))
    assert (Fraction(0), Fraction(0), 3) in rep.real_roots
    total = sum(m for *_, m in rep.real_roots) + sum(m for *_, m in rep.complex_roots)
    assert total == rep.polynomial.degree
    assert numeric_roots(IntPolynomial((0, 0, 5))) == [0j, 0j]


def test_numeric_roots_validation():
    with pytest.raises(ValueError):
        numeric_roots(IntPolynomial((5,)))


def test_all_roots_real():
    assert all_roots_real(independence_polynomial(path_graph(9)))
    assert all_roots_real(independence_polynomial(cycle_graph(7)))
    assert all_roots_real(independence_polynomial(TREE10_REALROOTED))
    assert not all_roots_real(independence_polynomial(TREE8_NONREAL))


def test_all_roots_real_matches_the_yun_weighted_count():
    from oracles import yun_weighted_all_roots_real

    # a repeated root is one distinct root: I(corona(2K_1)) = (1 + 2x)^2
    square = independence_polynomial(corona(empty_graph(2)))
    assert square == IntPolynomial((1, 2)) ** 2 and all_roots_real(square)
    polys = []
    for g in graphs_upto(7):
        polys += [independence_polynomial(g), independence_polynomial(corona(g))]
    # seeded products with repeated factors, real-rooted or not
    factors = [
        IntPolynomial(c)
        for c in ((1, 1), (1, 2), (2, 3), (1, 3, 1), (1, 1, 1), (1, 0, 1), (-2, 0, 1), (1, 4, 3))
    ]
    rng = random.Random(59)
    for _ in range(300):
        p = IntPolynomial((rng.randint(1, 3),))
        for f in rng.sample(factors, rng.randint(1, 4)):
            p = p * f ** rng.randint(1, 3)
        polys.append(p)
    verdicts = [all_roots_real(p) for p in polys]
    assert verdicts == [yun_weighted_all_roots_real(p) for p in polys]
    repeated = [v for p, v in zip(polys, verdicts) if len(sturm_chain(p)[-1]) > 1]
    assert True in repeated and False in repeated


def test_bijection_reports():
    for g in [complete_graph(2), star_graph(2), cycle_graph(5), path_graph(6), empty_graph(11)]:
        report = root_bijection_check(g)
        assert report.passed, report.notes
    # the corona of K_33 would have 66 vertices, past the vertex cap of 64
    with pytest.raises(ResourceLimitError, match="^graph: 66 vertices exceeds limit 64$"):
        root_bijection_check(complete_graph(33))


def test_root_matching_oracle_rejects_a_false_pair():
    # criterion 08 runs the oracle only on true pairs; it must also see a
    # pair whose roots do not correspond
    from oracles import root_matching_notes

    g = cycle_graph(5)
    p = independence_polynomial(g)
    assert root_matching_notes(p, deflate_minus_one(independence_polynomial(corona(g)))) == []
    assert root_matching_notes(p, IntPolynomial((1, 7, 9))) != []


def test_bijection_failure_is_a_report(monkeypatch):
    from coronapoly import roots

    # I(G*) of a different graph: same order, then a larger one
    for other in (star_graph(3), path_graph(6)):
        monkeypatch.setattr(roots, "corona", lambda g, other=other: corona(other))
        report = root_bijection_check(path_graph(4))
        assert not report.passed
        assert report.notes and all(report.notes)


def test_bijection_degree_bookkeeping():
    g = star_graph(2)
    p = independence_polynomial(g)
    q = independence_polynomial(corona(g))
    assert deflate_minus_one(q).degree == p.degree == 2


def test_bounds_complete_graph_boundary():
    report = verify_bounds(complete_graph(4))
    annulus = report.bounds["annulus"]
    assert annulus.applicable and annulus.passed
    assert "boundary" in annulus.note
    # -1/4 lies exactly on the inner circle, and no root inside it
    p = independence_polynomial(complete_graph(4))
    assert count_distinct_roots_in_disc(p, Fraction(1, 4)) == (0, 1)
    # the root pass, as roots prints it, leaves the verdict as it was
    assert report.to_json()["bounds"][0] == annulus.to_json()


def test_bounds_balanced_multipartite():
    # well-covered, not complete: boundary must not be attained
    g = complete_multipartite_graph([2, 2])
    report = verify_bounds(g)
    annulus = report.bounds["annulus"]
    assert annulus.applicable and annulus.passed and not annulus.note
    assert report.to_json()["bounds"][0] == annulus.to_json()


def test_bounds_applicability():
    # real_window applies to every corona, whatever its girth or components,
    # but K_2 = K_1*: its one root, -1/2, is the window's open end, so the
    # window would fail there; C_7 is well-covered of girth 7, but no corona
    for g in (cycle_graph(7), complete_graph(2)):
        rw = verify_bounds(g).bounds["real_window"]
        assert (rw.applicable, rw.passed, rw.note) == (False, None, "hypotheses not met"), g
    assert count_distinct_real_roots(independence_polynomial(complete_graph(2)), Fraction(-1, 2)) == 1
    coronas = [
        corona(path_graph(3)),
        corona(empty_graph(2)),     # 2 K_2
        disjoint_union(complete_graph(2), corona(complete_graph(3))),
        corona(complete_graph(3)),     # girth 3
        corona(cycle_graph(5)),     # girth 5
    ]
    for g in coronas:
        rw = verify_bounds(g).bounds["real_window"]
        assert (rw.applicable, rw.passed, rw.note) == (True, True, ""), g
    with pytest.raises(ValueError):
        verify_bounds(Graph(1))


def test_real_window_on_the_coronas_of_the_catalog():
    # all 1,252 graphs on 1-7 vertices: the window applies to, and holds
    # on, every corona but K_2 = K_1*
    verdicts = {}
    for g in graphs_upto(7):
        rw = verify_bounds(corona(g)).bounds["real_window"]
        verdicts.setdefault(g.n == 1, []).append((rw.applicable, rw.passed))
    assert verdicts[True] == [(False, None)]
    assert len(verdicts[False]) == 1251 and set(verdicts[False]) == {(True, True)}


def test_real_window_at_the_cap_needs_no_enumeration(monkeypatch):
    # coronas on 64 vertices: the pendant matching decides both the
    # well-coveredness and the window's hypothesis, so no maximal stable set
    # is enumerated
    from coronapoly import graphs

    def no_enumeration(g):
        raise AssertionError("maximal stable sets enumerated")

    monkeypatch.setattr(graphs, "maximal_stable_sets", no_enumeration)
    rng = random.Random(36)
    tree = Graph(32, [(v, rng.randrange(v)) for v in range(1, 32)])
    for g in (cycle_graph(32), complete_graph(32), tree, _gnp(rng, 32, 0.2)):
        report = verify_bounds(corona(g))
        rw = report.bounds["real_window"]
        assert rw.applicable and rw.passed, g
        assert report.bounds["annulus"].applicable, g


def test_bounds_hold_on_small_corpus():
    for g in graphs_upto(6):
        if g.n < 2:
            continue
        report = verify_bounds(g)
        for b in report.bounds.values():
            assert not (b.applicable and b.passed is False), (g, b)


def test_bounds_on_coronas_past_the_enumeration_cap():
    # 26-64 vertices: well-coveredness from the pendant matching, then the
    # paper's bounds on I(G*)
    rng = random.Random(43)
    for n in [*range(13, 21), 24, 28, 32]:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        report = verify_bounds(corona(g))
        assert report.bounds["annulus"].applicable   # well-covered
        for b in report.bounds.values():
            assert not (b.applicable and b.passed is False), (g, b)


def test_bounds_on_forest_coronas_past_the_alpha_cap():
    # 42, 50 and 62 vertices: the clique number is alpha of the complement,
    # a dense graph on as many vertices, within the vertex cap
    for k in (21, 25, 31):
        report = verify_bounds(corona(path_graph(k)))
        assert report.bounds["annulus"].applicable   # well-covered
        assert report.bounds["real_window"].applicable   # a corona
        for b in report.bounds.values():
            assert not (b.applicable and b.passed is False), (k, b)


def test_bounds_check_their_caps_before_root_work(monkeypatch):
    # C_25 is past the maximal-stable-set enumeration's cap of 24: the call
    # must stop before the root pass; a 66-vertex corona is past the vertex
    # cap of 64, and is refused before there is a graph to pass
    from coronapoly import roots

    def no_root_work(*args, **kwargs):
        raise AssertionError("root work ran before the cap check")

    monkeypatch.setattr(roots, "numeric_roots", no_root_work)
    monkeypatch.setattr(roots, "isolate_real_roots", no_root_work)
    with pytest.raises(ResourceLimitError, match="^maximal stable sets: 25 vertices exceeds limit 24$"):
        verify_bounds(cycle_graph(25))
    with pytest.raises(ResourceLimitError, match="^graph: 66 vertices exceeds limit 64$"):
        verify_bounds(corona(cycle_graph(33)))


def test_report_schema():
    report = verify_bounds(corona(star_graph(2)))
    payload = report.to_json()
    assert payload["real_certification"] == "exact-sturm"
    assert payload["complex_certification"] == "numeric-residual"
    assert all(set(b) == {"name", "applicable", "pass", "note"} for b in payload["bounds"])
    total = sum(r["multiplicity"] for r in payload["real_roots"]) + sum(
        c["multiplicity"] for c in payload["complex_roots"]
    )
    assert total == report.polynomial.degree
    # the report of I(G) alone: the same intervals and roots, no verdicts
    bare = RootReport(report.polynomial).to_json()
    assert set(bare) == set(payload) == {
        "polynomial", "minus_one_multiplicity", "real_roots", "complex_roots", "bounds",
        "complex_certification", "real_certification",
    }
    assert {**bare, "bounds": payload["bounds"]} == payload


def test_bounds_report_isolates_on_first_read_as_the_eager_isolation():
    # K_4 isolates inside verify_bounds, the others on the first read
    for g in [complete_graph(4), star_graph(3), corona(path_graph(3)), cycle_graph(7), TREE8_NONREAL]:
        report = verify_bounds(g)
        eager = [(lo, hi, m) for (lo, hi), m in isolate_real_roots(report.polynomial)]
        before = pickle.loads(pickle.dumps(report))
        payload = report.to_json()
        assert payload == RootReport(report.polynomial, eager, None, report.bounds).to_json()
        assert report.real_roots is report.real_roots and report.real_roots == eager
        after = pickle.loads(pickle.dumps(report))
        assert before.to_json() == payload == after.to_json()
        assert before.bounds == report.bounds == after.bounds


def test_report_multiplicity_sum():
    for g in [cycle_graph(7), corona(star_graph(3)), TREE8_NONREAL, complete_graph(5)]:
        p = independence_polynomial(g)
        rep = RootReport(p)
        total = sum(m for *_, m in rep.real_roots) + sum(m for *_, m in rep.complex_roots)
        assert total == p.degree


def test_build_hk():
    seed = complete_graph(2)
    for k in range(1, 5):
        h, ok = build_hk(seed, k)
        assert ok
        assert h.n == seed.n * 2**k
    with pytest.raises(ValueError):
        build_hk(Graph(1), 1)
    with pytest.raises(ValueError):
        build_hk(cycle_graph(4), 1)
    with pytest.raises(ResourceLimitError):
        build_hk(seed, 6)


def test_negative_tail():
    from oracles import negative_tail_sign_check

    k2 = complete_graph(2)
    assert negative_tail_sign_check(k2, [Fraction(-2), Fraction(-3, 2)])
    assert negative_tail_sign_check(complete_graph(3), [Fraction(-3, 2)])
    with pytest.raises(ValueError):
        negative_tail_sign_check(k2, [Fraction(-1)])
    with pytest.raises(ValueError):
        negative_tail_sign_check(empty_graph(2), [Fraction(-2)])


def test_corona_polynomials_no_root_below_minus_one():
    for g in graphs_upto(5):
        if g.num_edges == 0:
            continue
        q = independence_polynomial(corona(g))
        assert count_distinct_real_roots(q, None, Fraction(-1), include_hi=False) == 0


def test_root_sign_reads_one_isolating_interval():
    from coronapoly.roots import refine_root_interval
    from oracles import _root_sign

    quadratic = IntPolynomial((1, 4, 2))        # roots -1 -+ 1/sqrt(2)
    # -1/3 is isolated strictly inside an open interval, -1 as [-1, -1]
    for p, rational, degenerate in [
        (IntPolynomial((1, 3)) * quadratic, Fraction(-1, 3), False),
        (ONE_PLUS_X * quadratic, Fraction(-1), True),
    ]:
        q = square_free_part(p)
        for lo, hi in (span for span, _ in isolate_real_roots(p)):
            assert _root_sign(q, (lo, hi, 1), lo - 1) == 1
            assert _root_sign(q, (lo, hi, 1), hi + 1) == -1
            if lo <= rational <= hi:
                assert (lo == hi) == degenerate
                assert _root_sign(q, (lo, hi, 1), rational) == 0
                near = [rational]
            else:
                # the root lies strictly inside this narrow interval
                near = list(refine_root_interval(q, lo, hi, Fraction(1, 2**40)))
                assert near[0] < near[1]
                assert _root_sign(q, (lo, hi, 1), near[0]) == 1
                assert _root_sign(q, (lo, hi, 1), near[1]) == -1
            if lo == hi:
                continue
            assert _root_sign(q, (lo, hi, 1), lo) == 1
            assert _root_sign(q, (lo, hi, 1), hi) == -1
            for k in range(1, 8):
                c = lo + (hi - lo) * k / 8
                want = 1 if c < near[0] else -1 if c > near[-1] else 0
                assert _root_sign(q, (lo, hi, 1), c) == want, (p, lo, hi, c)
    exact = (Fraction(-1), Fraction(-1), 2)
    assert [_root_sign(ONE_PLUS_X, exact, c) for c in (-2, -1, 0)] == [1, 0, -1]


def _crafted_polynomials(n: int, w: int) -> list[IntPolynomial]:
    """Positive-coefficient polynomials for a skeleton on n vertices with
    clique number w.  For each degree a = 1..8: products of linear factors
    with a root exactly at -1/n, -1/(2n-1), -a, -1 or max(-a/n, -1/w),
    filled to degree a with seeded factors (1 + kx), (j + x) and
    quadratics; then seeded random polynomials of degree 2-8 with p(0) = 1."""
    rng = random.Random(89)

    def linear(r: Fraction) -> IntPolynomial:
        return IntPolynomial((-r.numerator, r.denominator))

    def filler(degree: int) -> IntPolynomial:
        out = IntPolynomial.one()
        while out.degree < degree:
            kind = rng.random()
            if degree - out.degree >= 2 and kind < 0.3:
                b = rng.randint(1, 6)
                out = out * IntPolynomial((1, b, rng.randint(1, b * b)))
            elif kind < 0.75:
                out = out * IntPolynomial((1, rng.randint(1, 2 * n + 2)))
            else:
                out = out * IntPolynomial((rng.randint(1, 10), 1))
        return out

    polys = []
    for a in range(1, 9):
        lower = max(Fraction(-a, n), Fraction(-1, w))
        for r in (Fraction(-1, n), Fraction(-1, 2 * n - 1), Fraction(-a), Fraction(-1), lower):
            polys += [linear(r) * filler(a - 1) for _ in range(4)]
    for _ in range(120):
        polys.append(IntPolynomial([1] + [rng.randint(1, 40) for _ in range(rng.randint(2, 8))]))
    return polys


def test_real_legs_against_sturm_counts(monkeypatch):
    # on graphs the theorems hold, so only crafted polynomials make the real
    # legs fail: each verdict must equal the one from Sturm counts on p
    from coronapoly import roots
    from oracles import brute_alpha, counted_bound_verdicts, counted_real_legs

    skeleton = corona(path_graph(3))     # a corona: well-covered, real_window applies
    n = skeleton.n
    non_edges = [(u, v) for v in range(n) for u in range(v) if not skeleton.has_edge(u, v)]
    w = brute_alpha(Graph(n, non_edges))     # the clique number
    seen_legs, seen_verdicts = set(), set()
    for p in _crafted_polynomials(n, w):
        monkeypatch.setattr(roots, "independence_polynomial", lambda g, p=p: p)
        report = verify_bounds(skeleton)
        assert report.bounds["annulus"].applicable and report.bounds["real_window"].applicable
        want = counted_bound_verdicts(p, n, w)
        assert {name: report.bounds[name].passed for name in want} == want, p
        seen_legs |= set(counted_real_legs(p, n, w).items())
        seen_verdicts |= set(want.items())
    assert seen_legs == {(leg, v) for leg, _ in seen_legs for v in (True, False)}
    assert seen_verdicts == {(name, v) for name, _ in seen_verdicts for v in (True, False)}


def test_verify_bounds_isolates_only_where_the_first_radius_fails(monkeypatch):
    from coronapoly import roots

    def refuse(*args, **kwargs):
        raise AssertionError("isolate_real_roots called")

    monkeypatch.setattr(roots, "isolate_real_roots", refuse)
    for g in [star_graph(3), corona(path_graph(3)), cycle_graph(5), spider_graph(6), TREE8_NONREAL]:
        report = verify_bounds(g)
        assert all(b.passed for b in report.bounds.values() if b.applicable), g
    # xi_max of K_4 is -1/4 = -1/omega, on the first radius, not inside it
    with pytest.raises(AssertionError, match="isolate_real_roots called"):
        verify_bounds(complete_graph(4))


def _bounds_strata(seed):
    """The 126 graphs of the benchmark's bounds input for `seed`: connected
    G(n, p), n 8-14 by p 0.3/0.5/0.7, drawn in turn from one seeded stream."""
    rng = random.Random(f"bounds:{seed}")
    strata = [(n, p) for n in range(8, 15) for p in (0.3, 0.5, 0.7)]
    return [_gnp(rng, *strata[i % len(strata)]) for i in range(126)]


def test_verify_bounds_against_the_isolated_verdicts(monkeypatch):
    # each verdict and note equals the one read off the isolation of every
    # real root; the isolation itself runs only where the first radius fails
    from coronapoly import roots
    from oracles import isolated_bound_verdicts

    isolated = []
    isolate = roots.isolate_real_roots
    monkeypatch.setattr(roots, "isolate_real_roots", lambda p: isolated.append(p) or isolate(p))
    graphs = [g for g in graphs_upto(7) if g.n >= 2]
    graphs += [g for seed in (1, 2, 3) for g in _bounds_strata(seed)]
    graphs += [corona(g) for g in graphs_upto(5)]
    graphs += [complete_graph(k) for k in range(2, 9)] + [star_graph(k) for k in range(2, 9)]
    graphs += [path_graph(k) for k in range(7, 12)] + [cycle_graph(k) for k in range(7, 12)]
    graphs.append(TREE8_NONREAL)
    for g in graphs:
        report = verify_bounds(g)
        got = {name: (b.passed, b.note) for name, b in report.bounds.items()}
        assert got == isolated_bound_verdicts(g), g
    assert 0 < len(isolated) < len(graphs) // 4


def test_smallest_modulus_side():
    # the minimum-modulus root is real and no other root ties it: against
    # mpmath's distinct roots of I(G), on sympy's square-free part, at 60
    # digits
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** -40
        for g in graphs_upto(5):
            if g.n < 2:
                continue
            check = verify_bounds(g).bounds["smallest_modulus_real_unique"]
            assert check.passed, (g, check)
            p = independence_polynomial(g)
            sqf = sympy.Poly(list(reversed(p.coeffs)), x).sqf_part().all_coeffs()
            zs = mpmath.polyroots([int(c) for c in sqf], maxsteps=200, extraprec=200)
            rho = min(abs(z) for z in zs)
            nearest = [z for z in zs if abs(z) - rho <= tol]
            assert len(nearest) == 1 and abs(nearest[0].imag) <= tol, (g, zs)


# -- exact disc counts: the bounds suite without floats ---------------------------


def _gnp(rng, n, p):
    """A connected G(n, p) by rejection, as the benchmark's bounds strata draw them."""
    while True:
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        if is_connected(g):
            return g


def _disc_count_cases():
    """(p, r): seeded polynomials with repeated roots, a real root at
    exactly -r, a conjugate pair on |z| = r, or neither; then I(G) over
    the bounds strata (G(n, p), n 8-14, p 0.3/0.5/0.7) at random radii."""
    rng = random.Random(61)
    cases = []
    for i in range(120):
        d = rng.randint(1, 6)
        p = IntPolynomial([rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-2, -1, 1, 3])])
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        kind = i % 4
        if kind == 0:       # repeated roots
            p = p * IntPolynomial([rng.randint(-3, 3), rng.randint(1, 3)]) ** 2 * p
        elif kind == 1:     # a real root at exactly -r
            p = p * IntPolynomial([a, b])
        elif kind == 2:     # a conjugate pair on the circle: b^2 z^2 + c b z + a^2
            p = p * IntPolynomial([a * a, rng.randint(1 - 2 * a, 2 * a - 1) * b, b * b])
        cases.append((p, Fraction(a, b)))
    for n in range(8, 15):
        for density in (0.3, 0.5, 0.7):
            p = independence_polynomial(_gnp(rng, n, density))
            for r in (Fraction(1, n), Fraction(1, 2 * n - 1), Fraction(p.degree),
                      Fraction(rng.randint(1, 200), rng.randint(1, 200))):
                cases.append((p, r))
    return cases


def test_disc_counts_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    on_circle = kinds = 0
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** -40
        for p, r in _disc_count_cases():
            # the distinct roots: mpmath on sympy's square-free part
            sqf = sympy.Poly(list(reversed(p.coeffs)), x).sqf_part().all_coeffs()
            zs = mpmath.polyroots([int(c) for c in sqf], maxsteps=200, extraprec=200) if len(sqf) > 1 else []
            radius = mpmath.mpf(r.numerator) / r.denominator
            want = (
                sum(abs(z) < radius - tol for z in zs),
                sum(abs(abs(z) - radius) <= tol for z in zs),
            )
            assert count_distinct_roots_in_disc(p, r) == want, (p, r)
            on_circle += want[1] > 0
    assert on_circle >= 60


def test_disc_count_edge_cases():
    one_plus_x = IntPolynomial((1, 1))
    # -1 is a triple root, counted once, on |z| = 1 and inside any wider disc
    assert count_distinct_roots_in_disc(one_plus_x ** 3, Fraction(1)) == (0, 1)
    assert count_distinct_roots_in_disc(one_plus_x ** 3, Fraction(3, 2)) == (1, 0)
    # z^2 + 1 has both roots on the unit circle, z^2 - 1 one at r and one at -r
    assert count_distinct_roots_in_disc(IntPolynomial((1, 0, 1)), Fraction(1)) == (0, 2)
    assert count_distinct_roots_in_disc(IntPolynomial((-1, 0, 1)), Fraction(1)) == (0, 2)
    # z and z^3 + z: a root at 0, the centre
    assert count_distinct_roots_in_disc(IntPolynomial((0, 1)), Fraction(1, 5)) == (1, 0)
    assert count_distinct_roots_in_disc(IntPolynomial((0, 1, 0, 1)), Fraction(1)) == (1, 2)
    # reciprocal pairs z, 1/z off the circle
    assert count_distinct_roots_in_disc(IntPolynomial((2, -5, 2)), Fraction(1)) == (1, 0)
    assert count_distinct_roots_in_disc(IntPolynomial((7,)), Fraction(1)) == (0, 0)
    with pytest.raises(ValueError):
        count_distinct_roots_in_disc(one_plus_x, Fraction(0))


def test_nearest_root_on_a_degenerate_interval():
    # xi_max isolated as [-1, -1] is decided by the disc count at |xi| = 1
    # alone: (1 + x)(2 + x) has -2 outside that circle, so -1 is the one
    # root of least modulus, and (1 + x)(1 + x^2) has +-i on it too, a tie
    from coronapoly.roots import _nearest_root_real_unique

    minus_one = (Fraction(-1), Fraction(-1), 1)
    assert _nearest_root_real_unique(IntPolynomial((2, 3, 1)), minus_one) == (True, "")
    assert _nearest_root_real_unique(IntPolynomial((1, 1, 1, 1)), minus_one) == (False, "")


def test_rouche_certificate_implies_an_empty_closed_disc():
    from coronapoly.roots import _clear_closed_disc

    rng = random.Random(67)
    cleared = 0
    for n, density in [(n, d) for n in range(8, 15) for d in (0.3, 0.5, 0.7)] * 2:
        p = independence_polynomial(_gnp(rng, n, density))
        for r in (Fraction(1, 2 * n - 1), Fraction(1, n), Fraction(1, 2)):
            if _clear_closed_disc(p, r):
                cleared += 1
                assert count_distinct_roots_in_disc(p, r) == (0, 0), (p, r)
    assert cleared > 0


def test_bounds_suite_runs_no_float_root_pass(monkeypatch):
    from coronapoly import roots, suites

    def refuse(*args, **kwargs):
        raise AssertionError("the bounds suite reached the float root pass")

    for name in ("numeric_roots", "_complex_roots"):
        monkeypatch.setattr(roots, name, refuse)
    extra = [corona(path_graph(3)), complete_graph(4), cycle_graph(7), TREE8_NONREAL]
    for g in graphs_upto(6) + extra:
        assert suites.check_one("bounds", g) is None, g


def test_modulus_floor_without_the_rouche_shortcut(monkeypatch):
    from coronapoly import roots

    graphs = [g for g in graphs_upto(6) if g.n >= 2] + [TREE8_NONREAL]
    want = [verify_bounds(g).bounds["modulus_floor"].passed for g in graphs]
    monkeypatch.setattr(roots, "_clear_closed_disc", lambda p, r: False)
    assert [verify_bounds(g).bounds["modulus_floor"].passed for g in graphs] == want
    assert all(want)


def test_smallest_modulus_left_uncertified_fails_with_a_note(monkeypatch):
    from coronapoly import roots

    # I(K_{1,3}) = 1 + 4x + 3x^2 + x^3: xi_max ~ -0.32 is the one root in
    # |z| < 1/2, the first radius.  Past it, xi_max is isolated in (-5, 0),
    # and |z| < 5 holds the nonreal pair too, so the verdict needs a bisection
    check = verify_bounds(star_graph(3)).bounds["smallest_modulus_real_unique"]
    assert check.passed and not check.note
    disc = roots.count_distinct_roots_in_disc

    def first_radius_fails(q, r):
        inside, on = disc(q, r)
        return inside + (r == Fraction(1, 2)), on

    monkeypatch.setattr(roots, "count_distinct_roots_in_disc", first_radius_fails)
    monkeypatch.setattr(roots, "_NEAREST_BISECTIONS", 0)
    check = verify_bounds(star_graph(3)).bounds["smallest_modulus_real_unique"]
    assert check.passed is False and "not certified" in check.note


# -- the root pass: realness from the exact isolation ---------------------------


def _break_pairing(zs):
    """Reflect one nonreal approximation, so two lie below the axis unpaired."""
    i = next(i for i, z in enumerate(zs) if z.imag > 1e-3)
    return zs[:i] + [zs[i].conjugate()] + zs[i + 1:]


def _push_off_interval(zs):
    """Move the approximation nearest the axis far along it."""
    i = min(range(len(zs)), key=lambda i: abs(zs[i].imag))
    return zs[:i] + [zs[i] + 10] + zs[i + 1:]


@pytest.mark.parametrize("corrupt", [_break_pairing, _push_off_interval])
def test_root_pass_rejects_bad_approximations(monkeypatch, capsys, tmp_path, corrupt):
    from coronapoly import roots
    from coronapoly.cli import main
    from coronapoly.graphs import encode_graph6

    real_numeric_roots = roots.numeric_roots
    monkeypatch.setattr(roots, "numeric_roots", lambda f: corrupt(real_numeric_roots(f)))
    with pytest.raises(RootConvergenceError):
        RootReport(independence_polynomial(TREE8_NONREAL)).complex_roots
    stream = tmp_path / "tree8.g6"
    stream.write_text(encode_graph6(TREE8_NONREAL) + "\n")
    assert main(["roots", "--input", str(stream)]) == 4
    assert "root iteration did not converge" in capsys.readouterr().err


def test_reported_roots_are_exact_pairs_and_inside_intervals():
    # the 4-leg spider: its root -1 is a bisection midpoint, isolated as
    # the degenerate [-1, -1]
    spider = spider_graph(4)
    assert (Fraction(-1), Fraction(-1), 1) in RootReport(independence_polynomial(spider)).real_roots
    for g in graphs_upto(6) + [TREE8_NONREAL, spider]:
        p = independence_polynomial(g)
        rep = RootReport(p)
        for lo, hi, _ in rep.real_roots:
            assert count_distinct_real_roots(p, lo, hi) == 1, (g, lo, hi)
        pairs = rep.complex_roots
        assert len(pairs) % 2 == 0
        for (re1, im1, m1), (re2, im2, m2) in zip(pairs[::2], pairs[1::2]):
            assert (re1, im1, m1) == (re2, -im2, m2) and im2 > 0, (g, pairs)


def _seeded_root_graphs():
    """Twenty random trees on 12-14 vertices, twenty G(n, 0.4) on 8-12."""
    rng = random.Random(47)
    trees = [
        Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        for n in (12 + i % 3 for i in range(20))
    ]
    dense = [
        Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.4])
        for n in (8 + i % 5 for i in range(20))
    ]
    return trees + dense


def test_root_floats_against_sympy_nroots():
    # sympy's roots of each of its own square-free factors: the nonreal ones
    # against complex_roots, each real one inside its interval
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for g in _seeded_root_graphs():
        p = independence_polynomial(g)
        ref_real, ref_nonreal = [], []
        for f, m in sympy.Poly(list(reversed(p.coeffs)), x).sqf_list()[1]:
            for r in f.nroots(n=30, maxsteps=200):
                if r.is_real:
                    ref_real.append((r, m))
                else:
                    ref_nonreal.append((complex(r), m))
        rep = RootReport(p)
        for (lo, hi, m), (r, mr) in zip(rep.real_roots, sorted(ref_real), strict=True):
            assert m == mr, (g, lo, hi, r)
            if lo == hi:
                assert abs(r - sympy.Rational(lo)) <= 1e-25, (g, lo, r)
            else:
                assert sympy.Rational(lo) < r < sympy.Rational(hi), (g, lo, hi, r)
        got = [(complex(re, im), m) for re, im, m in rep.complex_roots]
        assert len(got) == len(ref_nonreal), (g, got, ref_nonreal)
        for z, m in got:
            assert min(abs(z - r) for r, mr in ref_nonreal if mr == m) <= 1e-12 * abs(z), (g, z, ref_nonreal)


# -- sympy as an independent exact oracle (test-only) --------------------------

_ENDPOINTS = [Fraction(v) for v in ("-2", "-1", "-1/2", "-1/3", "0", "1/4", "1/2", "1")]


def _sympy_cross_check_polys(count):
    """Seeded products with a negative or positive leading coefficient,
    content > 1, repeated factors and rational roots on the endpoints."""
    rng = random.Random(101)
    off_grid = [Fraction(-3, 5), Fraction(2, 3), Fraction(-5, 2)]
    out = []
    while len(out) < count:
        p = IntPolynomial((rng.choice((-1, 1)) * rng.randint(2, 6),))
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.55:
                r = rng.choice(_ENDPOINTS + off_grid)
                f = IntPolynomial((-r.numerator, r.denominator))
            elif kind < 0.8:
                f = IntPolynomial([rng.randint(-5, 5), rng.randint(-5, 5), rng.choice((-3, -2, -1, 1, 2, 3))])
            else:
                f = IntPolynomial([rng.randint(-4, 4) for _ in range(3)] + [rng.choice((-2, -1, 1, 2))])
            p = p * f ** rng.randint(1, 3)
        if p.degree >= 1:
            out.append(p)
    return out


def test_exact_root_core_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ")

    def cmp(r, e):
        q = sympy.Rational(e.numerator, e.denominator)
        return 0 if r == q else (1 if bool(r > q) else -1)

    for p in _sympy_cross_check_polys(60):
        _, factors = to_sympy(p).sqf_list()
        expect = set()
        for fac, m in factors:
            coeffs = tuple(int(c) for c in reversed(fac.all_coeffs()))
            expect.add((IntPolynomial(coeffs).primitive_part().coeffs, m))
        got = {(f.coeffs, m) for f, m in square_free_decomposition(p)}
        # sympy's factors are primitive with a positive leading coefficient
        assert {(f if f[-1] > 0 else tuple(-c for c in f), m) for f, m in expect} == got, p

        roots = [(r, m) for fac, m in factors for r in fac.real_roots()]
        assert count_distinct_real_roots(p) == len(roots)
        # each root's position against each endpoint, decided once by sympy
        side = [{e: cmp(r, e) for e in _ENDPOINTS} for r, _ in roots]
        bounds = [None] + _ENDPOINTS
        for lo in bounds:
            for hi in bounds:
                if lo is not None and hi is not None and lo > hi:
                    continue
                for inc_lo in (True, False):
                    for inc_hi in (True, False):
                        want = sum(
                            1
                            for s in side
                            if (lo is None or s[lo] > 0 or (inc_lo and s[lo] == 0))
                            and (hi is None or s[hi] < 0 or (inc_hi and s[hi] == 0))
                        )
                        got_n = count_distinct_real_roots(p, lo, hi, inc_lo, inc_hi)
                        assert got_n == want, (p, lo, hi, inc_lo, inc_hi)

        iso = isolate_real_roots(p)
        assert len(iso) == len(roots)
        for (lo, hi), m in iso:
            if lo == hi:
                held = [mr for r, mr in roots if cmp(r, lo) == 0]
            else:
                held = [mr for r, mr in roots if cmp(r, lo) > 0 and cmp(r, hi) < 0]
            assert held == [m], (p, lo, hi, m)


_ERROR_ARGS = {
    RootConvergenceError: ("no convergence", [1 + 2j]),
    errors.NotACoronaImage: (2, -1),
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_errors_survive_pickling(cls):
    # worker processes send their exceptions to the parent pickled
    err = cls(*_ERROR_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


# -- the integer root core: dyadic isolation and certified real floats ----------


def _bounds_strata_graphs():
    """Three seeded connected G(n, p) for each n in 8..14 and p in 0.3,
    0.5, 0.7: the strata of the benchmark's bounds workload."""
    rng = random.Random(151)
    out = []
    for n in range(8, 15):
        for p in (0.3, 0.5, 0.7):
            kept = 0
            while kept < 3:
                g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
                if is_connected(g):
                    out.append(g)
                    kept += 1
    return out


_LINEAR_ROOTS = [Fraction(v) for v in ("0", "1", "-1", "2", "-3", "1/2", "-3/2", "2/3", "-1/3")]


def _isolation_polys():
    """Integer polynomials with rational roots at dyadic and non-dyadic
    points: every product of two or three distinct linear factors with
    roots in _LINEAR_ROOTS, 0 among them, with alternating leading signs
    (several put a root on a bisection midpoint); then seeded products
    with repeated factors, content and negative leading coefficients."""
    from itertools import combinations

    def linear(r: Fraction) -> IntPolynomial:
        return IntPolynomial((-r.numerator, r.denominator))

    out = []
    for k in (2, 3):
        for rs in combinations(_LINEAR_ROOTS, k):
            p = IntPolynomial((-1,) if len(out) % 2 else (1,))
            for r in rs:
                p = p * linear(r)
            out.append(p)
    rng = random.Random(157)
    while len(out) < 200:
        p = IntPolynomial((rng.choice((-3, -2, -1, 1, 2, 3)),))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                f = linear(rng.choice(_LINEAR_ROOTS))
            else:
                f = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))] + [rng.choice((-2, -1, 1, 2))])
            p = p * f ** rng.randint(1, 3)
        if p.degree >= 1:
            out.append(p)
    return out


def _dyadic(x: Fraction) -> bool:
    """Whether x has a power-of-two denominator."""
    return x.denominator & (x.denominator - 1) == 0


def test_isolation_matches_fraction_bisection():
    # the dyadic bisection gives the intervals and multiplicities of the
    # Fraction bisection, exactly, and every endpoint is dyadic
    from oracles import fraction_isolate_real_roots

    polys = [independence_polynomial(g) for g in _bounds_strata_graphs()] + _isolation_polys()
    exact_hits = 0
    for p in polys:
        got = isolate_real_roots(p)
        assert got == fraction_isolate_real_roots(p), p
        assert all(_dyadic(x) for span, _ in got for x in span), p
        exact_hits += sum(1 for (lo, hi), _ in got if lo == hi != 0)
    assert exact_hits >= 20    # rational roots found at bisection midpoints


@pytest.mark.parametrize("coeffs, e", [
    ((1, 1), 2),                # 1 + x: degree 1
    ((1, 2), 1),                # 1 + 2x
    ((9, 5, 0, -1), 3),         # a negative leading coefficient, real root 2.85...
    ((-16, 0, 0, 0, 1), 3),     # zero interior coefficients, roots on |z| = 2
    ((-4, 1), 4),               # a root at a power of two
    ((1, 3, 64), 1),            # the leading coefficient larger than all the others
    ((-7, 3, 1), 3),            # root -4.54...: outside 2^2 without Fujiwara's factor 2
    ((-7, -3, -1, 2), 2),       # root 2.05...: outside 2^1 with a floor for the ceiling
])
def test_root_bound_exponent_hand_cases(coeffs, e):
    mpmath = pytest.importorskip("mpmath")
    assert root_bound_exponent(IntPolynomial(coeffs)) == e
    with mpmath.workdps(60):
        assert max(abs(z) for z in mpmath.polyroots(list(reversed(coeffs)))) < 2**e


def test_root_bound_exponent_against_mpmath():
    # every root of the square-free part of I(G), for the catalog graphs on
    # at most 7 vertices and the bounds strata, has |z| < 2^e, by mpmath's
    # roots at 60 digits
    mpmath = pytest.importorskip("mpmath")
    graphs = graphs_upto(7) + _bounds_strata_graphs()
    polys = {square_free_part(independence_polynomial(g)) for g in graphs}
    with mpmath.workdps(60):
        for q in polys:
            if q.degree >= 1:
                zs = mpmath.polyroots(list(reversed(q.coeffs)))
                assert max(abs(z) for z in zs) < 2 ** root_bound_exponent(q), q


def _cap_graphs():
    """Seeded graphs on 40-64 vertices: random trees, sparse G(n, p), a
    3-regular graph (a Hamiltonian cycle plus a random perfect matching
    off it) and coronas of a random tree and of a G(n, 0.15)."""
    rng = random.Random(163)
    trees = [Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]) for n in (40, 52, 64, 32)]
    cycle = {(v, v + 1) for v in range(63)} | {(0, 63)}
    while True:
        perm = rng.sample(range(64), 64)
        matching = {(min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2])}
        if not matching & cycle:
            break
    cubic = Graph(64, sorted(cycle | matching))
    sparse = [_gnp(rng, 44, 0.08), _gnp(rng, 56, 0.06)]
    return trees[:3] + sparse + [cubic, corona(trees[3]), corona(_gnp(rng, 24, 0.15))]


def test_isolation_at_the_cap_against_mpmath():
    # the real roots of I(G), from mpmath at 60 digits on sympy's
    # square-free part (started from numpy's roots), fall one in each
    # isolating interval, and every endpoint is dyadic
    mpmath = pytest.importorskip("mpmath")
    np = pytest.importorskip("numpy")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** -40
        for g in _cap_graphs():
            assert 40 <= g.n <= 64
            p = independence_polynomial(g)
            got = isolate_real_roots(p)
            sqf = [int(c) for c in sympy.Poly(list(reversed(p.coeffs)), x).sqf_part().all_coeffs()]
            start = [mpmath.mpc(complex(z)) for z in np.roots([float(c) for c in sqf])]
            zs = mpmath.polyroots(sqf, extraprec=60, roots_init=start)
            real = sorted(z.real for z in zs if abs(z.imag) <= tol)
            assert len(got) == len(real), g
            for ((lo, hi), _), xi in zip(got, real):
                assert _dyadic(lo) and _dyadic(hi), (g, lo, hi)
                lo_mp, hi_mp = (mpmath.mpf(e.numerator) / e.denominator for e in (lo, hi))
                if lo == hi:
                    assert abs(xi - lo_mp) <= tol, (g, lo, xi)
                else:
                    assert lo_mp < xi < hi_mp, (g, lo, hi, xi)


def test_bounds_at_the_cap():
    # the 64-vertex spider: seven roots lie in |z| < 1/2, so the
    # smallest-modulus verdict reads disc counts at the far ends of
    # xi_max's interval, 1/4 then 1/8; every bound applies and passes.
    # Its verdicts and those on the cap's two coronas match the oracle's
    from oracles import isolated_bound_verdicts

    spider = spider_graph(31)
    assert [b.passed for b in verify_bounds(spider).bounds.values()] == [True] * 5
    for g in [spider] + _cap_graphs()[-2:]:
        got = {name: (b.passed, b.note) for name, b in verify_bounds(g).bounds.items()}
        assert got == isolated_bound_verdicts(g), g


def test_path_roots_need_no_aberth(monkeypatch):
    # I(P_n) is real-rooted, with roots -1/(4 cos^2(j pi/(n+2))), j = 1..(n+1)//2,
    # each inside its interval at 60 digits; Aberth did not converge on
    # several of these polynomials
    mpmath = pytest.importorskip("mpmath")
    from coronapoly import roots

    def refuse(*args, **kwargs):
        raise AssertionError("numeric_roots called")

    monkeypatch.setattr(roots, "numeric_roots", refuse)
    for n in range(45, 65):
        rep = RootReport(independence_polynomial(path_graph(n)))
        assert len(rep.real_roots) == (n + 1) // 2 and not rep.complex_roots
        with mpmath.workdps(60):
            closed = sorted(
                -1 / (4 * mpmath.cos(j * mpmath.pi / (n + 2)) ** 2) for j in range(1, (n + 1) // 2 + 1)
            )
            for (lo, hi, m), xi in zip(rep.real_roots, closed, strict=True):
                assert m == 1, (n, lo, hi)
                lo_mp, hi_mp = (mpmath.mpf(e.numerator) / e.denominator for e in (lo, hi))
                if lo == hi:
                    assert abs(xi - lo_mp) <= mpmath.mpf(10) ** -50, (n, lo, xi)
                else:
                    assert lo_mp < xi < hi_mp, (n, lo, hi, xi)
