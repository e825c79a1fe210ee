"""Acceptance runs: every desk-scale claim the package reproduces, each as
one test that prints its own PASS line (run with ``pytest -s`` to see
them).  Corpora: the exhaustive catalog of graphs up to 8 vertices
(ingested through the graph6 stream interface), trees up to 12 for the
transform sweeps and 16 for well-covered-tree root windows, and the
well-covered catalog up to 10 vertices (exhaustive through 8, generated
families at 9 and 10 — see ``corpus.py``).  Exact checks carry zero
tolerance; the numeric complex-root legs run at the stated 1e-9.
"""

import io
import random
from fractions import Fraction
from functools import cache
from math import comb

from coronapoly.canon import canonical_code
from coronapoly.corona import (
    coefficient_monotonicity_check,
    corona_coefficients,
    corona_polynomial_identity,
    inverse_corona_coefficients,
    spider_polynomial,
)
from coronapoly.graphs import (
    alpha,
    complete_graph,
    corona,
    cycle_graph,
    encode_graph6,
    is_claw_free,
    is_star,
    path_graph,
    read_graph6_stream,
    star_graph,
)
from coronapoly.indpoly import (
    count_stable_sets,
    independence_polynomial,
    independence_polynomial_tree,
)
from coronapoly.polynomials import IntPolynomial
from coronapoly.roots import (
    build_hk,
    count_distinct_real_roots,
    deflate_minus_one,
    multiplicity_of_minus_one,
    negative_tail_sign_check,
    root_bijection_check,
    verify_bounds,
)
from coronapoly.search import (
    conjecture2_scan,
    group_by_polynomial,
    hamidoune_scan,
    spider_uniqueness_scan,
)
from corpus import graphs_upto, trees_exactly, trees_upto, well_covered_catalog
from knowngraphs import (
    C4_PLUS_K1,
    CHAIR_POLY,
    CHAIR_TREE,
    DENSE6_A,
    DENSE6_B,
    DENSE6_POLY,
    EQUAL_TREES10_A,
    EQUAL_TREES10_B,
    EQUAL_TREES10_POLY,
    PAIR5_A,
    PAIR5_B,
    PAIR5_POLY,
    PAIR6_A,
    PAIR6_B,
    PAIR6_POLY,
    TREE8_NONREAL,
    TREE8_NONREAL_POLY,
    TREE10_REALROOTED,
    TREE10_REALROOTED_POLY,
)
from oracles import count_vector, root_matching_notes

NUMERIC_TOL = 1e-9


@cache
def connected_corpus():
    """Connected graphs up to 8 vertices, round-tripped through the graph6
    stream interface so the acceptance sweeps exercise real ingestion."""
    stream = io.StringIO(
        "".join(encode_graph6(g) + "\n" for g in graphs_upto(8, connected=True))
    )
    return tuple(read_graph6_stream(stream))


@cache
def corona_polys():
    """graph6 -> I(G*) computed by the decomposition engine (the third,
    independent route used by the identity criterion)."""
    return {
        encode_graph6(g): independence_polynomial(corona(g)) for g in connected_corpus()
    }


@cache
def skeleton_polys():
    return {encode_graph6(g): independence_polynomial(g) for g in connected_corpus()}


def test_criterion_01_golden_polynomials():
    golden = [
        (path_graph(3), (1, 3, 1)),
        (path_graph(4), (1, 4, 3)),
        (cycle_graph(7), (1, 7, 14, 7)),
        (TREE10_REALROOTED, TREE10_REALROOTED_POLY),
        (TREE8_NONREAL, TREE8_NONREAL_POLY),
        (PAIR5_A, PAIR5_POLY),
        (PAIR5_B, PAIR5_POLY),
        (PAIR6_A, PAIR6_POLY),
        (PAIR6_B, PAIR6_POLY),
        (CHAIR_TREE, CHAIR_POLY),
        (C4_PLUS_K1, CHAIR_POLY),
        (DENSE6_A, DENSE6_POLY),
        (DENSE6_B, DENSE6_POLY),
        (EQUAL_TREES10_A, EQUAL_TREES10_POLY),
        (EQUAL_TREES10_B, EQUAL_TREES10_POLY),
    ]
    for g, expect in golden:
        assert independence_polynomial(g).coeffs == expect
    # the factored forms of the two very well-covered tree polynomials
    x = IntPolynomial((0, 1))
    one = IntPolynomial.one()
    assert independence_polynomial(TREE10_REALROOTED) == (
        (one + x) ** 2 * IntPolynomial((1, 2)) * IntPolynomial((1, 6, 7))
    )
    assert independence_polynomial(TREE8_NONREAL) == (
        (one + x) * IntPolynomial((1, 7, 14, 9))
    )
    print(f"criterion 01 PASS: {len(golden)} golden polynomials exact")


def test_criterion_02_corona_coefficient_triple_agreement():
    checked = 0
    for g in connected_corpus():
        s = skeleton_polys()[encode_graph6(g)]
        direct = corona_polys()[encode_graph6(g)]
        assert corona_coefficients(s, g.n) == direct
        assert corona_polynomial_identity(s, g.n) == direct
        checked += 1
    for t in trees_upto(12):
        s = independence_polynomial(t)
        direct = independence_polynomial(corona(t))
        assert corona_coefficients(s, t.n) == direct
        assert corona_polynomial_identity(s, t.n) == direct
        assert independence_polynomial_tree(corona(t)) == direct
        checked += 1
    print(f"criterion 02 PASS: triple agreement on {checked} skeletons")


def test_criterion_03_inverse_round_trip():
    rng = random.Random(20240517)
    for _ in range(1000):
        n = rng.randint(0, 12)
        a = rng.randint(0, n)
        s = IntPolynomial([1] + [rng.randint(0, 50) for _ in range(a)])
        t = corona_coefficients(s, n)
        assert inverse_corona_coefficients(t, n) == s
    print("criterion 03 PASS: 1000 exact inverse round-trips, n <= 12")


def test_criterion_04_coefficient_inequalities():
    checked = 0
    for g in connected_corpus():
        t = corona_coefficients(skeleton_polys()[encode_graph6(g)], g.n)
        assert coefficient_monotonicity_check(t)
        checked += 1
    for t_ in trees_upto(12):
        t = corona_coefficients(independence_polynomial(t_), t_.n)
        assert coefficient_monotonicity_check(t)
        checked += 1

    stated_range_checked = 0
    stronger_range_holds = 0
    stronger_range_cases = 0
    pairwise_checked = 0
    for g in well_covered_catalog(10):
        p = independence_polynomial(g)
        a = p.degree
        # pairwise inequality C(a-i, j-i) s_i <= C(j, i) s_j
        for i in range(1, a + 1):
            for j in range(i, a + 1):
                assert comb(a - i, j - i) * p.coeff(i) <= comb(j, i) * p.coeff(j), (
                    encode_graph6(g), i, j,
                )
                pairwise_checked += 1
        # successive growth, asserted on the stated range only
        for k in range(1, a + 1):
            if 2 * k <= a - 1:
                assert p.coeff(k - 1) <= p.coeff(k), (encode_graph6(g), k)
                stated_range_checked += 1
            elif 2 * k <= a + 1:
                stronger_range_cases += 1
                if p.coeff(k - 1) <= p.coeff(k):
                    stronger_range_holds += 1
    print(
        f"criterion 04 PASS: monotone corona prefixes on {checked} skeletons; "
        f"{pairwise_checked} pairwise and {stated_range_checked} successive "
        f"inequalities exact on {len(well_covered_catalog(10))} well-covered graphs "
        f"(logged, not asserted: extended-range growth held in "
        f"{stronger_range_holds}/{stronger_range_cases} cases)"
    )


def test_criterion_05_stable_set_count_divisibility():
    checked = 0
    for g in graphs_upto(8):
        if g.num_edges == 0:
            continue
        if encode_graph6(g) in corona_polys():
            count = corona_polys()[encode_graph6(g)](1)
        else:
            count = independence_polynomial(corona(g))(1)
        power = g.n - alpha(g)
        assert power >= 1
        assert count % (1 << power) == 0, encode_graph6(g)
        checked += 1
    for n in range(2, 11):
        assert spider_polynomial(n)(1) == 2 * (3**n + 2 ** (n - 1))
    print(
        f"criterion 05 PASS: 2^(n-alpha) divisibility on {checked} graphs; "
        f"spider counts exact for 2 <= n <= 10"
    )


def test_criterion_06_functional_identity():
    rng = random.Random(987654321)
    graphs = [g for g in connected_corpus() if g.n <= 7]
    checked = 0
    for g in graphs:
        n = g.n
        p = skeleton_polys()[encode_graph6(g)]
        q = corona_polys()[encode_graph6(g)]
        assert q(-2) == (-1) ** n * p(2), encode_graph6(g)
        points = 0
        while points < 50:
            x = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            if x in (0, -1):
                continue
            lhs = x**n * q(1 / x)
            rhs = (1 + x) ** n * p(1 / (1 + x))
            assert lhs == rhs, (encode_graph6(g), x)
            points += 1
        checked += 1
    print(
        f"criterion 06 PASS: functional identity exact at 50 random rational "
        f"points on {checked} connected graphs (n <= 7), plus the x=-2 "
        f"specialization"
    )


def test_criterion_07_multiplicity_of_minus_one():
    checked = 0
    for g in connected_corpus():
        if g.num_edges == 0:
            continue
        m = multiplicity_of_minus_one(corona_polys()[encode_graph6(g)])
        assert m == g.n - alpha(g), encode_graph6(g)
        checked += 1
    print(f"criterion 07 PASS: multiplicity of -1 equals n - alpha on {checked} graphs")


def test_criterion_08_root_bijection():
    # the exact identity, cross-checked root by root against the interval
    # and numeric matching of the oracle
    checked = 0
    for g in connected_corpus():
        if g.n > 7:
            continue
        g6 = encode_graph6(g)
        report = root_bijection_check(g)
        assert report.passed, (g6, report.notes)
        deflated = deflate_minus_one(corona_polys()[g6])
        notes = root_matching_notes(skeleton_polys()[g6], deflated, NUMERIC_TOL)
        assert not notes, (g6, notes)
        checked += 1
    print(f"criterion 08 PASS: root bijection verified on {checked} connected graphs (n <= 7)")


def test_criterion_09_iterated_corona_roots():
    seed = complete_graph(2)
    for k in range(1, 5):
        h, ok = build_hk(seed, k)
        assert ok, k
        assert h.n == 2 ** (k + 1)
        assert independence_polynomial_tree(h)(Fraction(-1, k)) == 0
    print("criterion 09 PASS: I(H_k; -1/k) = 0 exactly for k = 1..4 (up to 32 vertices)")


def test_criterion_10_no_corona_root_below_minus_one():
    checked = 0
    samples = (Fraction(-3, 2), Fraction(-2), Fraction(-13, 4))
    rng = random.Random(424242)
    spot = {rng.randrange(len(connected_corpus())) for _ in range(400)}
    for idx, g in enumerate(connected_corpus()):
        if g.num_edges == 0:
            continue
        q = corona_polys()[encode_graph6(g)]
        assert count_distinct_real_roots(q, None, Fraction(-1), include_hi=False) == 0
        want_negative = g.n % 2 == 1
        for x in samples:
            v = q(x)
            assert v != 0 and (v < 0) == want_negative, (encode_graph6(g), x)
        if idx in spot:
            assert negative_tail_sign_check(g, samples)
        checked += 1
    print(
        f"criterion 10 PASS: Sturm certificates (no corona root < -1) and "
        f"(-1)^n sign checks on {checked} graphs"
    )


def test_criterion_11_root_location_bounds():
    annulus_checked = 0
    window_checked = real_window_checked = 0
    for g in graphs_upto(8):
        if g.n < 2:
            continue
        report = verify_bounds(g)
        for name in ("xi_max_window", "modulus_floor", "smallest_modulus_real_unique"):
            assert report.bounds[name].passed, (encode_graph6(g), name)
        window_checked += 1
        annulus = report.bounds["annulus"]
        if annulus.applicable:
            assert annulus.passed, (encode_graph6(g), annulus)
            annulus_checked += 1
        rw = report.bounds["real_window"]
        if rw.applicable:
            assert rw.passed, encode_graph6(g)
            real_window_checked += 1
    for g in well_covered_catalog(10):
        if g.n <= 8:
            continue  # already swept above
        b = verify_bounds(g).bounds["annulus"]
        assert b.applicable and b.passed, (encode_graph6(g), b)
        annulus_checked += 1
    print(
        f"criterion 11 PASS: annulus on {annulus_checked} well-covered graphs "
        f"(boundary only for complete); xi_max/modulus-floor/smallest-modulus "
        f"on {window_checked} graphs (2 <= n <= 8); [-1, -1/n) real window on "
        f"{real_window_checked} applicable graphs"
    )


def test_criterion_12_well_covered_tree_root_window():
    checked = 0
    for k in range(2, 9):
        for skeleton in trees_exactly(k):
            t = corona(skeleton)
            n = t.n
            p = independence_polynomial_tree(t)
            # xi_min = -1 exactly: -1 is a root and nothing lies below it
            assert multiplicity_of_minus_one(p) >= 1
            assert count_distinct_real_roots(p, None, Fraction(-1), include_hi=False) == 0
            # -1/2 <= xi_max < -1/n certified exactly
            assert count_distinct_real_roots(p, Fraction(-1, 2), Fraction(0), True, False) >= 1
            assert count_distinct_real_roots(p, Fraction(-1, n), None, True, True) == 0
            checked += 1
    print(
        f"criterion 12 PASS: xi_min = -1 and -1/2 <= xi_max < -1/n exact on "
        f"{checked} well-covered trees (4..16 vertices)"
    )


def test_criterion_13_equal_polynomial_trees_on_ten_vertices():
    trees = trees_exactly(10)
    assert len(trees) == 106
    report = group_by_polynomial(trees)
    hits = [c for c in report.classes if c.coefficients == EQUAL_TREES10_POLY]
    assert len(hits) == 1
    cls = hits[0]
    assert len(cls.members) >= 2
    assert cls.all_isomorphic is False
    codes = {canonical_code(t) for t in (EQUAL_TREES10_A, EQUAL_TREES10_B)}
    from coronapoly.graphs import parse_graph6

    member_codes = {canonical_code(parse_graph6(m)) for m in cls.members}
    assert codes <= member_codes
    print(
        f"criterion 13 PASS: the {len(cls.members)}-member non-isomorphic class "
        f"with polynomial {IntPolynomial(EQUAL_TREES10_POLY)} found among 106 trees"
    )


def test_criterion_14_spider_characterization():
    for n in range(2, 11):
        assert spider_polynomial(n).coeffs == count_vector(corona(star_graph(n)))
    report = spider_uniqueness_scan(8)
    assert report.violations == []
    assert [n for n, _ in report.matches] == list(range(2, 9))

    characterized = 0
    for g in connected_corpus():
        if g.num_edges == 0:
            continue
        m = multiplicity_of_minus_one(corona_polys()[encode_graph6(g)])
        assert (m == 1) == is_star(g), encode_graph6(g)
        characterized += 1
    print(
        f"criterion 14 PASS: spider polynomials match brute enumeration (n <= 10); "
        f"uniqueness scan clean over {report.skeletons_checked} skeletons; "
        f"multiplicity-1 star characterization on {characterized} connected skeletons"
    )


def test_criterion_15_conjecture_evidence_scans():
    graphs7 = [g for g in connected_corpus() if g.n <= 7]
    c2 = conjecture2_scan(graphs7, max_tree_order=14)
    assert c2.clean
    assert c2.supporting_matches > 0

    claw_free = [g for g in connected_corpus() if is_claw_free(g)]
    ham = hamidoune_scan(claw_free)
    assert ham.clean
    assert ham.claw_free_count == len(claw_free)
    print(
        f"criterion 15 PASS (evidence only): tree-polynomial scan clean on "
        f"{c2.graphs_scanned} connected graphs (n <= 7, {c2.supporting_matches} "
        f"supporting matches); real-rootedness clean on {ham.claw_free_count} "
        f"claw-free graphs (n <= 8)"
    )


def test_counting_corollary_parity():
    # stable-set counts of well-covered trees are even except for K_2;
    # odd counts do occur for other trees
    from coronapoly.search import well_covered_trees

    for t in well_covered_trees(14):
        count = count_stable_sets(t)
        if t.n == 2:
            assert count == 3
        elif t.n >= 2:
            assert count % 2 == 0
    assert count_stable_sets(path_graph(3)) == 5
    assert count_stable_sets(PAIR6_A) == 24
    print("corollary PASS: stable-set parity for well-covered trees up to 14 vertices")
