import random
from fractions import Fraction
from math import comb

import pytest

from coronapoly.corona import (
    centipede_coefficients_explicit,
    centipede_polynomial,
    coefficient_monotonicity_check,
    corona_coefficients,
    corona_polynomial_identity,
    divisibility_check,
    functional_identity_check,
    inverse_corona_coefficients,
    path_polynomial,
    spider_polynomial,
)
from coronapoly.errors import NotACoronaImage
from coronapoly.graphs import (
    alpha,
    complete_graph,
    corona,
    empty_graph,
    path_graph,
    star_graph,
)
from coronapoly.indpoly import independence_polynomial
from coronapoly.polynomials import IntPolynomial
from coronapoly.roots import multiplicity_of_minus_one
from corpus import graphs_upto, trees_upto
from oracles import count_vector


def test_forward_transform_examples():
    assert corona_coefficients(IntPolynomial((1, 2)), 2).coeffs == (1, 4, 3)
    # corona(K_1) = K_2: the one-vertex skeleton carries s = (1, 1)
    assert corona_coefficients(IntPolynomial((1, 1)), 1).coeffs == (1, 2)
    # a degree-0 vector at order 1 is formally valid but is no graph's s
    assert corona_coefficients(IntPolynomial((1,)), 1).coeffs == (1, 1)
    assert corona_coefficients(IntPolynomial((1,)), 0).coeffs == (1,)


def test_forward_transform_top_coefficient_is_stable_count():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 12)
        a = rng.randint(0, n)
        s = IntPolynomial([1] + [rng.randint(0, 30) for _ in range(a)])
        t = corona_coefficients(s, n)
        assert t.coeff(0) == 1
        assert t.coeff(n) == sum(s.coeffs)
        assert t.degree == n


def test_forward_transform_validation():
    with pytest.raises(ValueError):
        corona_coefficients(IntPolynomial((1, 1, 1)), 1)
    with pytest.raises(ValueError):
        corona_coefficients(IntPolynomial((2, 1)), 2)
    with pytest.raises(ValueError):
        corona_coefficients(IntPolynomial((1, -1)), 2)


def test_inverse_examples():
    assert inverse_corona_coefficients(IntPolynomial((1, 4, 3)), 2).coeffs == (1, 2)
    # formally consistent at alpha = 0 even though no 1-vertex graph fits
    assert inverse_corona_coefficients(IntPolynomial((1, 1)), 1).coeffs == (1,)
    with pytest.raises(ValueError):
        inverse_corona_coefficients(IntPolynomial((1, 1)), 2)


def test_inverse_flags_non_images():
    with pytest.raises(NotACoronaImage) as info:
        inverse_corona_coefficients(IntPolynomial((1, 0, 1)), 2)
    assert info.value.index == 1
    assert info.value.value < 0


def test_inverse_rejects_t0_other_than_one():
    # s_0 = t_0, and the forward transform rejects s_0 != 1
    for coeffs in ((2, 4, 2), (0, 1), (-1, 3, 2)):
        with pytest.raises(ValueError, match=r"must start at t_0 = 1"):
            inverse_corona_coefficients(IntPolynomial(coeffs), len(coeffs) - 1)


def test_inverse_reads_alpha_off_the_corona_polynomial():
    # the degree of the recovered vector is n minus the multiplicity of -1
    for g in graphs_upto(7):
        q = independence_polynomial(corona(g))
        s = inverse_corona_coefficients(q, g.n)
        assert s == independence_polynomial(g)
        assert s.degree == g.n - multiplicity_of_minus_one(q)


def test_inverse_of_seeded_vectors():
    # s_0 = 1, entries in -3..5, mapped forward by the binomial sum: back
    # comes s, or NotACoronaImage at its first negative entry
    rng = random.Random(53)
    negative = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        s = [1] + [rng.randint(-3, 5) for _ in range(n)]
        t = IntPolynomial(
            [sum(s[j] * comb(n - j, n - k) for j in range(k + 1)) for k in range(n + 1)]
        )
        if t.degree != n:
            continue
        first = next((k for k, c in enumerate(s) if c < 0), None)
        if first is None:
            assert inverse_corona_coefficients(t, n) == IntPolynomial(s)
        else:
            negative += 1
            with pytest.raises(NotACoronaImage) as info:
                inverse_corona_coefficients(t, n)
            assert (info.value.index, info.value.value) == (first, s[first])
    assert negative >= 200


def test_round_trip_random():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(0, 12)
        a = rng.randint(0, n)
        s = IntPolynomial([1] + [rng.randint(0, 9) for _ in range(a)])
        t = corona_coefficients(s, n)
        assert inverse_corona_coefficients(t, n) == s


def test_identity_route_examples():
    # corona of a complete graph: (1+x)^(n-1) (1 + (n+1)x)
    for n in range(1, 8):
        lhs = corona_polynomial_identity(IntPolynomial((1, n)), n)
        rhs = IntPolynomial((1, 1)) ** (n - 1) * IntPolynomial((1, n + 1))
        assert lhs == rhs
    assert corona_polynomial_identity(IntPolynomial((1,)), 0).coeffs == (1,)


def test_identity_route_agrees_with_summation():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(0, 10)
        a = rng.randint(0, n)
        s = IntPolynomial([1] + [rng.randint(0, 9) for _ in range(a)])
        assert corona_polynomial_identity(s, n) == corona_coefficients(s, n)


def test_identity_route_divisible_by_one_plus_x_power():
    rng = random.Random(53)
    one_plus_x = IntPolynomial((1, 1))
    for _ in range(50):
        n = rng.randint(1, 9)
        a = rng.randint(0, n)
        s = IntPolynomial([1] + [rng.randint(0, 9) for _ in range(a)])
        t = corona_polynomial_identity(s, n)
        cofactor = sum(
            (
                (one_plus_x ** (s.degree - k)).shift(k) * s.coeff(k)
                for k in range(s.degree + 1)
            ),
            IntPolynomial.zero(),
        )
        assert t == one_plus_x ** (n - s.degree) * cofactor


def test_triple_agreement_small():
    for g in graphs_upto(6, connected=True):
        s = independence_polynomial(g)
        direct = independence_polynomial(corona(g))
        assert corona_coefficients(s, g.n) == direct
        assert corona_polynomial_identity(s, g.n) == direct


def test_functional_identity():
    k2 = complete_graph(2)
    assert functional_identity_check(k2, 1)
    assert functional_identity_check(k2, Fraction(3, 7))
    with pytest.raises(ValueError):
        functional_identity_check(k2, 0)
    with pytest.raises(ValueError):
        functional_identity_check(k2, -1)
    rng = random.Random(59)
    graphs = graphs_upto(6, connected=True)
    for _ in range(100):
        g = rng.choice(graphs)
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if x in (0, -1):
            continue
        assert functional_identity_check(g, x)


def test_spider_polynomial():
    assert spider_polynomial(2).coeffs == (1, 6, 10, 5)
    assert spider_polynomial(2) == IntPolynomial((1, 1)) * IntPolynomial((1, 5, 5))
    for n in range(2, 11):
        assert spider_polynomial(n)(1) == 2 * (3**n + 2 ** (n - 1))
    for n in range(2, 9):
        assert spider_polynomial(n) == independence_polynomial(corona(star_graph(n)))
    with pytest.raises(ValueError):
        spider_polynomial(1)


def test_centipede_polynomial():
    assert centipede_polynomial(0).coeffs == (1,)
    assert centipede_polynomial(1).coeffs == (1, 2)
    assert centipede_polynomial(2).coeffs == (1, 4, 3)
    for n in range(0, 15):
        assert centipede_polynomial(n) == centipede_coefficients_explicit(n)
    for n in range(1, 15):
        assert centipede_polynomial(n) == independence_polynomial(corona(path_graph(n)))
    with pytest.raises(ValueError):
        centipede_polynomial(-1)


def test_path_polynomial():
    assert path_polynomial(3).coeffs == (1, 3, 1)
    assert path_polynomial(4).coeffs == (1, 4, 3)
    for n in range(1, 21):
        assert path_polynomial(n) == independence_polynomial(path_graph(n))
    with pytest.raises(ValueError):
        path_polynomial(0)


def test_monotonicity_check():
    assert coefficient_monotonicity_check(IntPolynomial((1, 4, 3)))
    assert coefficient_monotonicity_check(IntPolynomial((1,)))
    assert not coefficient_monotonicity_check(IntPolynomial((2, 1, 5)))
    for g in graphs_upto(6):
        t = corona_coefficients(independence_polynomial(g), g.n)
        assert coefficient_monotonicity_check(t)


def test_divisibility():
    assert divisibility_check(complete_graph(2)) == (8, 1, True)
    count, power, ok = divisibility_check(star_graph(2))
    assert (count, power, ok) == (22, 1, True)
    with pytest.raises(ValueError):
        divisibility_check(empty_graph(3))
    for g in graphs_upto(6):
        if g.num_edges == 0:
            continue
        count, power, ok = divisibility_check(g)
        assert ok and power == g.n - alpha(g)


def test_spider_against_brute_counts():
    for n in range(2, 7):
        assert spider_polynomial(n).coeffs == count_vector(corona(star_graph(n)))


def test_centipede_trees_against_tree_dp():
    from coronapoly.indpoly import independence_polynomial_tree

    for n in range(1, 13):
        assert centipede_polynomial(n) == independence_polynomial_tree(corona(path_graph(n)))


def test_transform_matches_trees():
    for t in trees_upto(9):
        s = independence_polynomial(t)
        assert corona_coefficients(s, t.n) == independence_polynomial(corona(t))
