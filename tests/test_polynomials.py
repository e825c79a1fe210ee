import random
from fractions import Fraction

import pytest

from coronapoly.polynomials import (
    IntPolynomial,
    add,
    evaluate_exact,
    exact_div,
    mul,
    prem,
    primitive,
    sign_at,
)


def test_ring_ops():
    p = IntPolynomial((1, 2))
    q = IntPolynomial((1, 1))
    assert (p * q).coeffs == (1, 3, 2)
    assert (p + q).coeffs == (2, 3)
    assert (p - q).coeffs == (0, 1)
    assert (p * IntPolynomial.one()) == p
    assert (p * IntPolynomial.zero()).coeffs == ()
    assert (-p).coeffs == (-1, -2)
    assert (3 * p).coeffs == (3, 6)


def test_trailing_zeros_stripped():
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert IntPolynomial((0, 0)).degree == -1
    assert not IntPolynomial(())


def test_pow_and_shift():
    one_plus_x = IntPolynomial((1, 1))
    assert (one_plus_x ** 4).coeffs == (1, 4, 6, 4, 1)
    assert one_plus_x.shift(2).coeffs == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        one_plus_x ** -1


def test_evaluation():
    p = IntPolynomial((1, 4, 3))
    assert p(0) == 1
    assert p(1) == 8
    assert p(-1) == 0
    assert p(Fraction(-1, 3)) == Fraction(0)
    assert evaluate_exact(p, Fraction(1, 2)) == Fraction(15, 4)
    assert isinstance(evaluate_exact(p, 2), Fraction)


def test_derivative_and_content():
    p = IntPolynomial((2, 4, 6))
    assert p.derivative().coeffs == (4, 12)
    assert p.content() == 2
    assert p.primitive_part().coeffs == (1, 2, 3)
    assert IntPolynomial((-2, -4)).primitive_part().coeffs == (-1, -2)


def test_str_forms():
    assert str(IntPolynomial((1, 4, 3))) == "1 + 4x + 3x^2"
    assert str(IntPolynomial((1, 3, 1))) == "1 + 3x + x^2"
    assert str(IntPolynomial((0, 1))) == "x"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((1, -2, 0, 5))) == "1 - 2x + 5x^3"


def test_json_round_trip():
    p = IntPolynomial((1, 10, 36, 58, 42, 12, 1))
    assert p.to_json_coeffs() == ["1", "10", "36", "58", "42", "12", "1"]
    assert IntPolynomial.from_json_coeffs(p.to_json_coeffs()) == p


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPolynomial((1.5, 2))


def test_coeff_beyond_degree_is_zero():
    p = IntPolynomial((1, 2))
    assert p.coeff(5) == 0
    assert p.coeff(1) == 2


# -- the integer kernel --------------------------------------------------------


def _rational_rem_sign(a, b):
    """Signs of the coefficients of the remainder of a by b over Q."""
    r = [Fraction(c) for c in a]
    for k in range(len(r) - len(b), -1, -1):
        c = r[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    r = r[: len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return [(c > 0) - (c < 0) for c in r]


def test_kernel_ring_ops_strip():
    assert add((1, 2, 3), (1, 0, -3)) == (2, 2)
    assert add((1, -1), (-1, 1)) == ()
    assert mul((1, 1), (1, -1)) == (1, 0, -1)
    assert mul((), (1, 2)) == ()


def test_primitive_keeps_signs():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((-4, -6)) == (-2, -3)
    assert primitive((3, 5)) == (3, 5)
    assert primitive(()) == ()


def test_prem_keeps_sign_with_negative_leading_coefficient():
    # (x + 1) mod (-2x) is +1 over Q; scaling by lc = -2 would flip it
    assert prem((1, 1), (0, -2)) == (1,)
    # (x^3 + 2) mod (-3x^2 + x): remainder x/9 + 2 over Q
    assert prem((2, 0, 0, 1), (0, 1, -3)) == (18, 1)
    rng = random.Random(7)
    for _ in range(200):
        b = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.choice((-5, -3, -2, -1, 2, 4))]
        a = [rng.randint(-9, 9) for _ in range(rng.randint(len(b), 8))] + [rng.choice((-2, 1, 3))]
        r = prem(tuple(a), tuple(b))
        assert [(c > 0) - (c < 0) for c in r] == _rational_rem_sign(a, b)
        assert primitive(r) == r


def test_exact_div():
    assert exact_div((1, 2, 1), (1, 1)) == (1, 1)
    assert exact_div((-6, 1, 1), (-2, 1)) == (3, 1)
    assert exact_div((), (1, 1)) == ()
    with pytest.raises(ValueError):
        exact_div((1, 0, 1), (1, 1))      # nonzero remainder
    with pytest.raises(ValueError):
        exact_div((3, 10), (1, 3))        # floor steps would leave no remainder


def test_sign_at_matches_fraction_evaluation():
    rng = random.Random(11)
    for _ in range(300):
        p = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(0, 7))])
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        v = p(x)
        assert sign_at(p.coeffs, x) == (v > 0) - (v < 0)
    assert sign_at((1, 4, 3), Fraction(-1, 3)) == 0
    assert sign_at((2, -1), 3) == -1
