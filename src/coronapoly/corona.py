"""Coefficient calculus linking I(G;x) to I(G*;x), plus closed families.

Writing s_k for the coefficients of the skeleton polynomial (degree a,
order n) and t_k for those of the corona polynomial (degree n), the two
directions of the transform are

    t_k = sum_{j<=k} s_j * C(n-j, n-k)
    s_k = sum_{j<=k} (-1)^(k+j) * t_j * C(n-j, n-k)

and the generating identity is

    I(G*;x) = sum_k s_k * x^k * (1+x)^(n-k).

`corona_coefficients` and `corona_polynomial_identity` implement the two
routes independently (binomial summation vs. polynomial arithmetic) so
they can serve as mutual oracles.  The inverse needs no alpha: -1 is a
root of I(G*) of multiplicity n - alpha, so s_k is 0 for every k above
alpha.  It raises `NotACoronaImage` when a reconstructed s_k goes
negative, which is how search code detects polynomials that are not
corona images.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NotACoronaImage
from .graphs import Graph, alpha, check_order, corona
from .indpoly import independence_polynomial
from .polynomials import IntPolynomial


def corona_coefficients(s: IntPolynomial, n: int) -> IntPolynomial:
    """Corona image of a skeleton coefficient vector (binomial summation)."""
    check_order(n)      # the skeleton order, refused before the O(n^2) big-int sums
    if s.degree > n:
        raise ValueError(f"degree {s.degree} exceeds skeleton order {n}")
    if s.coeff(0) != 1:
        raise ValueError("skeleton coefficients must start at s_0 = 1")
    if any(c < 0 for c in s.coeffs):
        raise ValueError("skeleton coefficients must be nonnegative")
    t = [
        sum(s.coeff(j) * comb(n - j, n - k) for j in range(k + 1))
        for k in range(n + 1)
    ]
    return IntPolynomial(t)


def inverse_corona_coefficients(t: IntPolynomial, n: int) -> IntPolynomial:
    """Recover s_0..s_n from a corona polynomial of a skeleton of order n.

    No stability number is needed: -1 is a root of I(G*) of multiplicity
    n - alpha(G), so the coefficients above alpha come out 0, and the
    result has degree alpha.  Raises NotACoronaImage at the first
    reconstructed coefficient that is negative; that outcome is a
    diagnostic ("t is not a corona image at this n"), not a crash.
    """
    check_order(n)
    if t.degree != n:
        raise ValueError(f"degree {t.degree} != skeleton order {n}")
    if t.coeff(0) != 1:
        raise ValueError("corona coefficients must start at t_0 = 1")
    s = []
    for k in range(n + 1):
        sk = sum(
            (-1) ** (k + j) * t.coeff(j) * comb(n - j, n - k) for j in range(k + 1)
        )
        if sk < 0:
            raise NotACoronaImage(k, sk)
        s.append(sk)
    return IntPolynomial(s)


def corona_polynomial_identity(s: IntPolynomial, n: int) -> IntPolynomial:
    """Corona image via sum_k s_k x^k (1+x)^(n-k), by polynomial arithmetic."""
    if s.degree > n:
        raise ValueError(f"degree {s.degree} exceeds skeleton order {n}")
    one_plus_x = IntPolynomial((1, 1))
    total = IntPolynomial.zero()
    for k in range(s.degree + 1):
        c = s.coeff(k)
        if c:
            total = total + (one_plus_x ** (n - k)).shift(k) * c
    return total


def functional_identity_check(g: Graph, x) -> bool:
    """Exact test of x^n I(G*;1/x) = (1+x)^n I(G;1/(1+x)) at a rational x,
    together with the specialization I(G*;-2) = (-1)^n I(G;2)."""
    x = Fraction(x)
    if x == 0 or x == -1:
        raise ValueError("identity undefined at x in {-1, 0}")
    n = g.n
    p = independence_polynomial(g)
    q = independence_polynomial(corona(g))
    lhs = x**n * q(1 / x)
    rhs = (1 + x) ** n * p(1 / (1 + x))
    specialization = q(-2) == (-1) ** n * p(2)
    return lhs == rhs and specialization


# -- closed families ------------------------------------------------------


def path_polynomial(n: int) -> IntPolynomial:
    """I(P_n) by the explicit binomial form: coefficient j is C(n+1-j, j)."""
    if n < 1:
        raise ValueError("path polynomial needs n >= 1")
    return IntPolynomial([comb(n + 1 - j, j) for j in range((n + 1) // 2 + 1)])


def spider_polynomial(n: int) -> IntPolynomial:
    """I of the spider corona(K_{1,n}) for n >= 2:
    (1+x) * (1 + sum_k [C(n,k) 2^k + C(n-1,k-1)] x^k)."""
    if n < 2:
        raise ValueError("spider polynomial needs n >= 2")
    cofactor = IntPolynomial(
        [1] + [comb(n, k) * 2**k + comb(n - 1, k - 1) for k in range(1, n + 1)]
    )
    return IntPolynomial((1, 1)) * cofactor


def centipede_polynomial(n: int) -> IntPolynomial:
    """I of the centipede corona(P_n) by the recurrence
    W_n = (1+x)(W_{n-1} + x W_{n-2}),  W_0 = 1, W_1 = 1 + 2x."""
    if n < 0:
        raise ValueError("centipede polynomial needs n >= 0")
    prev = IntPolynomial.one()
    if n == 0:
        return prev
    cur = IntPolynomial((1, 2))
    one_plus_x = IntPolynomial((1, 1))
    for _ in range(n - 1):
        prev, cur = cur, one_plus_x * (cur + prev.shift(1))
    return cur


def centipede_coefficients_explicit(n: int) -> IntPolynomial:
    """Second route to I(corona(P_n)): t_k = sum_j C(n-j, n-k) C(n+1-j, j)."""
    if n < 0:
        raise ValueError("centipede coefficients need n >= 0")
    t = [
        sum(comb(n - j, n - k) * comb(n + 1 - j, j) for j in range(k + 1))
        for k in range(n + 1)
    ]
    return IntPolynomial(t)


# -- per-graph checks -------------------------------------------------------


def coefficient_monotonicity_check(t: IntPolynomial) -> bool:
    """t_0 <= t_1 <= ... <= t_ceil(n/2) for a corona polynomial t of a
    skeleton of order n, which is deg t."""
    top = -(-t.degree // 2)
    return all(t.coeff(k) <= t.coeff(k + 1) for k in range(top))


def divisibility_check(g: Graph) -> tuple[int, int, bool]:
    """(stable-set count of G*, n - alpha(G), whether 2^power divides it).

    Requires at least one edge, which forces power >= 1.
    """
    if g.num_edges == 0:
        raise ValueError("divisibility statement requires a graph with an edge")
    count = independence_polynomial(corona(g))(1)
    power = g.n - alpha(g)
    return count, power, count % (1 << power) == 0
