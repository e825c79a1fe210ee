"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored lowest degree first with no trailing zeros, so
``coeffs[k]`` is the count of stable sets of size k when the polynomial
comes from a graph.  All arithmetic is exact: coefficients are Python
ints, and evaluation accepts any ring element (int, Fraction, float,
complex).  The zero polynomial has an empty coefficient tuple and
degree -1.  The module-level functions are the one integer kernel: they
work on raw coefficient tuples, for the pivot engine and the root core.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from collections.abc import Iterable, Sequence

Coeffs = tuple[int, ...]


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def primitive(a: Coeffs) -> Coeffs:
    """Divide out the content; every coefficient keeps its sign."""
    g = gcd(*a)
    return a if g <= 1 else tuple(c // g for c in a)


def prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive part of a positive multiple of the remainder of a by b:
    each step scales by |lc(b)|, never lc(b), so Sturm signs survive."""
    db, scale, sign = len(b) - 1, abs(b[-1]), (1 if b[-1] > 0 else -1)
    r = list(a)
    while len(r) > db:
        c = sign * r.pop()
        if c:
            k = len(r) - db
            if scale != 1:
                r = [scale * x for x in r]
            for i in range(db):
                r[k + i] -= c * b[i]
    return primitive(_strip(r))


def exact_div(a: Coeffs, b: Coeffs) -> Coeffs:
    """a / b for a primitive b dividing a, integral by Gauss's lemma;
    raises ValueError when b does not divide a."""
    db = len(b) - 1
    r, q = list(a), []
    while len(r) > db:
        c, rem = divmod(r.pop(), b[-1])
        if rem:
            raise ValueError("inexact polynomial division")
        k = len(r) - db
        for i in range(db):
            r[k + i] -= c * b[i]
        q.append(c)
    if any(r):
        raise ValueError("inexact polynomial division")
    return tuple(reversed(q))


def sign_at(a: Coeffs, x) -> int:
    """Sign of the polynomial at a rational x = u/v (int or Fraction), by
    integer Horner on the homogeneous form sum a_k u^k v^(d-k), v > 0."""
    u, v = x.numerator, x.denominator
    acc, vk = 0, 1
    for c in reversed(a):
        acc = acc * u + c * vk
        vk *= v
    return (acc > 0) - (acc < 0)


class IntPolynomial:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", _strip(cs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    # -- basic structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        """Coefficient of x^k (0 beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(add(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        return IntPolynomial(mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact when x is an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- integer-ring utilities --------------------------------------------

    def content(self) -> int:
        """GCD of the coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content; sign of the leading coefficient is kept."""
        return IntPolynomial(primitive(self.coeffs))

    # -- serialization ----------------------------------------------------

    def to_json_coeffs(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Iterable) -> "IntPolynomial":
        return cls([int(v) for v in items])

    def __str__(self) -> str:
        """Human-readable form such as ``1 + 4x + 3x^2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def evaluate_exact(p: IntPolynomial, x) -> Fraction:
    """Exact value of p at a rational point."""
    return Fraction(p(Fraction(x)))
