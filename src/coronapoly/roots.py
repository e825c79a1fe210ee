"""Root analysis with an exact real side and a numeric complex side.

Real roots are certified in integer arithmetic alone: a pseudo-remainder
primitive PRS gives the Sturm chains and the gcds behind Yun's
square-free decomposition (scaling by |lc|, never lc, keeps the signs),
and every sign test is a homogeneous integer evaluation at a rational
point.  Fractions appear only as interval endpoints.  Every half-open
membership test that appears in a bound (for instance
xi_max < -1/(2n-1)) compares an isolated extreme root with the rational,
never a float.

Each polynomial gets one root pass (``root_report``): one exact isolation
and one deterministic Aberth run per Yun factor.  The exact intervals
decide realness, with no float threshold: a factor's approximations
nearest the axis must fall one in each of its intervals, and the others
must split evenly across the axis and are reported as exact conjugate
pairs.  A mismatch raises RootConvergenceError.

Complex-root checks are numeric only: the report schema marks them as
"numeric-residual" certification, in contrast to the exact real side.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .corona import corona_polynomial_identity
from .errors import ResourceLimitError, RootConvergenceError
from .graphs import (
    Graph,
    alpha,
    complement,
    corona,
    girth,
    is_connected,
    is_tree,
    is_well_covered,
)
from .indpoly import FOREST_LIMIT, independence_polynomial, independence_polynomial_tree
from .polynomials import IntPolynomial, exact_div, prem, primitive, sign_at

# -- exact (1+x) structure ----------------------------------------------------


def multiplicity_of_minus_one(p: IntPolynomial) -> int:
    """Largest m with (1+x)^m dividing p (0 for the zero-free case)."""
    if not p:
        raise ValueError("zero polynomial")
    m = 0
    q = p.coeffs
    while len(q) > 1 and sign_at(q, -1) == 0:
        q = exact_div(q, (1, 1))
        m += 1
    return m


def deflate_minus_one(p: IntPolynomial) -> IntPolynomial:
    """p / (1+x)^m with m = multiplicity_of_minus_one(p); exact quotient."""
    q = p.coeffs
    for _ in range(multiplicity_of_minus_one(p)):
        q = exact_div(q, (1, 1))
    return IntPolynomial(q)


# -- gcd and square-free structure on the integer kernel ---------------------


def _gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """A primitive gcd by the primitive PRS (its sign is not normalised)."""
    x, y = a.coeffs, b.coeffs
    while y:
        x, y = y, prem(x, y)
    return IntPolynomial(primitive(x))


def _quo(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    return IntPolynomial(exact_div(a.coeffs, b.coeffs))


def _normal(f: IntPolynomial) -> IntPolynomial:
    """Primitive with positive leading coefficient."""
    f = f.primitive_part()
    return -f if f.leading < 0 else f


@lru_cache(maxsize=4096)
def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if not p:
        raise ValueError("zero polynomial")
    return _normal(_quo(p, _gcd(p, p.derivative())))


@lru_cache(maxsize=4096)
def _yun_cached(p: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
    return tuple(_yun(p))


def square_free_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun's algorithm: [(f_i, i)] with p proportional to prod f_i^i, the
    f_i square-free, pairwise coprime, primitive with positive leading
    coefficient.  Trivial factors are omitted."""
    return list(_yun_cached(p))


def _yun(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    # c and d are always divided by the same factor, so d - c' is taken
    # at one common scale, as over the rationals
    dp = p.derivative()
    g = _gcd(p, dp)
    c = _quo(p, g)
    d = _quo(dp, g) - c.derivative()
    out = []
    i = 1
    while c.degree >= 1:
        f = _gcd(c, d)
        if f.degree >= 1:
            out.append((_normal(f), i))
        c = _quo(c, f)
        d = _quo(d, f) - c.derivative()
        i += 1
    return out


# -- Sturm chains ----------------------------------------------------------


@lru_cache(maxsize=4096)
def _sturm_chain_cached(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    f0 = p.primitive_part()
    chain = [f0]
    f1 = f0.derivative().primitive_part()
    if f1:
        chain.append(f1)
        while True:
            r = prem(chain[-2].coeffs, chain[-1].coeffs)
            if not r:
                break
            chain.append(-IntPolynomial(r))
    return tuple(chain)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Signed remainder chain of (p, p'), each element reduced to its
    primitive part (positive scaling only, so the sign pattern survives)."""
    return list(_sturm_chain_cached(p))


def _variations_at(chain: list[IntPolynomial], x: Fraction | None, sign_at_infinity: int) -> int:
    """Sign variations at x, or at -inf/+inf when x is None (sign_at_infinity = -1/+1)."""
    if x is not None:
        signs = [s for s in (sign_at(f.coeffs, x) for f in chain) if s]
    else:
        signs = [
            (1 if f.leading > 0 else -1) * (sign_at_infinity if f.degree % 2 else 1)
            for f in chain
        ]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_distinct_real_roots(
    p: IntPolynomial,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    include_lo: bool = True,
    include_hi: bool = True,
) -> int:
    """Number of distinct real roots in the interval (None endpoint = infinite).

    Exact: V(lo) - V(hi) counts the roots in (lo, hi], as the sign
    variations at a root equal those just right of it, and the flags add
    a root at lo or drop one at hi, so half-open checks like "no root in
    [a, b)" are certified by integer arithmetic alone.
    """
    if not p:
        raise ValueError("zero polynomial")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("empty interval")
    q = square_free_part(p)
    if q.degree < 1:
        return 0
    if lo is not None and lo == hi:
        return int(include_lo and include_hi and sign_at(q.coeffs, lo) == 0)
    chain = sturm_chain(q)
    count = _variations_at(chain, lo, -1) - _variations_at(chain, hi, +1)
    if include_lo and lo is not None and sign_at(q.coeffs, lo) == 0:
        count += 1
    if not include_hi and hi is not None and sign_at(q.coeffs, hi) == 0:
        count -= 1
    return count


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """All roots satisfy |z| < 1 + max |a_i| / |lead|."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def isolate_real_roots(p: IntPolynomial) -> list[tuple[tuple[Fraction, Fraction], int]]:
    """Disjoint isolating intervals for the distinct real roots, with
    multiplicities from the square-free structure.

    Exact rational roots come back as degenerate intervals [r, r]; the
    others as open intervals whose endpoints are not roots.
    """
    if not p:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    q = square_free_part(p)
    chain = sturm_chain(q)
    var_cache: dict[Fraction, int] = {}

    def is_root(x: Fraction) -> bool:
        return sign_at(q.coeffs, x) == 0

    def var(x: Fraction) -> int:
        if x not in var_cache:
            var_cache[x] = _variations_at(chain, x, 0)
        return var_cache[x]

    def inside(a: Fraction, b: Fraction) -> int:
        # V(a) - V(b) counts roots in (a, b]; drop b when it is itself a root
        # (V at a root equals V just right of it, so a is never counted)
        return var(a) - var(b) - is_root(b)

    bound = cauchy_root_bound(q)
    intervals: list[tuple[Fraction, Fraction]] = []
    exact: list[Fraction] = []
    zero = Fraction(0)
    if is_root(zero):
        exact.append(zero)
    # split at 0 up front so intervals never straddle the origin
    stack = [
        (-bound, zero, inside(-bound, zero)),
        (zero, bound, inside(zero, bound)),
    ]
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
    out: list[tuple[tuple[Fraction, Fraction], int]] = []
    for r in exact:
        mult = next(m for f, m in yun if sign_at(f.coeffs, r) == 0)
        out.append(((r, r), mult))
    for lo, hi in intervals:
        # every factor divides q and no endpoint is a root of q, so only
        # the factor holding the root changes sign across the interval
        mult = next(m for f, m in yun if sign_at(f.coeffs, lo) != sign_at(f.coeffs, hi))
        out.append(((lo, hi), mult))
    out.sort(key=lambda item: (item[0][0], item[0][1]))
    return out


def refine_root_interval(
    f: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a square-free f by sign bisection."""
    if lo == hi:
        return lo, hi
    slo = sign_at(f.coeffs, lo)
    if slo == 0 or sign_at(f.coeffs, hi) == 0:
        raise ValueError("endpoints must not be roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = sign_at(f.coeffs, mid)
        if smid == 0:
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def all_roots_real(p: IntPolynomial) -> bool:
    """Exact verdict: Sturm-counted real roots weighted by square-free
    multiplicity exhaust the degree."""
    if not p:
        raise ValueError("zero polynomial")
    total = 0
    for f, m in square_free_decomposition(p):
        total += m * count_distinct_real_roots(f)
    return total == p.degree


# -- numeric roots -------------------------------------------------------------


_INIT_ANGLE_OFFSET = math.sqrt(2.0)  # fixed irrational rotation, no RNG
_MAX_SWEEPS = 1000


def numeric_roots(p: IntPolynomial, tol: float = 1e-12) -> list[complex]:
    """Aberth simultaneous approximation of all roots (degree entries).

    Deterministic: starts on the Cauchy-bound circle rotated by a fixed
    irrational angle.  Convergence per root is declared when either the
    correction falls below tol or the residual reaches the evaluation
    noise floor (which is the best achievable at a multiple root).  One
    last correction sweep then moves every root, those frozen at the noise
    floor included, and every approximation is validated against a
    coefficient-scaled residual.  Nothing is made real or conjugate here;
    ``root_report`` decides that from the exact isolation.
    """
    d = p.degree
    if d < 1:
        raise ValueError("need degree >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    top = max(abs(c) for c in p.coeffs)
    a = [float(Fraction(c, top)) for c in p.coeffs]
    lead = abs(a[-1])
    radius = 1.0 + max(abs(c) for c in a[:-1]) / lead if d >= 1 else 1.0
    z = [
        radius * cmath.exp(1j * (2 * math.pi * k / d + _INIT_ANGLE_OFFSET))
        for k in range(d)
    ]
    eps = 2.0 ** -52

    def eval_both(x: complex) -> tuple[complex, complex, float]:
        pv = 0 + 0j
        dv = 0 + 0j
        scale = 0.0
        ax = abs(x)
        for c in reversed(a):
            dv = dv * x + pv
            pv = pv * x + c
            scale = scale * ax + abs(c)
        return pv, dv, scale

    def correction(j: int, w: complex) -> complex:
        """Aberth's correction of z[j], given its Newton step w = p/p'."""
        s = 0 + 0j
        for k in range(d):
            if k != j:
                diff = z[j] - z[k]
                if diff != 0:
                    s += 1 / diff
        denom = 1 - w * s
        return w if denom == 0 else w / denom

    converged = [False] * d
    for _ in range(_MAX_SWEEPS):
        done = True
        for j in range(d):
            if converged[j]:
                continue
            pv, dv, scale = eval_both(z[j])
            if abs(pv) <= 8 * eps * scale:
                converged[j] = True
                continue
            if dv == 0:
                z[j] *= 1.0 + 1e-8 + 1e-8j
                done = False
                continue
            step = correction(j, pv / dv)
            z[j] -= step
            if abs(step) <= tol * max(1.0, abs(z[j])):
                converged[j] = True
            else:
                done = False
        if done:
            break
    else:
        raise RootConvergenceError(
            f"no convergence after {_MAX_SWEEPS} iterations", list(z)
        )

    for j in range(d):  # the last step of the roots frozen at the noise floor
        pv, dv, _ = eval_both(z[j])
        if dv != 0:
            z[j] -= correction(j, pv / dv)
    resid_tol = max(tol * 1e3, 1e-9)
    for x in z:
        pv, _, scale = eval_both(x)
        if abs(pv) > resid_tol * max(scale, 1e-300):
            raise RootConvergenceError(
                f"residual {abs(pv):.3e} above threshold at {x}", list(z)
            )
    return sorted(z, key=lambda w: (w.real, w.imag))


# -- reports -------------------------------------------------------------------


class BoundCheck(
    namedtuple("BoundCheck", "name applicable passed margin note", defaults=(None, ""))
):
    """One named bound verdict: passed is None iff not applicable; margin is
    a float or None.  Immutable."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "pass": self.passed,
            "margin": self.margin,
            "note": self.note,
        }


class RootReport:
    """Exact real-root data, numeric complex approximations, and named
    bound verdicts for one polynomial."""

    __slots__ = (
        "polynomial", "minus_one_multiplicity", "real_roots", "complex_roots",
        "real_floats", "bounds",
    )

    def __init__(
        self,
        polynomial: IntPolynomial,
        minus_one_multiplicity: int,
        real_roots: list[tuple[Fraction, Fraction, int]],
        complex_roots: list[tuple[float, float, int]],   # conjugate pairs, lower first
        real_floats: list[float],                        # one inside each real_roots interval
        bounds: dict[str, BoundCheck] | None = None,
    ):
        self.polynomial = polynomial
        self.minus_one_multiplicity = minus_one_multiplicity
        self.real_roots = real_roots
        self.complex_roots = complex_roots
        self.real_floats = real_floats
        self.bounds = {} if bounds is None else bounds

    def distinct_roots(self) -> list[tuple[complex, int]]:
        """(approximation, multiplicity) per distinct root, real ones first."""
        return [
            (complex(x), m) for x, (*_, m) in zip(self.real_floats, self.real_roots)
        ] + [(complex(re, im), m) for re, im, m in self.complex_roots]

    def to_json(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json_coeffs(),
            "minus_one_multiplicity": self.minus_one_multiplicity,
            "real_roots": [
                {"interval": [str(lo), str(hi)], "multiplicity": m}
                for lo, hi, m in self.real_roots
            ],
            "complex_roots": [
                {"re": re, "im": im, "multiplicity": m}
                for re, im, m in self.complex_roots
            ],
            "bounds": [b.to_json() for b in self.bounds.values()],
            "complex_certification": "numeric-residual",
            "real_certification": "exact-sturm",
        }


def root_report(p: IntPolynomial, tol: float = 1e-12) -> RootReport:
    """The root pass: the exact isolation of p, then one Aberth run per
    Yun factor.

    Yun's factors have distinct multiplicities, so the k intervals of
    multiplicity m hold the real roots of the factor of multiplicity m.
    Its k approximations nearest the axis, by real part, must fall one in
    each of them; a degenerate interval [r, r] gives float(r).  Its other
    approximations must split evenly across the axis, and each one above
    it is reported with its exact conjugate.  A mismatch raises
    RootConvergenceError.
    """
    real = isolate_real_roots(p)
    floats = [0.0] * len(real)
    complexes: list[tuple[float, float, int]] = []
    for f, m in square_free_decomposition(p):
        slots = [i for i, (_, mult) in enumerate(real) if mult == m]
        approx = sorted(numeric_roots(f, tol), key=lambda z: abs(z.imag))
        on_axis = sorted(approx[: len(slots)], key=lambda z: z.real)
        for i, z in zip(slots, on_axis):
            (lo, hi), _ = real[i]
            floats[i] = float(lo) if lo == hi else z.real
            if lo != hi and not lo <= z.real <= hi:
                raise RootConvergenceError(
                    f"approximation {z} of a real root lies outside [{lo}, {hi}]", approx
                )
        rest = approx[len(slots):]
        upper = sorted((z for z in rest if z.imag > 0), key=lambda z: (z.imag, z.real))
        if 2 * len(upper) != len(rest) or any(z.imag == 0 for z in rest):
            raise RootConvergenceError(
                f"the {len(rest)} nonreal approximations of a degree-{f.degree} "
                "factor do not split evenly across the real axis", approx
            )
        for z in upper:
            complexes += [(z.real, -z.imag, m), (z.real, z.imag, m)]
    return RootReport(
        polynomial=p,
        minus_one_multiplicity=multiplicity_of_minus_one(p),
        real_roots=[(lo, hi, m) for (lo, hi), m in real],
        complex_roots=complexes,
        real_floats=floats,
    )


# -- the root bijection --------------------------------------------------------


class BijectionReport:
    __slots__ = ("passed", "notes")

    def __init__(self, passed: bool, notes: list[str] | None = None):
        self.passed = passed
        self.notes = [] if notes is None else notes


def root_bijection_check(g: Graph) -> BijectionReport:
    """Verify that x -> x/(1-x) carries the roots of I(G) onto the roots of
    I(G*) other than -1, with multiplicity, and that -1 is a root of
    I(G*) of multiplicity exactly n - alpha.

    With p = I(G) of degree alpha, let h(y) = (1+y)^alpha p(y/(1+y)) =
    sum_k s_k y^k (1+y)^(alpha-k).  The check is one integer identity,
    with q = I(G*) computed by the engine on the corona itself:

        q == (1+y)^(n-alpha) * h,   deg h = alpha,   h(-1) != 0.

    Why that suffices: write p = c * prod (x - x_i)^(m_i) with
    sum m_i = alpha.  Then h(y) = c * prod ((1-x_i) y - x_i)^(m_i), and
    deg h = alpha means no x_i is 1, so h = h_top * prod (y - y_i)^(m_i)
    with y_i = x_i/(1-x_i): the roots of h are the images of the roots of
    p, with the same multiplicities.  h(-1) != 0 leaves the factor
    (1+y)^(n-alpha) as the whole -1 part of q, so the roots of q other
    than -1 are exactly those of h.  The map and its inverse
    y -> y/(1+y) have rational coefficients, so a root is real, or
    rational, iff its image is.

    q is never derived from p, or the identity would prove nothing; it
    is computed first, so the engine's cap on the corona (2n vertices)
    fires before any other work.  A failed identity gives passed=False
    with a note, never an exception.
    """
    q = independence_polynomial(corona(g))
    p = independence_polynomial(g)
    a = p.degree
    h = corona_polynomial_identity(p, a)
    notes: list[str] = []
    if q != IntPolynomial((1, 1)) ** (g.n - a) * h:
        notes.append(f"I(G*) != (1+y)^{g.n - a} h, where h(y) = (1+y)^{a} I(G; y/(1+y))")
    if h.degree != a:
        notes.append(f"deg h = {h.degree}, not alpha = {a}")
    if sign_at(h.coeffs, -1) == 0:
        notes.append("h(-1) = 0")
    return BijectionReport(not notes, notes)


# -- named bounds ---------------------------------------------------------------


def _is_complete(g: Graph) -> bool:
    return g.num_edges == g.n * (g.n - 1) // 2 and g.n >= 1


def _is_cycle7(g: Graph) -> bool:
    return g.n == 7 and all(m.bit_count() == 2 for m in g.masks) and is_connected(g)


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


def verify_bounds(g: Graph, tol: float = 1e-9) -> RootReport:
    """Evaluate every applicable named root-location bound for I(G).

    Bounds (margins are slack before violation; negative means failed):

    * ``annulus``: for well-covered G all roots satisfy 1/n <= |z| <= alpha,
      with the boundary attained exactly when G is complete.
    * ``xi_max_window``: max(-alpha/n, -1/omega) <= xi_max < -1/(2n-1).
    * ``modulus_floor``: every root has |z| > 1/(2n-1).
    * ``real_window``: real roots in [-1, -1/n) for connected well-covered
      G of girth >= 6 other than C_7, K_1, K_2.
    * ``smallest_modulus_real_unique``: the minimum-modulus root is real
      and no other root ties it (within tol).

    The real legs are exact: each compares the isolated extreme real root
    with a rational.  Inapplicable bounds report ``passed=None``.
    """
    if g.n < 2:
        raise ValueError("bound verification needs n >= 2")
    n = g.n
    p = independence_polynomial(g)
    # before any root work: maximal-stable-set enumeration is capped
    wc = is_well_covered(g)
    report = root_report(p, min(tol, 1e-12))
    a = p.degree
    nonreal_moduli = [math.hypot(re, im) for re, im, _ in report.complex_roots]
    real_moduli = [abs(x) for x in report.real_floats]
    moduli = real_moduli + nonreal_moduli
    # I(G; x) >= 1 for x >= 0, so every real root is negative: "no real
    # root in [c, 0]" is xi_max < c, and "no real root <= c" is xi_min > c
    q, real = square_free_part(p), report.real_roots
    inner = Fraction(1, n)
    inner_ok = not real or _root_sign(q, real[-1], -inner) < 0

    # annulus for well-covered graphs
    if wc:
        margin = min((min(r - 1 / n, a - r) for r in moduli), default=math.inf)
        if _is_complete(g):
            passed = sign_at(p.coeffs, -inner) == 0
            note = "complete graph: root on the inner boundary"
        else:
            # both real legs are strict, so no real root is on the boundary
            passed = (
                inner_ok
                and (not real or _root_sign(q, real[0], Fraction(-a)) > 0)
                and all(r >= 1 / n - tol and r <= a + tol for r in nonreal_moduli)
            )
            note = ""
        report.bounds["annulus"] = BoundCheck(
            "annulus", True, passed, float(margin) if margin != math.inf else None, note
        )
    else:
        report.bounds["annulus"] = BoundCheck("annulus", False, None, None, "not well-covered")

    # xi_max window
    w = alpha(complement(g))
    lower = max(Fraction(-a, n), Fraction(-1, w))
    strict_cap = Fraction(-1, 2 * n - 1)
    cap_ok = not real or _root_sign(q, real[-1], strict_cap) < 0
    xi_max = max(report.real_floats, default=None)
    margin = None if xi_max is None else float(strict_cap) - xi_max
    report.bounds["xi_max_window"] = BoundCheck(
        "xi_max_window",
        True,
        bool(real) and cap_ok and _root_sign(q, real[-1], lower) >= 0,
        margin,
        "" if real else "no real root",
    )

    # modulus floor, real exact (the cap's comparison) + complex numeric
    floor = Fraction(1, 2 * n - 1)
    margin = min((r - float(floor) for r in moduli), default=math.inf)
    report.bounds["modulus_floor"] = BoundCheck(
        "modulus_floor",
        True,
        cap_ok and all(r - float(floor) > 0 for r in nonreal_moduli),
        float(margin) if margin != math.inf else None,
    )

    # real window for the almost-very-well-covered case
    applicable = (
        is_connected(g)
        and wc
        and girth(g) >= 6
        and not _is_cycle7(g)
        and not (n == 2 and g.num_edges == 1)
    )
    if applicable:
        from_minus_one = not real or _root_sign(q, real[0], Fraction(-1)) >= 0
        report.bounds["real_window"] = BoundCheck(
            "real_window", True, from_minus_one and inner_ok, None
        )
    else:
        report.bounds["real_window"] = BoundCheck(
            "real_window", False, None, None, "hypotheses not met"
        )

    # smallest-modulus root real and unique
    if not real_moduli:
        report.bounds["smallest_modulus_real_unique"] = BoundCheck(
            "smallest_modulus_real_unique", True, False, None, "no real root"
        )
    else:
        rho = min(real_moduli)
        others = [r for r in real_moduli if r != rho] + nonreal_moduli
        margin = min(others) - rho if others else math.inf
        passed = margin > tol if others else True
        report.bounds["smallest_modulus_real_unique"] = BoundCheck(
            "smallest_modulus_real_unique",
            True,
            passed,
            float(margin) if margin != math.inf else None,
        )
    return report


# -- iterated coronas ------------------------------------------------------------


def check_hk_order(seed: Graph, k: int) -> None:
    """Raise before any work unless H_k, the k-fold corona of `seed`
    (2^k * n vertices), fits the forest engine."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = 2**k * seed.n
    if order > FOREST_LIMIT:
        raise ResourceLimitError(f"H_k would have {order} > {FOREST_LIMIT} vertices")


def build_hk(seed: Graph, k: int) -> tuple[Graph, bool]:
    """Iterate the corona k times from a tree seed (not K_1) and verify
    exactly that -1/k is a root of the resulting well-covered tree."""
    if not is_tree(seed) or seed.n < 2:
        raise ValueError("seed must be a tree with at least two vertices")
    check_hk_order(seed, k)
    h = seed
    for _ in range(k):
        h = corona(h)
    return h, sign_at(independence_polynomial_tree(h).coeffs, Fraction(-1, k)) == 0


def negative_tail_sign_check(g: Graph, samples: Iterable) -> bool:
    """At every rational sample x < -1, I(G*;x) must be nonzero with the
    sign of (-1)^n; requires G to have an edge."""
    if g.num_edges == 0:
        raise ValueError("sign statement requires a graph with an edge")
    q = independence_polynomial(corona(g))
    want_negative = g.n % 2 == 1
    for x in samples:
        x = Fraction(x)
        if x >= -1:
            raise ValueError(f"sample {x} is not < -1")
        v = sign_at(q.coeffs, x)
        if v == 0 or (v < 0) != want_negative:
            return False
    return True
