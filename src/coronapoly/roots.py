"""Root analysis with an exact real side and a numeric complex side.

Real roots are certified in integer arithmetic alone: a pseudo-remainder
primitive PRS gives the Sturm chains and the gcds behind Yun's
square-free decomposition (scaling by |lc|, never lc, keeps the signs),
and every sign test is a homogeneous integer evaluation at a rational
point.  Fractions appear only as interval endpoints.  Complex
roots are approximated by a deterministic Aberth simultaneous iteration
with residual validation.  Every half-open membership test that appears
in a bound (for instance xi_max < -1/(2n-1)) is decided by rational
evaluation plus Sturm counts, never by floating point.

Complex-root checks are numeric only: the report schema marks them as
"numeric-residual" certification, in contrast to the exact real side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

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


def _remove_rational_root(q: IntPolynomial, r: Fraction) -> IntPolynomial:
    return IntPolynomial(primitive(exact_div(q.coeffs, (-r.numerator, r.denominator))))


def count_distinct_real_roots(
    p: IntPolynomial,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    include_lo: bool = True,
    include_hi: bool = True,
) -> int:
    """Number of distinct real roots in the interval (None endpoint = infinite).

    Exact: endpoint roots are divided out of the square-free part and
    re-added according to the inclusion flags, so half-open checks like
    "no root in [a, b)" are certified by integer arithmetic alone.
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
    extra = 0
    for point, include in ((lo, include_lo), (hi, include_hi)):
        if point is not None and sign_at(q.coeffs, point) == 0:
            q = _remove_rational_root(q, Fraction(point))
            if include:
                extra += 1
    if q.degree < 1:
        return extra
    chain = sturm_chain(q)
    v_lo = _variations_at(chain, lo, -1)
    v_hi = _variations_at(chain, hi, +1)
    return extra + v_lo - v_hi


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
        mult = None
        for f, m in yun:
            if f.degree >= 1 and count_distinct_real_roots(
                f, lo, hi, include_lo=False, include_hi=False
            ) == 1:
                mult = m
                break
        assert mult is not None
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


def _float_root(f: IntPolynomial, lo: Fraction, hi: Fraction) -> float:
    """Float view of the single root of square-free f inside (lo, hi):
    exact bisection to ~1e-6, then Newton polish in float arithmetic."""
    if lo != hi:
        lo, hi = refine_root_interval(f, lo, hi, Fraction(1, 1 << 20))
    if lo == hi:
        return float(lo)
    x = float(lo + hi) / 2
    top = max(abs(c) for c in f.coeffs)
    fs = [float(Fraction(c, top)) for c in f.coeffs]
    flo, fhi = float(lo), float(hi)
    for _ in range(4):
        fv = 0.0
        dv = 0.0
        for c in reversed(fs):
            dv = dv * x + fv
            fv = fv * x + c
        if dv == 0:
            break
        step = fv / dv
        if not (flo - 1e-9 <= x - step <= fhi + 1e-9):
            break
        x -= step
    return x


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


def numeric_roots(
    p: IntPolynomial, tol: float = 1e-12, max_iter: int = 1000
) -> list[complex]:
    """Aberth simultaneous approximation of all roots (degree entries).

    Deterministic: starts on the Cauchy-bound circle rotated by a fixed
    irrational angle.  Convergence per root is declared when either the
    correction falls below tol or the residual reaches the evaluation
    noise floor (which is the best achievable at a multiple root).  Every
    approximation is validated against a coefficient-scaled residual;
    conjugate symmetry is enforced on the way out.
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

    converged = [False] * d
    for _ in range(max_iter):
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
            w = pv / dv
            s = 0 + 0j
            for k in range(d):
                if k != j:
                    diff = z[j] - z[k]
                    if diff != 0:
                        s += 1 / diff
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[j] -= step
            if abs(step) <= tol * max(1.0, abs(z[j])):
                converged[j] = True
            else:
                done = False
        if done:
            break
    else:
        raise RootConvergenceError(
            f"no convergence after {max_iter} iterations", list(z)
        )

    z = _enforce_conjugate_symmetry(z)
    resid_tol = max(tol * 1e3, 1e-9)
    for x in z:
        pv, _, scale = eval_both(x)
        if abs(pv) > resid_tol * max(scale, 1e-300):
            raise RootConvergenceError(
                f"residual {abs(pv):.3e} above threshold at {x}", list(z)
            )
    return sorted(z, key=lambda w: (w.real, w.imag))


def _enforce_conjugate_symmetry(roots: list[complex]) -> list[complex]:
    eps = 2.0 ** -52
    real: list[complex] = []
    pos: list[complex] = []
    neg: list[complex] = []
    for w in roots:
        # pure iteration noise on a simple real root sits at machine scale
        if abs(w.imag) <= 1e4 * eps * max(1.0, abs(w)):
            real.append(complex(w.real, 0.0))
        elif w.imag > 0:
            pos.append(w)
        else:
            neg.append(w)
    # genuine pairs are mutual nearest conjugates; realify whatever cannot pair
    out = list(real)
    while pos and neg:
        best = None
        for i, w in enumerate(pos):
            for k, v in enumerate(neg):
                dd = abs(w - v.conjugate())
                if best is None or dd < best[0]:
                    best = (dd, i, k)
        dd, i, k = best
        w, v = pos.pop(i), neg.pop(k)
        if dd <= 1e-2 * max(1.0, abs(w)):
            avg = (w + v.conjugate()) / 2
            out.append(avg)
            out.append(avg.conjugate())
        else:
            out.append(complex(w.real, 0.0))
            out.append(complex(v.real, 0.0))
    for w in pos + neg:
        out.append(complex(w.real, 0.0))
    return out


def distinct_numeric_roots(
    p: IntPolynomial, tol: float = 1e-12
) -> list[tuple[complex, int]]:
    """(approximation, exact multiplicity) per distinct root, obtained by
    running the iteration on each square-free factor (simple roots, so the
    numerics converge fully) and taking multiplicities from the exact
    decomposition."""
    out = []
    for f, m in square_free_decomposition(p):
        if f.degree >= 1:
            for z in numeric_roots(f, tol):
                out.append((z, m))
    return out


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    applicable: bool
    passed: bool | None          # None iff not applicable
    margin: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "pass": self.passed,
            "margin": self.margin,
            "note": self.note,
        }


@dataclass
class RootReport:
    """Exact real-root data, numeric complex approximations, and named
    bound verdicts for one polynomial."""

    polynomial: IntPolynomial
    minus_one_multiplicity: int
    real_roots: list[tuple[Fraction, Fraction, int]]
    complex_roots: list[tuple[float, float, int]]
    bounds: dict[str, BoundCheck] = field(default_factory=dict)

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


def _root_data(p: IntPolynomial, tol: float):
    """Exact real roots plus numeric nonreal approximations, per factor."""
    real = isolate_real_roots(p)
    complexes: list[tuple[float, float, int]] = []
    for f, m in square_free_decomposition(p):
        if f.degree < 1:
            continue
        n_real = count_distinct_real_roots(f)
        approx = numeric_roots(f, tol)
        approx.sort(key=lambda z: (abs(z.imag), z.real))
        for z in approx[n_real:]:
            complexes.append((z.real, z.imag, m))
    return real, complexes


def root_report(p: IntPolynomial, tol: float = 1e-12) -> RootReport:
    real, complexes = _root_data(p, tol)
    return RootReport(
        polynomial=p,
        minus_one_multiplicity=multiplicity_of_minus_one(p),
        real_roots=[(lo, hi, m) for (lo, hi), m in real],
        complex_roots=complexes,
    )


# -- the root bijection --------------------------------------------------------


def _mobius(x):
    return x / (1 - x)


@dataclass
class BijectionReport:
    passed: bool
    degree_ok: bool
    multiplicity_profile_ok: bool
    real_ok: bool
    rational_ok: bool
    numeric_ok: bool
    max_numeric_mismatch: float
    notes: list[str] = field(default_factory=list)


def root_bijection_check(g: Graph, tol: float = 1e-9) -> BijectionReport:
    """Verify that x -> x/(1-x) carries the roots of I(G) onto the roots of
    the (1+x)-deflated I(G*), preserving multiplicity, realness and
    rationality.

    The real/rational legs are exact (interval images plus Sturm counts);
    the complex leg matches numeric multisets within tol.  A failure
    produces a report with passed=False, never an exception.
    """
    if g.n > 10:
        raise ResourceLimitError("root bijection check capped at 10 vertices")
    notes: list[str] = []
    p = independence_polynomial(g)
    q = deflate_minus_one(independence_polynomial(corona(g)))

    degree_ok = p.degree == q.degree
    if not degree_ok:
        notes.append(f"degree mismatch: {p.degree} vs {q.degree}")

    prof_p = sorted((m, f.degree) for f, m in square_free_decomposition(p))
    prof_q = sorted((m, f.degree) for f, m in square_free_decomposition(q))
    profile_ok = prof_p == prof_q
    if not profile_ok:
        notes.append(f"square-free profiles differ: {prof_p} vs {prof_q}")

    real_ok, rational_ok = _check_real_leg(p, q, notes)
    numeric_ok, worst = _check_numeric_leg(p, q, tol, notes)

    passed = degree_ok and profile_ok and real_ok and rational_ok and numeric_ok
    return BijectionReport(
        passed, degree_ok, profile_ok, real_ok, rational_ok, numeric_ok, worst, notes
    )


def _check_real_leg(p: IntPolynomial, q: IntPolynomial, notes: list[str]) -> tuple[bool, bool]:
    if p.degree < 1:
        return True, True
    roots_p = isolate_real_roots(p)
    roots_q = isolate_real_roots(q)
    ok = True
    rational_ok = True
    if len(roots_p) != len(roots_q):
        notes.append(f"real root counts differ: {len(roots_p)} vs {len(roots_q)}")
        return False, rational_ok
    sf_q = square_free_part(q)
    yun_q = square_free_decomposition(q)
    for ((lo, hi), mult), ((qlo, qhi), qmult) in zip(roots_p, roots_q):
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
        # shrink until the Mobius image isolates exactly one root of q
        f_p = next(
            f for f, m in square_free_decomposition(p)
            if m == mult and f.degree >= 1
            and count_distinct_real_roots(f, lo, hi, False, False) == 1
        )
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
    p: IntPolynomial, q: IntPolynomial, tol: float, notes: list[str]
) -> tuple[bool, float]:
    if p.degree < 1:
        return True, 0.0
    source = [(_mobius(z), m) for z, m in distinct_numeric_roots(p)]
    target = distinct_numeric_roots(q)
    if len(source) != len(target):
        notes.append("distinct numeric root counts differ")
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


# -- named bounds ---------------------------------------------------------------


def _is_complete(g: Graph) -> bool:
    return g.num_edges == g.n * (g.n - 1) // 2 and g.n >= 1


def _is_cycle7(g: Graph) -> bool:
    return g.n == 7 and g.num_edges == 7 and all(len(a) == 2 for a in g.adj) and is_connected(g)


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

    The real legs are exact; inapplicable bounds report ``passed=None``.
    """
    if g.n < 2:
        raise ValueError("bound verification needs n >= 2")
    n = g.n
    p = independence_polynomial(g)
    real, complexes = _root_data(p, min(tol, 1e-12))
    report = RootReport(
        polynomial=p,
        minus_one_multiplicity=multiplicity_of_minus_one(p),
        real_roots=[(lo, hi, m) for (lo, hi), m in real],
        complex_roots=complexes,
    )
    a = alpha(g)
    nonreal_moduli = [math.hypot(re, im) for re, im, _ in complexes]

    # a refined float for every distinct real root (exact data, float view)
    sf = square_free_part(p)
    real_floats = [((_float_root(sf, lo, hi)), m) for (lo, hi), m in real]

    # annulus for well-covered graphs
    wc = is_well_covered(g)
    if wc:
        inner = Fraction(1, n)
        inner_ok = count_distinct_real_roots(p, -inner, Fraction(0), True, True) == 0
        outer_ok = count_distinct_real_roots(p, None, Fraction(-a), True, True) == 0
        touch = sign_at(p.coeffs, -inner) == 0 or sign_at(p.coeffs, -a) == 0
        complete = _is_complete(g)
        margin = math.inf
        ok_numeric = True
        for r in nonreal_moduli:
            margin = min(margin, r - 1 / n, a - r)
        for x, _ in real_floats:
            margin = min(margin, abs(x) - 1 / n, a - abs(x))
        if complete:
            passed = sign_at(p.coeffs, -inner) == 0
            note = "complete graph: root on the inner boundary"
        else:
            passed = (
                inner_ok
                and outer_ok
                and not touch
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
    has_real = count_distinct_real_roots(p) >= 1
    above_cap = count_distinct_real_roots(p, strict_cap, None, True, True)
    in_window = count_distinct_real_roots(p, lower, Fraction(0), True, False) >= 1
    xi_max = max((x for x, _ in real_floats), default=None)
    margin = None if xi_max is None else float(strict_cap) - xi_max
    report.bounds["xi_max_window"] = BoundCheck(
        "xi_max_window",
        True,
        has_real and above_cap == 0 and in_window,
        margin,
        "" if has_real else "no real root",
    )

    # modulus floor, real exact + complex numeric
    floor = Fraction(1, 2 * n - 1)
    real_floor_ok = count_distinct_real_roots(p, -floor, floor, True, True) == 0
    complex_margin = min(
        (r - float(floor) for r in nonreal_moduli), default=math.inf
    )
    real_margin = min(
        (abs(x) - float(floor) for x, _ in real_floats), default=math.inf
    )
    margin = min(complex_margin, real_margin)
    report.bounds["modulus_floor"] = BoundCheck(
        "modulus_floor",
        True,
        real_floor_ok and complex_margin > 0,
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
        below = count_distinct_real_roots(p, None, Fraction(-1), True, False)
        above = count_distinct_real_roots(p, Fraction(-1, n), None, True, True)
        report.bounds["real_window"] = BoundCheck(
            "real_window", True, below == 0 and above == 0, None
        )
    else:
        report.bounds["real_window"] = BoundCheck(
            "real_window", False, None, None, "hypotheses not met"
        )

    # smallest-modulus root real and unique
    if not real_floats:
        report.bounds["smallest_modulus_real_unique"] = BoundCheck(
            "smallest_modulus_real_unique", True, False, None, "no real root"
        )
    else:
        xi = max(x for x, _ in real_floats)
        rho = abs(xi)
        others = [abs(x) for x, _ in real_floats if x != xi] + nonreal_moduli
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
