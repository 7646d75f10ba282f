"""Gamma, Beta, and Gauss hypergeometric functions with two independent 2F1 paths.

The Gauss function is evaluated both by its power series and by the Euler
integral representation

    2F1(a, b; c; z) = 1/B(b, c-b) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-z t)^(-a) dt,

valid for c > b > 0 and z in [0, 1).  The integral path is the contractual one
(every downstream coefficient is defined through it); the series acts as an
independent cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import Job, QuadSpec, _pow, _select, integrate

__all__ = ["ln_gamma", "beta", "Hyp2F1Args", "hyp2f1_series", "hyp2f1_euler", "euler_integral"]

# Lanczos approximation, g = 7, 9 terms (Godfrey's published coefficients;
# ~15 significant digits for real x > 0).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_SERIES_TERM_LIMIT = 1_000_000
_SERIES_REL_STOP = 1e-15
_SERIES_Z_CAP = 1.0 - 1e-6

# The integral path must beat the 1e-9 series agreement with room to spare and
# hit 1 +- 1e-12 at z = 0, so it runs two orders tighter than the default rule.
# The absolute floor is per half: two halves within 1e-15 each keep the z = 0
# ratio within 1.2e-13 of 1 down to B(4, 3) = 1/60.  A floor of 1e-13 let a
# 1.3e-12 error through at b = c - b = 2.52.
_EULER_QUADSPEC = QuadSpec(abs_tol=1e-15, rel_tol=1e-12)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Raises OverflowError, as ``math.lgamma`` does, when the value does not fit
    in a double (x above ~2.5e305).
    """
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Recurrence keeps the Lanczos sum in its sweet spot.
        return ln_gamma(x + 1.0) - math.log(x)
    xm1 = x - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    value = _HALF_LOG_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)
    if not math.isfinite(value):
        raise OverflowError(f"ln_gamma({x!r}) overflows a double")
    return value


# From this argument on, ``beta`` takes ln Gamma(x) - ln Gamma(x + y) from
# Stirling's series instead of subtracting two log-Gammas of size ~x ln x.
_STIRLING_MIN = 100.0


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2): four terms of
    Stirling's series, within 1e-21 for z >= _STIRLING_MIN (0 at z = inf)."""
    r = 1.0 / z
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))


def _ln_beta_large(x: float, y: float) -> float:
    """ln B(x, y) for x >= max(y, _STIRLING_MIN), with ln(x + y) written as
    ln x + log1p(y / x), so that nothing cancels and x + y never multiplies
    a logarithm (it may overflow)."""
    lx, l1p = math.log(x), math.log1p(y / x)
    # y - (x + y - 1/2) log1p(y / x), two terms of size y that cancel to O(y^2 / x)
    rest = y - (x - 0.5) * l1p - y * l1p + _stirling_tail(x) - _stirling_tail(x + y)
    if y < _STIRLING_MIN:
        return ln_gamma(y) - y * lx + rest
    # ln Gamma(y) from the series too: (y - 1/2) ln y - y ln x, rearranged
    return _HALF_LOG_2PI - 0.5 * lx + (y - 0.5) * math.log(y / x) + _stirling_tail(y) + rest - y


# The coefficient sets of one (s, q) grid ask for a few dozen argument
# pairs, thousands of times.  Bounded so that random search cannot grow it
# without limit; errors are not cached.
@lru_cache(maxsize=1024)
def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0.

    Below 100 in both arguments it is exp(ln Gamma(x) + ln Gamma(y) -
    ln Gamma(x + y)); from there on the log-Gamma difference comes from
    Stirling's series (``_ln_beta_large``).  Raises OverflowError when
    B(x, y), or a log-Gamma it is built from, does not fit in a double.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires x, y > 0, got ({x}, {y})")
    if max(x, y) >= _STIRLING_MIN:
        log_b = _ln_beta_large(max(x, y), min(x, y))
    else:
        log_b = ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y)
    try:
        return math.exp(log_b)
    except OverflowError:
        raise OverflowError(f"beta({x!r}, {y!r}) = exp({log_b!r}) overflows a double") from None


@dataclass(frozen=True)
class Hyp2F1Args:
    """Arguments of 2F1 restricted to the Euler-representation domain.

    Requires c_param > b_param > 0 and 0 <= z < 1.  Negative z never occurs in
    the coefficient formulas (z is always 1 - a/b, half of it, or (b-a)/(b+a)
    for an interval 0 < a < b), so no analytic continuation is provided.
    """

    a_param: float
    b_param: float
    c_param: float
    z: float

    def __post_init__(self) -> None:
        if not self.b_param > 0.0:
            raise DomainError(f"2F1 requires b > 0, got b={self.b_param}")
        if not self.c_param > self.b_param:
            raise DomainError(
                f"2F1 Euler representation requires c > b, got c={self.c_param}, b={self.b_param}"
            )
        if not 0.0 <= self.z < 1.0:
            raise DomainError(f"2F1 requires 0 <= z < 1, got z={self.z}")


def hyp2f1_series(args: Hyp2F1Args) -> float:
    """Power-series evaluation of 2F1: sum of (a)_n (b)_n / ((c)_n n!) z^n.

    Terms are accumulated until one falls below 1e-15 of the running sum.
    Raises ConvergenceError past 10^6 terms (z very close to 1 combined with
    slowly decaying terms).
    """
    if args.z > _SERIES_Z_CAP:
        raise DomainError(f"series path requires z <= {_SERIES_Z_CAP} for its term budget, got {args.z}")
    a, b, c, z = args.a_param, args.b_param, args.c_param, args.z
    if z == 0.0:
        return 1.0
    total = 1.0
    term = 1.0
    for n in range(_SERIES_TERM_LIMIT):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= _SERIES_REL_STOP * abs(total):
            return total
    raise ConvergenceError(
        f"2F1 series did not converge within {_SERIES_TERM_LIMIT} terms for {args}"
    )


def _euler_integrand(k, e_left, e_right, e_z, z, right, u: np.ndarray) -> np.ndarray:
    """One half of the Euler integrand after its power substitution,
    k u^e_left (1 - u^k)^e_right (1 - z t)^e_z, with e_left = k p1 - 1,
    e_right = p2 - 1 and e_z = -a: t = u^k on the left (p1, p2 = b, c - b),
    and 1 - t = u^k where ``right`` (p1, p2 = c - b, b)."""
    w = _pow(u, k)
    v = 1.0 - w
    return k * _pow(u, e_left) * _pow(v, e_right) * _pow(1.0 - z * _select(right, v, w), e_z)


_euler_integrand.exponents = (1, 2, 3)


def _euler_jobs(args: Hyp2F1Args, spec: QuadSpec = _EULER_QUADSPEC) -> tuple[Job, Job]:
    """The left and right halves of ``euler_integral(args, spec)`` as jobs of
    :func:`~hhkit.quadrature.integrate_many`."""
    a, b, c, z = args.a_param, args.b_param, args.c_param, args.z
    cb = c - b
    k_left = max(2, math.ceil(1.5 / b))
    k_right = max(2, math.ceil(1.5 / cb))
    hi_left, hi_right = 0.5 ** (1.0 / k_left), 0.5 ** (1.0 / k_right)
    return (
        (_euler_integrand, (k_left, k_left * b - 1.0, cb - 1.0, -a, z, False), 0.0, hi_left,
         spec.with_splits(0.5 * hi_left)),
        (_euler_integrand, (k_right, k_right * cb - 1.0, b - 1.0, -a, z, True), 0.0, hi_right,
         spec.with_splits(0.5 * hi_right)),
    )


def euler_integral(args: Hyp2F1Args, spec: QuadSpec = _EULER_QUADSPEC) -> float:
    """The raw Euler integral int_0^1 t^(b-1) (1-t)^(c-b-1) (1-z t)^(-a) dt.

    Both endpoints may carry algebraic singularities (b < 1 or c - b < 1).  Each
    half is regularized by a power substitution, t = u^k on the left and
    1 - t = v^k on the right, turning t^(b-1) dt into k u^(kb-1) du.  k = 2
    suffices for exponents >= 1/2; smaller b or c - b raise k until the
    transformed integrand vanishes at the endpoint, so the adaptive rule
    certifies its tolerance for every b, c - b > 0.  Each half starts from two
    panels: on a single one the 7- and 15-point rules can agree by accident
    (an error estimate of 3e-16 against a true error of 3e-14 at b = 2.86,
    c - b = 2.29) and the rule stops at once.
    """
    left, right = (integrate(partial(family, *params), lo, hi, use)
                   for family, params, lo, hi, use in _euler_jobs(args, spec))
    return left + right


def _hyp2f1_from_integral(args: Hyp2F1Args, integral: float) -> float:
    """2F1 from the value of its Euler integral."""
    return integral / beta(args.b_param, args.c_param - args.b_param)


def hyp2f1_euler(args: Hyp2F1Args, spec: QuadSpec = _EULER_QUADSPEC) -> float:
    """Euler-integral evaluation of 2F1 (the contractual path)."""
    return _hyp2f1_from_integral(args, euler_integral(args, spec))
