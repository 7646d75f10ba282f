"""Closed-form coefficient builders and theorem verifiers.

Every coefficient family is a kernel integral; the printed closed forms are
computed exactly as published and adjudicated against direct quadrature of the
defining kernel.  The quadrature oracles are contractual: theorem right-hand
sides are assembled from oracle values, with the printed forms reported
alongside so deviations document the source, not the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .errors import CertificationError, DomainError, ParameterError
from .functions import (
    CheckReport,
    FunctionSpec,
    GradientPower,
    SMParams,
    check_harmonic_sm_convex,
    check_sm_convex,
    clear_mesh_cache,
    deriv,
    eval_fn,
)
from .quadrature import DEFAULT_QUADSPEC, TIGHT_QUADSPEC, QuadSpec, harmonic_mean_integral, integrate, kernel_K
from .quadrature import _WEIGHT_FNS
from .specfun import Hyp2F1Args, beta, hyp2f1_euler

__all__ = [
    "TOL_ACCEPT",
    "Interval",
    "CoefficientSet",
    "VerificationRecord",
    "coeff_lambda",
    "coeff_mu",
    "coeff_C",
    "coeff_rho",
    "coeff_nu",
    "verify_hh_double",
    "verify_II1",
    "lemma_residual",
    "verify_bound",
    "Theorem",
    "THEOREMS",
    "GRADIENT_THEOREMS",
    "theorem_row",
    "verify_theorem",
    "certify_function",
    "certify_gradient",
    "certify_plain",
    "clear_certification_cache",
    "ii1_substitution_means",
    "kernel_oracle_identities",
]

TOL_ACCEPT = 1e-9

GRADIENT_THEOREMS = ("I1", "I2", "FS1", "FS2", "II2", "II3", "II4")


@dataclass(frozen=True)
class Interval:
    """An interval 0 < a < b; z = 1 - a/b is the hypergeometric argument."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a < self.b:
            raise DomainError(f"interval requires 0 < a < b, got ({self.a}, {self.b})")

    @property
    def z(self) -> float:
        return 1.0 - self.a / self.b


@dataclass(frozen=True)
class CoefficientSet:
    """Printed coefficient values paired with their quadrature-oracle values."""

    name: str
    labels: tuple[str, ...]
    values: tuple[float, ...]
    oracle_values: tuple[float, ...]
    max_abs_dev: float

    @property
    def deviations(self) -> tuple[float, ...]:
        return tuple(abs(v - o) for v, o in zip(self.values, self.oracle_values))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "printed": list(self.values),
            "oracle": list(self.oracle_values),
            "deviations": list(self.deviations),
            "max_abs_dev": self.max_abs_dev,
        }


def _coeff_set(name: str, labels, values, oracles) -> CoefficientSet:
    values = tuple(float(v) for v in values)
    oracles = tuple(float(o) for o in oracles)
    if len(values) != len(oracles):
        raise ValueError("values and oracle_values must have equal length")
    dev = max(abs(v - o) for v, o in zip(values, oracles))
    return CoefficientSet(name, tuple(labels), values, oracles, dev)


@dataclass(frozen=True)
class VerificationRecord:
    """One theorem instance: parameters, both sides, margin, verdict."""

    theorem: str
    interval: Interval
    params: Optional[SMParams]
    family: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    diagnostics: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "a": self.interval.a,
            "b": self.interval.b,
            "s": self.params.s if self.params else None,
            "m": self.params.m if self.params else None,
            "q": self.params.q if self.params else None,
            "family": self.family,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "diagnostics": list(self.diagnostics),
        }


def _record(theorem, iv, params, family, lhs, rhs, diagnostics) -> VerificationRecord:
    margin = rhs - lhs
    return VerificationRecord(
        theorem=theorem,
        interval=iv,
        params=params,
        family=family,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        satisfied=bool(margin >= -TOL_ACCEPT),
        diagnostics=tuple(diagnostics),
    )


# The coefficient sets of one interval repeat 2F1 terms (coeff_C and coeff_rho
# each evaluate one term twice, and the sets share terms with each other).
# Bounded so that random search cannot grow it without limit.
F21_CACHE_SIZE = 1024


def _f21(a: float, b: float, c: float, z: float) -> float:
    return _f21_cached(float(a), float(b), float(c), float(z))


@lru_cache(maxsize=F21_CACHE_SIZE)
def _f21_cached(a: float, b: float, c: float, z: float) -> float:
    return hyp2f1_euler(Hyp2F1Args(a, b, c, z))


# ---------------------------------------------------------------------------
# Coefficient builders.  "Printed" tuples follow the published formulas
# exactly; oracles integrate the defining kernels.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2048)
def coeff_lambda(iv: Interval) -> CoefficientSet:
    """The elementary-log coefficient triple of the q >= 1 harmonically convex bound.

    lambda1 pairs with the |1-2t| kernel, lambda2/lambda3 with its t- and
    (1-t)-weighted forms.  The printed lambda3 is known to disagree with its
    defining integral (adjudicated by the oracle).
    """
    a, b = iv.a, iv.b
    log_term = math.log((a + b) ** 2 / (4.0 * a * b))
    lam1 = 1.0 / (a * b) - 2.0 / (b - a) ** 2 * log_term
    lam2 = -1.0 / (b * (b - a)) + (3.0 * a + b) / (b - a) ** 3 * log_term
    lam3 = 1.0 / (a * (b - a)) + (3.0 * a + b) / (b - a) ** 3 * log_term
    oracles = (
        kernel_K("W1", 0.0, 1.0, a, b),
        kernel_K("W1", 1.0, 1.0, a, b),
        kernel_K("W2", 1.0, 1.0, a, b),
    )
    return _coeff_set("Lambda", ("lambda1", "lambda2", "lambda3"), (lam1, lam2, lam3), oracles)


@lru_cache(maxsize=2048)
def coeff_mu(q: float, iv: Interval) -> CoefficientSet:
    """Both printed forms of the Holder-route coefficients for q > 1.

    The elementary forms and the hypergeometric forms (printed pairing of the
    s = 1 remark) are all evaluated; oracles are int t (tb+(1-t)a)^(-2q) dt and
    int (1-t)(...)^(-2q) dt.  The hypergeometric labels are adjudicated against
    the oracles; see the reduction report for the observed pairing.
    """
    if not q > 1.0:
        raise ParameterError(f"mu coefficients require q > 1, got {q}")
    a, b = iv.a, iv.b
    z = iv.z
    denom = 2.0 * (b - a) ** 2 * (1.0 - q) * (1.0 - 2.0 * q)
    mu1_elem = (a ** (2.0 - 2.0 * q) + b ** (1.0 - 2.0 * q) * ((b - a) * (1.0 - 2.0 * q) - a)) / denom
    mu2_elem = (b ** (2.0 - 2.0 * q) - a ** (1.0 - 2.0 * q) * ((b - a) * (1.0 - 2.0 * q) + b)) / denom
    mu1_hyp = 1.0 / (2.0 * b ** (2.0 * q)) * _f21(2.0 * q, 2.0, 3.0, z)
    mu2_hyp = 1.0 / (2.0 * b ** (2.0 * q)) * _f21(2.0 * q, 1.0, 3.0, z)
    o1 = kernel_K("N1", 1.0, q, a, b)
    o2 = kernel_K("N2", 1.0, q, a, b)
    return _coeff_set(
        "Mu",
        ("mu1_elementary", "mu2_elementary", "mu1_hypergeometric", "mu2_hypergeometric"),
        (mu1_elem, mu2_elem, mu1_hyp, mu2_hyp),
        (o1, o2, o1, o2),
    )


@lru_cache(maxsize=2048)
def coeff_C(s: float, iv: Interval) -> CoefficientSet:
    """Printed coefficient triple of the harmonically s-convex bound (q >= 1).

    Oracles are the exponent-2 kernels: C1 with |1-2t|, C2 with |1-2t| t^s,
    C3 with |1-2t| (1-t)^s.
    """
    if not 0.0 < s <= 1.0:
        raise ParameterError(f"C coefficients require s in (0, 1], got {s}")
    a, b = iv.a, iv.b
    z = iv.z
    b2 = b**-2.0
    c1 = b2 * (_f21(2, 2, 3, z) - _f21(2, 1, 2, z) + 0.5 * _f21(2, 1, 3, 0.5 * z))
    c2 = b2 * (
        2.0 / (s + 2.0) * _f21(2, s + 2.0, s + 3.0, z)
        - 1.0 / (s + 1.0) * _f21(2, s + 1.0, s + 2.0, z)
        + 1.0 / (2.0**s * (s + 1.0) * (s + 2.0)) * _f21(2, s + 1.0, s + 3.0, 0.5 * z)
    )
    c3 = b2 * (
        2.0 / ((s + 1.0) * (s + 2.0)) * _f21(2, 2, s + 3.0, z)
        - 1.0 / (s + 1.0) * _f21(2, 1, s + 2.0, z)
        + 0.5 * _f21(2, 1, 3, 0.5 * z)
    )
    oracles = (
        kernel_K("W1", 0.0, 1.0, a, b),
        kernel_K("W1", s, 1.0, a, b),
        kernel_K("W2", s, 1.0, a, b),
    )
    return _coeff_set("C", ("C1", "C2", "C3"), (c1, c2, c3), oracles)


@lru_cache(maxsize=2048)
def coeff_rho(s: float, r: float, iv: Interval) -> CoefficientSet:
    """Printed power-mean-route coefficients, exponent 2r kernels (r plays q).

    rho2 is evaluated in both published variants: the theorem statement's
    three-term form and the proof's post-cancellation single-term form.  The
    oracle adjudicates which matches int |1-2t| (1-t)^s (tb+(1-t)a)^(-2r) dt.
    """
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"rho coefficients require s in [0, 1], got {s}")
    if r < 1.0:
        raise ParameterError(f"rho coefficients require r >= 1, got {r}")
    a, b = iv.a, iv.b
    z = iv.z
    z_half = 0.5 * z
    z_mid = 1.0 - 2.0 * a / (a + b)
    b2q = b ** (2.0 * r)
    rho1 = (
        beta(1.0, s + 2.0) / b2q * _f21(2.0 * r, 1.0, s + 3.0, z)
        - beta(2.0, s + 1.0) / b2q * _f21(2.0 * r, 2.0, s + 3.0, z)
        + 2.0 ** (2.0 * r - s) * beta(2.0, s + 1.0) / (a + b) ** (2.0 * r) * _f21(2.0 * r, 2.0, s + 3.0, z_mid)
    )
    rho2_statement = (
        beta(s + 1.0, 2.0) / (2.0**s * b2q) * _f21(2.0 * r, s + 1.0, s + 3.0, z_half)
        - beta(s + 1.0, 2.0) / b2q * _f21(2.0 * r, s + 1.0, s + 3.0, z)
        + beta(s + 2.0, 1.0) / b2q * _f21(2.0 * r, s + 2.0, s + 3.0, z)
    )
    rho2_proof = beta(s + 1.0, 2.0) / (2.0**s * b2q) * _f21(2.0 * r, s + 1.0, s + 3.0, z_half)
    o1 = kernel_K("W1", s, r, a, b)
    o2 = kernel_K("W2", s, r, a, b)
    return _coeff_set(
        "Rho",
        ("rho1", "rho2_statement", "rho2_proof"),
        (rho1, rho2_statement, rho2_proof),
        (o1, o2, o2),
    )


@lru_cache(maxsize=2048)
def coeff_nu(s: float, q: float, iv: Interval) -> CoefficientSet:
    """Printed Holder-route coefficients nu1, nu2 for q > 1 (kernels without |1-2t|)."""
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"nu coefficients require s in [0, 1], got {s}")
    if not q > 1.0:
        raise ParameterError(f"nu coefficients require q > 1, got {q}")
    a, b = iv.a, iv.b
    z = iv.z
    b2q = b ** (2.0 * q)
    nu1 = beta(1.0, s + 1.0) / b2q * _f21(2.0 * q, 1.0, s + 2.0, z)
    nu2 = beta(s + 1.0, 1.0) / b2q * _f21(2.0 * q, s + 1.0, s + 2.0, z)
    oracles = (kernel_K("N1", s, q, iv.a, iv.b), kernel_K("N2", s, q, iv.a, iv.b))
    return _coeff_set("Nu", ("nu1", "nu2"), (nu1, nu2), oracles)


# ---------------------------------------------------------------------------
# Certification (grid checks, cached -- certification dominates sweep cost).
# All keys are frozen dataclasses/floats, so lru_cache applies directly.
# ---------------------------------------------------------------------------


# Bounded so that random search cannot grow them without limit; 4096 covers
# the default sweep's distinct keys, so its hit ratios are unaffected.
CERT_CACHE_SIZE = 4096


@lru_cache(maxsize=CERT_CACHE_SIZE)
def certify_function(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached harmonic (s,m)-convexity certification of ``f`` itself."""
    return check_harmonic_sm_convex(f, SMParams(params.s, params.m), grid, window)


@lru_cache(maxsize=CERT_CACHE_SIZE)
def certify_gradient(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached harmonic (s,m)-convexity certification of |f'|^q on ``window``."""
    return check_harmonic_sm_convex(GradientPower(f, params.q), SMParams(params.s, params.m), grid, window)


@lru_cache(maxsize=CERT_CACHE_SIZE)
def certify_plain(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached ordinary (s,m)-convexity certification (classical HH gate)."""
    return check_sm_convex(f, SMParams(params.s, params.m), grid, window)


@lru_cache(maxsize=CERT_CACHE_SIZE)
def _cached_mean(f: FunctionSpec, a: float, b: float, spec: QuadSpec) -> float:
    return harmonic_mean_integral(f, a, b, spec)


def clear_certification_cache() -> None:
    certify_function.cache_clear()
    certify_gradient.cache_clear()
    certify_plain.cache_clear()
    _cached_mean.cache_clear()
    clear_mesh_cache()


# ---------------------------------------------------------------------------
# The theorem table and the verifiers.  One row per tag drives verification,
# sweep plans, search draws and the command line.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    """One theorem tag: the parameters it takes ("", "sm" or "smq"), the values
    its statement fixes, its route, and its printed companion set.

    Routes: ``hh``/``harmonic_hh`` (``verify_hh_double``), ``mean``
    (``verify_II1``), and the ``verify_bound`` right-hand sides
    ``power_mean`` (exponent-2 kernels W1/W2 and k0, the reading under which
    the II3 corollaries reproduce FS1 and I1), ``split_power_mean`` (|1-2t|
    split off, exponent-2q kernels W1/W2) and ``holder`` (exponent-2q kernels
    N1/N2).  Every gradient row has a ``companion(s, q, iv)``; it looks its
    builder up when called.
    """

    tag: str
    takes: str
    route: str
    unit_sm: bool = False  # stated for s = m = 1
    unit_m: bool = False  # stated for m = 1 and s in (0, 1]
    q_above_one: bool = False
    printed_2q: bool = False  # printed with exponent-2q kernels (``use_printed_exponents``)
    companion: Optional[Callable[[float, float, Interval], CoefficientSet]] = None
    note: Optional[str] = None  # an extra diagnostic line

    def reject(self, s: float, m: float, q: float) -> Optional[str]:
        """Why (s, m, q) lies outside the statement, or None when it is inside."""
        if self.unit_sm and (s != 1.0 or m != 1.0):
            return f"theorem {self.tag} is stated for s = m = 1, got s={s}, m={m}"
        if self.unit_m and m != 1.0:
            return f"theorem {self.tag} is stated for m = 1, got m={m}"
        if self.unit_m and not s > 0.0:
            return f"theorem {self.tag} requires s in (0, 1], got s={s}"
        if self.q_above_one and not q > 1.0:
            return f"theorem {self.tag} requires q > 1, got q={q}"
        return None


THEOREMS: dict[str, Theorem] = {row.tag: row for row in (
    Theorem("HH", "", "hh"),
    Theorem("HarmHH", "", "harmonic_hh"),
    Theorem("II1", "sm", "mean"),
    Theorem("I1", "smq", "power_mean", unit_sm=True, companion=lambda s, q, iv: coeff_lambda(iv)),
    Theorem("I2", "smq", "holder", unit_sm=True, q_above_one=True, companion=lambda s, q, iv: coeff_mu(q, iv)),
    Theorem("FS1", "smq", "power_mean", unit_m=True, companion=lambda s, q, iv: coeff_C(s, iv)),
    Theorem("FS2", "smq", "holder", unit_m=True, q_above_one=True,
            companion=lambda s, q, iv: coeff_nu(s, q, iv),
            note="FS2 evaluated via its m=1 Holder form (identical value)"),
    Theorem("II2", "smq", "split_power_mean", companion=lambda s, q, iv: coeff_rho(s, q, iv)),
    Theorem("II3", "smq", "power_mean", printed_2q=True, companion=lambda s, q, iv: coeff_rho(s, 1.0, iv)),
    Theorem("II4", "smq", "holder", q_above_one=True, companion=lambda s, q, iv: coeff_nu(s, q, iv)),
)}

GRADIENT_THEOREMS = tuple(tag for tag, row in THEOREMS.items() if "q" in row.takes)


def theorem_row(tag: str) -> Theorem:
    """The table row of ``tag``; ParameterError for a tag outside the table."""
    if tag not in tuple(THEOREMS):
        raise ParameterError(f"unknown theorem {tag!r}; one of {tuple(THEOREMS)}")
    return THEOREMS[tag]


def verify_theorem(theorem: str, f: FunctionSpec, params: Optional[SMParams], iv: Interval,
                   grid: int = 64, enforce_certification: bool = True,
                   companion: bool = True) -> VerificationRecord:
    """Verify one instance of any table tag with the verifier its route names.

    The double inequalities ignore ``params`` and always certify; only the
    gradient rows have a ``companion`` (see ``verify_bound``).
    """
    route = theorem_row(theorem).route
    if route in ("hh", "harmonic_hh"):
        return verify_hh_double(f, iv, harmonic=route == "harmonic_hh", grid=grid)
    if route == "mean":
        return verify_II1(f, params, iv, grid=grid, enforce_certification=enforce_certification)
    return verify_bound(theorem, f, params, iv, grid=grid, enforce_certification=enforce_certification,
                        companion=companion)


def verify_hh_double(
    f: FunctionSpec,
    iv: Interval,
    harmonic: bool = True,
    grid: int = 64,
    quad: QuadSpec = DEFAULT_QUADSPEC,
) -> VerificationRecord:
    """Both links of the (harmonic) Hermite-Hadamard double inequality.

    ``lhs`` stores the worst link violation (negative when both links hold),
    ``rhs`` is 0, so margin = min of the two link margins.
    """
    a, b = iv.a, iv.b
    params = SMParams(1.0, 1.0)
    if harmonic:
        cert = certify_function(f, params, (a, b), grid)
        kind = "HarmHH"
    else:
        cert = certify_plain(f, params, (a, b), grid)
        kind = "HH"
    if not cert.passed:
        raise CertificationError(
            f"{f.label} failed {'harmonic ' if harmonic else ''}convexity certification "
            f"(worst margin {cert.worst_margin:.3e} at {cert.witness})"
        )
    if harmonic:
        mid = eval_fn(f, 2.0 * a * b / (a + b))
        mean = _cached_mean(f, a, b, quad)
    else:
        mid = eval_fn(f, 0.5 * (a + b))
        mean = integrate(lambda x: eval_fn(f, x), a, b, quad) / (b - a)
    end_avg = 0.5 * (eval_fn(f, a) + eval_fn(f, b))
    margin_left = mean - mid
    margin_right = end_avg - mean
    lhs = max(-margin_left, -margin_right)
    diagnostics = (
        f"midpoint_value={mid!r}",
        f"mean_value={mean!r}",
        f"endpoint_average={end_avg!r}",
        f"link_margins=({margin_left!r}, {margin_right!r})",
    )
    return _record(kind, iv, params, f.label, lhs, 0.0, diagnostics)


def verify_II1(
    f: FunctionSpec,
    params: SMParams,
    iv: Interval,
    grid: int = 64,
    quad: QuadSpec = DEFAULT_QUADSPEC,
    enforce_certification: bool = True,
) -> VerificationRecord:
    """Harmonic mean of f against min of the two (s,m)-endpoint averages.

    ``enforce_certification=False`` skips the convexity gate; it exists so
    detector sanity tests can evaluate instances outside the hypothesis class.
    """
    a, b = iv.a, iv.b
    m, s = params.m, params.s
    window = (a, b / m)
    diagnostics: list[str] = []
    if enforce_certification:
        cert = certify_function(f, params, window, grid)
        if not cert.passed:
            raise CertificationError(
                f"{f.label} is not harmonically ({s},{m})-convex on [{window[0]}, {window[1]}] "
                f"(worst margin {cert.worst_margin:.3e} at {cert.witness})"
            )
        diagnostics.append(f"cert_worst_margin={cert.worst_margin:.6e}")
        diagnostics.extend(cert.diagnostics)
    else:
        diagnostics.append("certification bypassed (diagnostic mode)")
    lhs = _cached_mean(f, a, b, quad)
    avg_ab = (eval_fn(f, a) + m * eval_fn(f, b / m)) / (s + 1.0)
    avg_ba = (eval_fn(f, b) + m * eval_fn(f, a / m)) / (s + 1.0)
    rhs = min(avg_ab, avg_ba)
    diagnostics.append(f"endpoint_averages=({avg_ab!r}, {avg_ba!r})")
    return _record("II1", iv, params, f.label, lhs, rhs, diagnostics)


def ii1_substitution_means(f: FunctionSpec, iv: Interval, quad: QuadSpec = DEFAULT_QUADSPEC) -> tuple[float, float]:
    """The two kernel substitutions of the harmonic mean, int_0^1 f(ab/(tb+(1-t)a)) dt
    and int_0^1 f(ab/(ta+(1-t)b)) dt.  Both equal the harmonic mean integral."""
    a, b = iv.a, iv.b

    def sub1(t):
        return eval_fn(f, a * b / (t * b + (1.0 - t) * a))

    def sub2(t):
        return eval_fn(f, a * b / (t * a + (1.0 - t) * b))

    return integrate(sub1, 0.0, 1.0, quad), integrate(sub2, 0.0, 1.0, quad)


def lemma_residual(f: FunctionSpec, iv: Interval, quad: QuadSpec = TIGHT_QUADSPEC) -> float:
    """|LHS - RHS| of the trapezoid-minus-mean integral identity (see ``_lemma_sides``)."""
    lhs, rhs = _lemma_sides(f, iv, quad)
    return abs(lhs - rhs)


def _lemma_sides(f: FunctionSpec, iv: Interval, quad: QuadSpec = TIGHT_QUADSPEC) -> tuple[float, float]:
    """Both sides of the trapezoid-minus-mean integral identity.

    LHS = (f(a)+f(b))/2 - harmonic mean of f; RHS = ab(b-a)/2 *
    int_0^1 (1-2t) (tb+(1-t)a)^(-2) f'(ab/(tb+(1-t)a)) dt, the kernel
    denominator read as squared.  Both sides are computed independently by
    quadrature at tight tolerance.
    """
    a, b = iv.a, iv.b
    mean = harmonic_mean_integral(f, a, b, quad)
    lhs = 0.5 * (eval_fn(f, a) + eval_fn(f, b)) - mean

    def integrand(t):
        denom = t * b + (1.0 - t) * a
        return (1.0 - 2.0 * t) / (denom * denom) * deriv(f, a * b / denom)

    rhs = 0.5 * a * b * (b - a) * integrate(integrand, 0.0, 1.0, quad)
    return lhs, rhs


def verify_bound(
    theorem: str,
    f: FunctionSpec,
    params: SMParams,
    iv: Interval,
    grid: int = 64,
    quad: QuadSpec = DEFAULT_QUADSPEC,
    use_printed_exponents: bool = False,
    enforce_certification: bool = True,
    companion: bool = True,
) -> VerificationRecord:
    """One trapezoid-error bound instance with oracle coefficients on the RHS.

    LHS = |(f(a)+f(b))/2 - harmonic mean|; the RHS prefactor and kernels
    follow the row's route in ``THEOREMS``, and ``use_printed_exponents``
    switches a ``printed_2q`` row (II3) to its literal exponent-2q form for
    diagnosis.

    Requires |f'|^q to pass harmonic (s,m)-convexity certification on [a, b/m]
    (bypassable for detector sanity tests via ``enforce_certification=False``).

    ``companion=False`` leaves out the last diagnostic, the row's printed
    coefficient set against its oracles, and with it the set's 2F1 terms and
    kernels.  The margin and every other diagnostic are unchanged, and the
    set accepts every (s, q) that ``reject`` accepts, so a caller that needs
    only the verdict (a search draw) can skip it.
    """
    if theorem not in GRADIENT_THEOREMS:
        raise ParameterError(f"unknown gradient theorem {theorem!r}; one of {GRADIENT_THEOREMS}")
    row = THEOREMS[theorem]
    s, m, q = params.s, params.m, params.q
    reason = row.reject(s, m, q)
    if reason is not None:
        raise ParameterError(reason)
    a, b = iv.a, iv.b
    window = (a, b / m)
    diagnostics: list[str] = []
    if enforce_certification:
        cert = certify_gradient(f, params, window, grid)
        if not cert.passed:
            raise CertificationError(
                f"|({f.label})'|^{q} is not harmonically ({s},{m})-convex on "
                f"[{window[0]}, {window[1]}] (worst margin {cert.worst_margin:.3e} at {cert.witness})"
            )
        diagnostics.append(f"cert_worst_margin={cert.worst_margin:.6e}")
    else:
        diagnostics.append("certification bypassed (diagnostic mode)")

    da = abs(deriv(f, a)) ** q
    db = abs(deriv(f, b / m)) ** q
    mean = _cached_mean(f, a, b, quad)
    lhs = abs(0.5 * (eval_fn(f, a) + eval_fn(f, b)) - mean)
    pref = 0.5 * a * b * (b - a)

    weights, r, kernels = ("W1", "W2"), q, ""
    if row.route == "power_mean":
        if use_printed_exponents and row.printed_2q:
            diagnostics.append("literal printed exponents (2q) in use")
        else:
            r = 1.0
        k0 = kernel_K("W1", 0.0, r, a, b, quad)
        factor = k0 ** (1.0 - 1.0 / q)
        kernels = f"k0={k0!r} "
    elif row.route == "split_power_mean":
        factor = 0.5 ** (1.0 - 1.0 / q)
    else:  # holder
        weights, p = ("N1", "N2"), params.p
        factor = (1.0 / (p + 1.0)) ** (1.0 / p)
    k1 = kernel_K(weights[0], s, r, a, b, quad)
    k2 = kernel_K(weights[1], s, r, a, b, quad)
    rhs = pref * factor * (k1 * da + m * k2 * db) ** (1.0 / q)
    diagnostics.append(f"oracle_kernels {kernels}k1={k1!r} k2={k2!r}")
    if row.note:
        diagnostics.append(row.note)
    if companion:
        printed = row.companion(s, q, iv)
        diagnostics.append(f"printed_{printed.name}_max_abs_dev={printed.max_abs_dev:.6e}")
    return _record(theorem, iv, params, f.label, lhs, rhs, diagnostics)


# ---------------------------------------------------------------------------
# Oracle-level reduction chain.  Each identity is checked between the cached
# kernel quadrature and an independently formulated integrand (the t -> 1-t
# substitution), so agreement is a genuine numerical statement.
# ---------------------------------------------------------------------------


# The substitution t -> 1-t maps each kernel weight onto its mirror.
_MIRROR = {"W1": "W2", "W2": "W1", "N1": "N2", "N2": "N1"}


def _substituted_kernel(weight: str, s: float, r: float, a: float, b: float,
                        quad: QuadSpec = DEFAULT_QUADSPEC) -> float:
    """Kernel integrals written in the t -> 1-t substituted form over (ta+(1-t)b)."""
    wfn = _WEIGHT_FNS[_MIRROR[weight]]
    use = quad.with_splits(0.5) if weight in ("W1", "W2") else quad
    return integrate(lambda t: wfn(t, s) * (t * a + (1.0 - t) * b) ** (-2.0 * r), 0.0, 1.0, use)


def kernel_oracle_identities(
    iv: Interval,
    s_grid: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    q_grid: tuple[float, ...] = (1.5, 2.0, 3.0),
) -> list[tuple[str, float, float]]:
    """(name, lhs, rhs) rows of the oracle-level reduction chain on one interval.

    Rows: the lambda2/lambda3 kernels, the s-row C2/C3 kernels, the s = 1
    N-kernels against the mu integrals, and the s = 0 coincidence of the two
    weighted kernels.  lhs uses the standard kernel orientation, rhs the
    substituted one.
    """
    a, b = iv.a, iv.b

    def chain(name: str, weight: str, s: float, r: float) -> tuple[str, float, float]:
        return name, kernel_K(weight, s, r, a, b), _substituted_kernel(weight, s, r, a, b)

    rows = [chain("K1(1,1) = lambda2 oracle", "W1", 1.0, 1.0), chain("K2(1,1) = lambda3 oracle", "W2", 1.0, 1.0)]
    for s in s_grid:
        rows += [chain(f"K1({s},1) = C2 oracle", "W1", s, 1.0), chain(f"K2({s},1) = C3 oracle", "W2", s, 1.0)]
    for q in q_grid:
        rows += [
            chain(f"N1(1,{q}) = mu1 oracle", "N1", 1.0, q),
            chain(f"N2(1,{q}) = mu2 oracle", "N2", 1.0, q),
            (f"rho1(0,{q}) oracle = rho2(0,{q}) oracle", kernel_K("W1", 0.0, q, a, b), kernel_K("W2", 0.0, q, a, b)),
        ]
    return rows
