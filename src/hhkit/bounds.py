"""Closed-form coefficient builders and theorem verifiers.

Every coefficient family is a kernel integral; the printed closed forms are
computed exactly as published and adjudicated against direct quadrature of the
defining kernel.  The quadrature oracles are contractual: theorem right-hand
sides are assembled from oracle values, with the printed forms reported
alongside so deviations document the source, not the implementation.
"""

from __future__ import annotations

import math
from contextlib import suppress
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps
from itertools import islice
from typing import Callable, Optional, TypeVar

from .errors import CertificationError, DomainError, ParameterError
from .functions import (
    FAMILY_ROWS,
    CheckReport,
    Family,
    FunctionSpec,
    GradientPower,
    SMParams,
    check_harmonic_sm_convex,
    check_sm_convex,
    clear_mesh_cache,
    deriv,
    eval_fn,
)
from .functions import _check_domain
from .quadrature import (
    DEFAULT_QUADSPEC,
    TIGHT_QUADSPEC,
    QuadSpec,
    harmonic_mean_integral,
    integrate,
    integrate_many,
    kernel_K,
)
from .quadrature import _kernel_plan
from .specfun import Hyp2F1Args, _euler_jobs, _hyp2f1_from_integral, beta, hyp2f1_euler

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
    "PrintedSet",
    "PRINTED_SETS",
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
    "kernel_oracle_identities",
    "batched",
]

TOL_ACCEPT = 1e-9


@dataclass(frozen=True)
class Interval:
    """An interval 0 < a < b; z = 1 - a/b is the hypergeometric argument."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a < self.b < math.inf:
            raise DomainError(f"interval requires finite 0 < a < b, got ({self.a}, {self.b})")

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


class _Batch:
    """The 2F1 terms, kernels and means of one ``batched`` call.  While its
    plan runs, ``planned`` maps each key looked up to the integrate_many jobs
    that compute it and the function of their values that gives it; then
    ``served`` maps each key the batch finished to its value, and
    ``planned`` is emptied."""

    def __init__(self) -> None:
        self.planned: dict[tuple, tuple] = {}
        self.served: Optional[dict[tuple, float]] = None


# The batch of the innermost ``batched`` call, if any.
_BATCH: ContextVar[Optional[_Batch]] = ContextVar("hhkit_bounds_batch", default=None)


def _planning() -> bool:
    batch = _BATCH.get()
    return batch is not None and batch.served is None


def _lookup(kind: str, args: tuple, plan: Callable[..., tuple], compute: Callable[..., float]) -> float:
    """The value of the 2F1 term, kernel or mean ``(kind, *args)``:
    ``compute(*args)``, unless a ``batched`` call serves it.  While a plan
    runs, the key is noted with ``plan(*args)`` (the jobs and their
    combination, built after the checks that ``compute`` would make), and the
    value is a placeholder.  Outside a batch no key is built."""
    batch = _BATCH.get()
    if batch is None:
        return compute(*args)
    key = (kind, *args)
    if batch.served is None:
        if key not in batch.planned:
            batch.planned[key] = plan(*args)
        return 1.0
    value = batch.served.get(key)
    return compute(*args) if value is None else value


def _integrated(plan: Callable[..., tuple], *args) -> float:
    """The value ``plan(*args)`` names, with its jobs integrated one by one."""
    jobs, combine = plan(*args)
    return combine(*(integrate(partial(family, *params), lo, hi, spec) for family, params, lo, hi, spec in jobs))


_T = TypeVar("_T")


def batched(body: Callable[[], _T], plan: Optional[Callable[[], object]] = None) -> _T:
    """``body()``, with every 2F1 term, kernel and mean it looks up
    integrated in one ``integrate_many`` call.

    First ``plan`` runs (``body`` itself when left out), with each lookup
    noting its key and returning a placeholder, and with the coefficient
    builders uncached, so that no placeholder reaches a cache; an error of
    the plan ends it and is suppressed.  Then the keys planned so far are
    integrated, and ``body`` runs and its result is returned.  The batch
    serves each key whose jobs all finished.  A key it does not serve (one
    not planned, one with a job that left the batch, or any key of a batch
    that raised) is integrated alone where ``body`` looks it up, through
    that lookup's own ``compute``, and meets its own error there, as it
    would without the batch.
    """
    batch = _Batch()
    token = _BATCH.set(batch)
    try:
        with suppress(Exception):
            (body if plan is None else plan)()
        batch.served = _serve(batch.planned)
        batch.planned = {}
        return body()
    finally:
        _BATCH.reset(token)


def _serve(planned: dict[tuple, tuple]) -> dict[tuple, float]:
    """The value of each planned key whose jobs all finish in one
    ``integrate_many`` call; no value at all if that call raises."""
    with suppress(Exception):
        values = iter(integrate_many([job for jobs, _ in planned.values() for job in jobs]))
        return {key: combine(*got) for key, (jobs, combine) in planned.items()
                if None not in (got := list(islice(values, len(jobs))))}
    return {}


def _f21(a: float, b: float, c: float, z: float) -> float:
    return _lookup("2F1", (float(a), float(b), float(c), float(z)), _f21_plan, _f21_alone)


def _f21_plan(*key: float) -> tuple:
    args = Hyp2F1Args(*key)
    return _euler_jobs(args), lambda left, right: _hyp2f1_from_integral(args, left + right)


def _f21_alone(*key: float) -> float:
    return hyp2f1_euler(Hyp2F1Args(*key))


def _kernel(weight: str, s: float, r: float, a: float, b: float) -> float:
    """``kernel_K(weight, s, r, a, b)``, as a lookup."""
    return _lookup("K", (weight, s, r, a, b), _kernel_plan, kernel_K)


def _coefficient_cache(body: Callable[..., CoefficientSet]) -> Callable[..., CoefficientSet]:
    """``lru_cache(maxsize=2048)`` of a coefficient builder, bypassed while a
    ``batched`` plan runs: the set it builds then holds placeholders."""
    cached = lru_cache(maxsize=2048)(body)

    @wraps(body)
    def builder(*args, **kwargs):
        return body(*args, **kwargs) if _planning() else cached(*args, **kwargs)

    builder.cache_info, builder.cache_clear = cached.cache_info, cached.cache_clear
    return builder


# ---------------------------------------------------------------------------
# Coefficient builders.  "Printed" tuples follow the published formulas
# exactly; oracles integrate the defining kernels.
# ---------------------------------------------------------------------------


@_coefficient_cache
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
        _kernel("W1", 0.0, 1.0, a, b),
        _kernel("W1", 1.0, 1.0, a, b),
        _kernel("W2", 1.0, 1.0, a, b),
    )
    return _coeff_set("Lambda", ("lambda1", "lambda2", "lambda3"), (lam1, lam2, lam3), oracles)


@_coefficient_cache
def coeff_mu(q: float, iv: Interval) -> CoefficientSet:
    """Both printed forms of the Holder-route coefficients for q > 1.

    The elementary forms and the hypergeometric forms (printed pairing of the
    s = 1 remark) are all evaluated; oracles are int t (tb+(1-t)a)^(-2q) dt and
    int (1-t)(...)^(-2q) dt.  The hypergeometric labels are adjudicated against
    the oracles; see the reduction report for the observed pairing.
    """
    if not 1.0 < q < math.inf:
        raise ParameterError(f"mu coefficients require a finite q > 1, got {q}")
    a, b = iv.a, iv.b
    z = iv.z
    denom = 2.0 * (b - a) ** 2 * (1.0 - q) * (1.0 - 2.0 * q)
    mu1_elem = (a ** (2.0 - 2.0 * q) + b ** (1.0 - 2.0 * q) * ((b - a) * (1.0 - 2.0 * q) - a)) / denom
    mu2_elem = (b ** (2.0 - 2.0 * q) - a ** (1.0 - 2.0 * q) * ((b - a) * (1.0 - 2.0 * q) + b)) / denom
    mu1_hyp = 1.0 / (2.0 * b ** (2.0 * q)) * _f21(2.0 * q, 2.0, 3.0, z)
    mu2_hyp = 1.0 / (2.0 * b ** (2.0 * q)) * _f21(2.0 * q, 1.0, 3.0, z)
    o1 = _kernel("N1", 1.0, q, a, b)
    o2 = _kernel("N2", 1.0, q, a, b)
    return _coeff_set(
        "Mu",
        ("mu1_elementary", "mu2_elementary", "mu1_hypergeometric", "mu2_hypergeometric"),
        (mu1_elem, mu2_elem, mu1_hyp, mu2_hyp),
        (o1, o2, o1, o2),
    )


@_coefficient_cache
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
    # C1 and C3 end in the same term.
    c1 = b2 * (_f21(2, 2, 3, z) - _f21(2, 1, 2, z) + (c13_tail := 0.5 * _f21(2, 1, 3, 0.5 * z)))
    c2 = b2 * (
        2.0 / (s + 2.0) * _f21(2, s + 2.0, s + 3.0, z)
        - 1.0 / (s + 1.0) * _f21(2, s + 1.0, s + 2.0, z)
        + 1.0 / (2.0**s * (s + 1.0) * (s + 2.0)) * _f21(2, s + 1.0, s + 3.0, 0.5 * z)
    )
    c3 = b2 * (
        2.0 / ((s + 1.0) * (s + 2.0)) * _f21(2, 2, s + 3.0, z)
        - 1.0 / (s + 1.0) * _f21(2, 1, s + 2.0, z)
        + c13_tail
    )
    oracles = (
        _kernel("W1", 0.0, 1.0, a, b),
        _kernel("W1", s, 1.0, a, b),
        _kernel("W2", s, 1.0, a, b),
    )
    return _coeff_set("C", ("C1", "C2", "C3"), (c1, c2, c3), oracles)


@_coefficient_cache
def coeff_rho(s: float, r: float, iv: Interval) -> CoefficientSet:
    """Printed power-mean-route coefficients, exponent 2r kernels (r plays q).

    rho2 is evaluated in both published variants: the theorem statement's
    three-term form and the proof's post-cancellation single-term form.  The
    oracle adjudicates which matches int |1-2t| (1-t)^s (tb+(1-t)a)^(-2r) dt.
    """
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"rho coefficients require s in [0, 1], got {s}")
    if not 1.0 <= r < math.inf:
        raise ParameterError(f"rho coefficients require a finite r >= 1, got {r}")
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
    # The proof's single term is the first term of the statement's form.
    rho2_proof = beta(s + 1.0, 2.0) / (2.0**s * b2q) * _f21(2.0 * r, s + 1.0, s + 3.0, z_half)
    rho2_statement = (
        rho2_proof
        - beta(s + 1.0, 2.0) / b2q * _f21(2.0 * r, s + 1.0, s + 3.0, z)
        + beta(s + 2.0, 1.0) / b2q * _f21(2.0 * r, s + 2.0, s + 3.0, z)
    )
    o1 = _kernel("W1", s, r, a, b)
    o2 = _kernel("W2", s, r, a, b)
    return _coeff_set(
        "Rho",
        ("rho1", "rho2_statement", "rho2_proof"),
        (rho1, rho2_statement, rho2_proof),
        (o1, o2, o2),
    )


@_coefficient_cache
def coeff_nu(s: float, q: float, iv: Interval) -> CoefficientSet:
    """Printed Holder-route coefficients nu1, nu2 for q > 1 (kernels without |1-2t|)."""
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"nu coefficients require s in [0, 1], got {s}")
    if not 1.0 < q < math.inf:
        raise ParameterError(f"nu coefficients require a finite q > 1, got {q}")
    a, b = iv.a, iv.b
    z = iv.z
    b2q = b ** (2.0 * q)
    nu1 = beta(1.0, s + 1.0) / b2q * _f21(2.0 * q, 1.0, s + 2.0, z)
    nu2 = beta(s + 1.0, 1.0) / b2q * _f21(2.0 * q, s + 1.0, s + 2.0, z)
    oracles = (_kernel("N1", s, q, iv.a, iv.b), _kernel("N2", s, q, iv.a, iv.b))
    return _coeff_set("Nu", ("nu1", "nu2"), (nu1, nu2), oracles)


@dataclass(frozen=True)
class PrintedSet:
    """One printed coefficient set: the parameters its builder takes before the
    interval ("", "q", "s" or "sq"), the range those parameters must lie in
    (the hint of a missing-parameter message), and its builder's name."""

    name: str
    takes: str
    ranges: str
    builder: str

    def build(self, s: Optional[float], q: Optional[float], iv: Interval) -> CoefficientSet:
        """The set at (s, q) on ``iv``; the builder is looked up when called."""
        return globals()[self.builder](*(s if p == "s" else q for p in self.takes), iv)


PRINTED_SETS: dict[str, PrintedSet] = {row.name: row for row in (
    PrintedSet("lambda", "", "", "coeff_lambda"),
    PrintedSet("mu", "q", "range: q > 1", "coeff_mu"),
    PrintedSet("c", "s", "range: 0 < s <= 1", "coeff_C"),
    PrintedSet("rho", "sq", "s in [0,1], q >= 1", "coeff_rho"),
    PrintedSet("nu", "sq", "s in [0,1], q > 1", "coeff_nu"),
)}


# ---------------------------------------------------------------------------
# Certification (grid checks, cached -- certification dominates sweep cost).
# All keys are frozen dataclasses/floats, so lru_cache applies directly.
# ---------------------------------------------------------------------------


# Bounded so that random search cannot grow them without limit; 4096 covers
# the default sweep's distinct keys, so its hit ratios are unaffected.  Typed,
# so that a grid of 48.0 or True is checked, not served the entry of 48 or 1.
CERT_CACHE_SIZE = 4096


@lru_cache(maxsize=CERT_CACHE_SIZE, typed=True)
def certify_function(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached harmonic (s,m)-convexity certification of ``f`` itself."""
    return check_harmonic_sm_convex(f, SMParams(params.s, params.m), grid, window)


@lru_cache(maxsize=CERT_CACHE_SIZE, typed=True)
def certify_gradient(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached harmonic (s,m)-convexity certification of |f'|^q on ``window``."""
    return check_harmonic_sm_convex(GradientPower(f, params.q), SMParams(params.s, params.m), grid, window)


@lru_cache(maxsize=CERT_CACHE_SIZE, typed=True)
def certify_plain(f: FunctionSpec, params: SMParams, window: tuple[float, float], grid: int = 64) -> CheckReport:
    """Cached ordinary (s,m)-convexity certification (classical HH gate)."""
    return check_sm_convex(f, SMParams(params.s, params.m), grid, window)


def _mean_integrand(value: Callable, harmonic: bool, *args):
    """A row's ``value`` as an ``integrate_many`` family: ``value(params, x)``,
    over x^2 for the harmonic mean.  Rows raise with ``_pow``, so that each
    value is the same, bit for bit, as with the row's scalar parameters."""
    *params, x = args
    y = value(params, x)
    return y / (x * x) if harmonic else y


def _mean_family(row: Family, harmonic: bool) -> Callable:
    family = partial(_mean_integrand, row.value, harmonic)
    family.exponents = row.exponents
    return family


# The harmonic and plain mean integrands of each family row, built once so
# that a batch evaluates the means of a row together.
_MEAN_FAMILIES = {(name, harmonic): _mean_family(row, harmonic)
                  for name, row in FAMILY_ROWS.items() for harmonic in (True, False)}


def _mean_plan(f: FunctionSpec, a: float, b: float, spec: QuadSpec, harmonic: bool = True) -> tuple:
    """The job of ``_cached_mean`` (or, not ``harmonic``, of ``_plain_mean``)
    and its combination, after ``eval_fn``'s domain check on [a, b]."""
    if harmonic and not 0.0 < a < b:
        raise DomainError(f"harmonic mean integral requires 0 < a < b, got ({a}, {b})")
    _check_domain(f, a)
    _check_domain(f, b)
    job = (_MEAN_FAMILIES[f.family, harmonic], f.params, a, b, spec)
    if harmonic:
        weight = a * b / (b - a)
        return (job,), lambda value: weight * value
    return (job,), lambda value: value / (b - a)


def _plain_plan(f: FunctionSpec, a: float, b: float) -> tuple:
    """The plain mean's ``_mean_plan``, with the spec ``_mean`` reads: the
    module's ``DEFAULT_QUADSPEC`` when called."""
    return _mean_plan(f, a, b, DEFAULT_QUADSPEC, harmonic=False)


@lru_cache(maxsize=CERT_CACHE_SIZE)
def _cached_mean(f: FunctionSpec, a: float, b: float, spec: QuadSpec) -> float:
    return _integrated(_mean_plan, f, a, b, spec)


_plain_mean = partial(_integrated, _plain_plan)


def _mean(f: FunctionSpec, a: float, b: float) -> float:
    """The harmonic mean of ``f`` on [a, b] (cached), as a lookup."""
    return _lookup("mean", (f, a, b, DEFAULT_QUADSPEC), _mean_plan, _cached_mean)


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
    N1/N2).  Every gradient row has a ``companion(s, q, iv)``: the ``build`` of
    a ``PRINTED_SETS`` row, or for II3 the rho set at r = 1.
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
    Theorem("I1", "smq", "power_mean", unit_sm=True, companion=PRINTED_SETS["lambda"].build),
    Theorem("I2", "smq", "holder", unit_sm=True, q_above_one=True, companion=PRINTED_SETS["mu"].build),
    Theorem("FS1", "smq", "power_mean", unit_m=True, companion=PRINTED_SETS["c"].build),
    Theorem("FS2", "smq", "holder", unit_m=True, q_above_one=True, companion=PRINTED_SETS["nu"].build,
            note="FS2 evaluated via its m=1 Holder form (identical value)"),
    Theorem("II2", "smq", "split_power_mean", companion=PRINTED_SETS["rho"].build),
    Theorem("II3", "smq", "power_mean", printed_2q=True, companion=lambda s, q, iv: coeff_rho(s, 1.0, iv)),
    Theorem("II4", "smq", "holder", q_above_one=True, companion=PRINTED_SETS["nu"].build),
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
        mean = _mean(f, a, b)
    else:
        mid = eval_fn(f, 0.5 * (a + b))
        mean = _lookup("plain", (f, a, b), _plain_plan, _plain_mean)
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
    lhs = _mean(f, a, b)
    avg_ab = (eval_fn(f, a) + m * eval_fn(f, b / m)) / (s + 1.0)
    avg_ba = (eval_fn(f, b) + m * eval_fn(f, a / m)) / (s + 1.0)
    rhs = min(avg_ab, avg_ba)
    diagnostics.append(f"endpoint_averages=({avg_ab!r}, {avg_ba!r})")
    return _record("II1", iv, params, f.label, lhs, rhs, diagnostics)


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
    mean = _mean(f, a, b)
    lhs = abs(0.5 * (eval_fn(f, a) + eval_fn(f, b)) - mean)
    pref = 0.5 * a * b * (b - a)

    weights, r, kernels = ("W1", "W2"), q, ""
    if row.route == "power_mean":
        if use_printed_exponents and row.printed_2q:
            diagnostics.append("literal printed exponents (2q) in use")
        else:
            r = 1.0
        k0 = _kernel("W1", 0.0, r, a, b)
        factor = k0 ** (1.0 - 1.0 / q)
        kernels = f"k0={k0!r} "
    elif row.route == "split_power_mean":
        factor = 0.5 ** (1.0 - 1.0 / q)
    else:  # holder
        weights, p = ("N1", "N2"), params.p
        factor = (1.0 / (p + 1.0)) ** (1.0 / p)
    k1 = _kernel(weights[0], s, r, a, b)
    k2 = _kernel(weights[1], s, r, a, b)
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


def _substituted_kernel(weight: str, s: float, r: float, a: float, b: float) -> float:
    """The kernel ``kernel_K(weight, s, r, a, b)`` by an independent
    integrand: the mirror weight after t -> 1-t, in the log variable taken
    from the other end, y = b (a/b)^v (``_kernel_plan`` with ``mirrored``)."""
    return _lookup("S", (weight, s, r, a, b), _substituted_plan, _substituted_value)


_substituted_plan = partial(_kernel_plan, mirrored=True)
_substituted_value = partial(_integrated, _substituted_plan)


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
        return name, _kernel(weight, s, r, a, b), _substituted_kernel(weight, s, r, a, b)

    rows = [chain("K1(1,1) = lambda2 oracle", "W1", 1.0, 1.0), chain("K2(1,1) = lambda3 oracle", "W2", 1.0, 1.0)]
    for s in s_grid:
        rows += [chain(f"K1({s},1) = C2 oracle", "W1", s, 1.0), chain(f"K2({s},1) = C3 oracle", "W2", s, 1.0)]
    for q in q_grid:
        rows += [
            chain(f"N1(1,{q}) = mu1 oracle", "N1", 1.0, q),
            chain(f"N2(1,{q}) = mu2 oracle", "N2", 1.0, q),
            (f"rho1(0,{q}) oracle = rho2(0,{q}) oracle", _kernel("W1", 0.0, q, a, b), _kernel("W2", 0.0, q, a, b)),
        ]
    return rows
