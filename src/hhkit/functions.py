"""Curated differentiable function families and convexity-definition checkers.

One table, ``FAMILY_ROWS``, holds one row per family: its parameters in order
(each the name, default and help text of a ``hhkit verify`` flag), value,
derivative and power form (c, e) when the formula is c x^e.  Every consumer
reads it, so adding a family means adding a row.  ``spiece`` is b0 x^sexp +
c0 on x > 0 (a0 is metadata).

Convexity certification is grid-based: a candidate passes when the defining
inequality holds (within a slack of max(1e-12, 64 ulps of the local value
scale)) on a log-spaced x,y mesh of ``grid`` >= 8 points a side crossed with
a t mesh containing {0, 1/2, 1}.  The report carries the worst margin and its
witness, so failures are reproducible.

Homogeneous targets, c x^e on the window, are checked on the border of the
x,y mesh only: ``pow`` with shift 0, ``recip``, ``spiece`` with c0 = 0, and
|f'|^q of these (``homogeneity``).  A diagonal of the geometric mesh (fixed
j - i) has one ratio r = y/x, and with y = r x both combined points are x
times a function of (r, t).  So along a diagonal, at each t, the margin is
u g(r, t) and the slack max(1e-12, 64 ulps * u h(r, t)), with u = |c| x^e:
the excess is positive only where g > 64 ulps * h, and then grows with u, so
it peaks at one of the diagonal's two ends.  Those ends are the 4n - 4 border
pairs (i or j at 0 or n - 1), evaluated with the full mesh's formulas at the
same points: verdicts and failing reports are the full mesh's.  Where g = 0 a
margin is rounding noise, so a passing check's worst margin may differ there,
within the slack.  Bare callables, ``exp``, ``affine``, shifted ``pow`` and
``spiece`` with c0 != 0 keep the full mesh.

A homogeneous target is certified once per reduced problem.  With lo the
window's left end and lambda = |c| lo^e, the check of c x^e on [lo, hi] is
lambda times the check of sign(c) x^e on the canonical window [1, R], R =
hi / lo, at every point, apart from rounding and the absolute 1e-12 slack,
which does not scale.  So one cached entry per (e, sign c, s, m, R, grid,
combination) holds the canonical border check's worst margin and witness
and its peak: the largest margin beyond half the relative slack (64 ulps of
the value scale).  The instance passes when lambda * peak <= 1e-12 / 2, and
then reports the canonical worst margin times lambda at the witness (lo x,
lo y, t).  A point the instance's own check would fail clears half of both
slacks in the canonical check, so no such instance passes; every other
instance runs its own border check, which gives its verdict and its report,
so a failing report is the border check's, bit for bit.  A function and a
gradient with the same exponent (e for c x^e, (e - 1) q for |f'|^q) share
an entry.  A window whose combined points [m lo, hi] come within rounding of
the edge of the domain, and scales beyond exp(+-200), keep the own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, InconclusiveError, ParameterError
from .quadrature import _pow

__all__ = [
    "FAMILIES",
    "FAMILY_ROWS",
    "Family",
    "Param",
    "FunctionSpec",
    "SMParams",
    "CheckReport",
    "check_grid",
    "GradientPower",
    "eval_fn",
    "deriv",
    "harmonic_combine",
    "check_harmonic_sm_convex",
    "check_sm_convex",
    "clear_mesh_cache",
    "compose_g",
    "check_prop1_implication",
]

CHECK_SLACK = 1e-12
_SLACK_SCALE = 64.0 * np.finfo(float).eps  # the relative slack: 64 ulps of the local value scale
_DOMAIN_SLACK = 1e-9  # relative; absorbs rounding of combined points at window edges


class Param(NamedTuple):
    """One family parameter, and its ``hhkit verify`` flag's default and help."""

    name: str
    default: Optional[float]
    help: str


@dataclass(frozen=True)
class Family:
    """One family row; value, deriv and power take the params tuple.
    ``exponents`` are the positions of the params that value uses only as
    exponents of ``quadrature._pow`` (see ``quadrature._batch_family``)."""

    name: str
    params: tuple[Param, ...]
    value: Callable
    deriv: Callable
    power: Callable = lambda p: None
    exponents: tuple[int, ...] = ()


def _exp_value(p, x):
    return np.exp(p[0] * x) if isinstance(x, np.ndarray) else math.exp(p[0] * x)


FAMILY_ROWS: dict[str, Family] = {row.name: row for row in (
    Family("pow", (Param("coeff", 1.0, "coefficient"), Param("exp", 2.0, "exponent"),
                   Param("shift", 0.0, "additive shift")),
           lambda p, x: p[0] * _pow(x, p[1]) + p[2],
           lambda p, x: p[0] * p[1] * x ** (p[1] - 1.0), lambda p: (p[0], p[1]) if p[2] == 0.0 else None,
           exponents=(1,)),
    Family("spiece", (Param("a0", 1.0, "value at 0"), Param("b0", 1.0, "power coefficient"),
                      Param("c0", 0.0, "additive constant"), Param("sexp", None, "power (defaults to --s)")),
           lambda p, x: p[1] * _pow(x, p[3]) + p[2],
           lambda p, x: p[1] * p[3] * x ** (p[3] - 1.0), lambda p: (p[1], p[3]) if p[2] == 0.0 else None,
           exponents=(3,)),
    Family("recip", (), lambda p, x: 1.0 / x, lambda p, x: -1.0 / (x * x), lambda p: (1.0, -1.0)),
    Family("affine", (Param("slope", 1.0, "slope"), Param("intercept", 0.0, "intercept")),
           lambda p, x: p[0] * x + p[1],
           lambda p, x: p[0] * np.ones_like(x) if isinstance(x, np.ndarray) else p[0]),
    Family("exp", (Param("scale", 1.0, "exponent scale"),), _exp_value, lambda p, x: p[0] * _exp_value(p, x)),
)}

FAMILIES = tuple(FAMILY_ROWS)


@dataclass(frozen=True)
class FunctionSpec:
    """One member of the curated families (a ``FAMILY_ROWS`` row and its
    params, in the row's order), with an explicit analysis window."""

    family: str
    params: tuple[float, ...]
    domain_lo: float
    domain_hi: float

    def __post_init__(self) -> None:
        if self.family not in FAMILY_ROWS:
            raise DomainError(f"unknown family {self.family!r}; one of {FAMILIES}")
        if not 0.0 < self.domain_lo < self.domain_hi:
            raise DomainError(
                f"domain must satisfy 0 < lo < hi, got ({self.domain_lo}, {self.domain_hi})"
            )
        n_expected = len(FAMILY_ROWS[self.family].params)
        if len(self.params) != n_expected or not all(map(math.isfinite, self.params)):
            raise DomainError(f"{self.family} takes {n_expected} finite parameters, got {self.params}")
        if self.family == "spiece":
            a0, b0, c0, _ = self.params
            if b0 < 0.0 or not 0.0 <= c0 <= a0:
                raise DomainError(f"spiece requires b0 >= 0 and 0 <= c0 <= a0, got {self.params}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def power(cls, coeff: float, exponent: float, shift: float, lo: float, hi: float) -> "FunctionSpec":
        return cls("pow", (float(coeff), float(exponent), float(shift)), lo, hi)

    @classmethod
    def spiece(cls, a0: float, b0: float, c0: float, s: float, lo: float, hi: float) -> "FunctionSpec":
        return cls("spiece", (float(a0), float(b0), float(c0), float(s)), lo, hi)

    @classmethod
    def reciprocal(cls, lo: float, hi: float) -> "FunctionSpec":
        return cls("recip", (), lo, hi)

    @classmethod
    def affine(cls, slope: float, intercept: float, lo: float, hi: float) -> "FunctionSpec":
        return cls("affine", (float(slope), float(intercept)), lo, hi)

    @classmethod
    def exponential(cls, scale: float, lo: float, hi: float) -> "FunctionSpec":
        return cls("exp", (float(scale),), lo, hi)

    @property
    def label(self) -> str:
        # Formed once per spec.  Not functools.cached_property: before Python
        # 3.12 it takes a lock, which costs more than the text on the first
        # read, and a search reads the label of each of its specs once.
        label = self.__dict__.get("label")
        if label is None:
            inner = ",".join(format(p, "g") for p in self.params)
            label = self.__dict__["label"] = f"{self.family}({inner})"
        return label

    @property
    def homogeneity(self) -> Optional[tuple[float, float]]:
        """(c, e) when the formula is c * x**e, else None."""
        return FAMILY_ROWS[self.family].power(self.params)

    def __call__(self, x):
        return eval_fn(self, x)


def _check_domain(f: FunctionSpec, x) -> None:
    lo = f.domain_lo * (1.0 - _DOMAIN_SLACK)
    hi = f.domain_hi * (1.0 + _DOMAIN_SLACK)
    if isinstance(x, float):
        xmin = xmax = float(x)
    else:
        xmin = float(np.min(x))
        xmax = float(np.max(x))
    if xmin < lo or xmax > hi:
        raise DomainError(
            f"argument range [{xmin}, {xmax}] leaves the domain [{f.domain_lo}, {f.domain_hi}] of {f.label}"
        )


def eval_fn(f: FunctionSpec, x):
    """Evaluate ``f`` at ``x`` (scalar or ndarray) with domain checking."""
    _check_domain(f, x)
    return FAMILY_ROWS[f.family].value(f.params, x)


def deriv(f: FunctionSpec, x):
    """Exact derivative of the family formula at ``x``."""
    _check_domain(f, x)
    return FAMILY_ROWS[f.family].deriv(f.params, x)


def _harmonic_formula(x, y, t, m: float):
    """m x y / (m t y + (1-t) x) as rounded, endpoints included."""
    return m * x * y / (m * t * y + (1.0 - t) * x)


def harmonic_combine(x, y, t, m: float = 1.0):
    """The weighted harmonic combination m x y / (m t y + (1-t) x).

    Equivalently (t/x + (1-t)/(m y))^(-1).  The endpoints t = 1 and t = 0 are
    returned exactly as x and m*y so that equality rows of the convexity checks
    are free of rounding noise.
    """
    raw = _harmonic_formula(x, y, t, m)
    if np.ndim(raw) == 0:
        if t == 1.0:
            return x * 1.0
        if t == 0.0:
            return m * y
        return raw
    tb = np.broadcast_to(t, raw.shape)
    out = np.where(tb == 1.0, np.broadcast_to(x * 1.0, raw.shape), raw)
    return np.where(tb == 0.0, np.broadcast_to(m * y, raw.shape), out)


@dataclass(frozen=True)
class SMParams:
    """Convexity and exponent parameters (s, m, q) with p = q/(q-1) for q > 1.

    The defining class uses s in (0, 1]; the gradient theorems are stated for
    s in [0, 1], so s = 0 is accepted here and flagged by the checkers as
    outside the definitional range.
    """

    s: float
    m: float
    q: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ParameterError(f"s must lie in [0, 1], got {self.s}")
        if not 0.0 < self.m <= 1.0:
            raise ParameterError(f"m must lie in (0, 1], got {self.m}")
        if not 1.0 <= self.q < math.inf:
            raise ParameterError(f"q must be a finite number >= 1, got {self.q}")

    @property
    def p(self) -> Optional[float]:
        return self.q / (self.q - 1.0) if self.q > 1.0 else None

    @property
    def s_in_definition_range(self) -> bool:
        return self.s > 0.0


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    worst_margin: float
    witness: Optional[tuple[float, float, float]]
    samples: int
    diagnostics: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class GradientPower:
    """|f'|^q as a hashable callable: the target of gradient certification.

    Grid checks share one mesh of |f'| values across every q of the same f.
    """

    f: FunctionSpec
    q: float

    @property
    def homogeneity(self) -> Optional[tuple[float, float]]:
        """(|c e|^q, (e - 1) q) when f is c x^e, else None."""
        h = self.f.homogeneity
        if h is None:
            return None
        c, e = h
        return abs(c * e) ** self.q, (e - 1.0) * self.q

    def __call__(self, x):
        return np.abs(deriv(self.f, x)) ** self.q


FuncLike = Union[FunctionSpec, GradientPower, Callable]


def check_grid(grid: int) -> None:
    """Reject a certification grid density that is not an integer (a bool is
    not one), or is below 8 (a mesh too coarse to certify)."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)):
        raise ParameterError(f"certification grid density must be an integer, got {grid!r}")
    if grid < 8:
        raise ParameterError(f"certification grid density must be >= 8, got {grid}")


# Typed, so that 48.0 or True is checked, not served the entry of 48 or 1.
@lru_cache(maxsize=8, typed=True)
def _mesh_axes(grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The t mesh of one density, 1 - t on it, and the (i, j) index pairs of
    the border of its x,y mesh, in row-major order (arrays read-only).  Every
    mesh starts here, so here the density is checked."""
    check_grid(grid)
    # t mesh must contain the exact endpoints and the midpoint 1/2 (equality
    # rows).  np.sort, not np.unique, puts it in: np.unique imports numpy.ma.
    ts = np.linspace(0.0, 1.0, grid + 1)
    if 0.5 not in ts:
        ts = np.sort(np.append(ts, 0.5))
    i, j = np.divmod(np.arange(grid * grid), grid)
    edge = (i == 0) | (i == grid - 1) | (j == 0) | (j == grid - 1)
    axes = ts, 1.0 - ts, i[edge], j[edge]
    for arr in axes:
        arr.flags.writeable = False
    return axes


@lru_cache(maxsize=8)
def _ramp(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1 (read-only): the steps of an n-point geometric mesh."""
    ramp = np.arange(n, dtype=float)
    ramp.flags.writeable = False
    return ramp


def _geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)`` for 0 < lo < hi and n >= 2, bit for bit:
    numpy's own formula, without its argument handling (a tenth of its cost).
    It takes numpy's log10: ``math.log10`` differs from it in the last bit."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = _ramp(n) * ((log_hi - log_lo) / (n - 1))
    y += log_lo
    y[-1] = log_hi
    xs = np.power(10.0, y, out=y)
    xs[0], xs[-1] = lo, hi
    return xs


def _mesh(f: FuncLike, grid: int, window: Optional[tuple[float, float]], border: bool = False):
    """The x, y, t mesh, broadcastable to (grid, grid, t points); with
    ``border`` only its border (x, y) pairs, in row-major order, as columns
    broadcastable to (4 grid - 4, t points)."""
    if window is None:
        if not isinstance(f, FunctionSpec):
            raise DomainError("a sampling window is required when f is a bare callable")
        window = (f.domain_lo, f.domain_hi)
    lo, hi = window
    if not 0.0 < lo < hi:
        raise DomainError(f"window must satisfy 0 < lo < hi, got {window}")
    ts, _, i, j = _mesh_axes(grid)
    xs = _geomspace(lo, hi, grid)
    if border:
        return xs[i, None], xs[j, None], ts[None, :]
    return xs[:, None, None], xs[None, :, None], ts[None, None, :]


def _mesh_points(combiner, x, y, t, m: float) -> np.ndarray:
    """The combined points of a mesh whose last axis is ``_mesh_axes``'s t:
    its t = 0 and t = 1 columns are set to m y and x, as ``harmonic_combine``
    returns them (``_linear_combine`` rounds to them already)."""
    pts = (_harmonic_formula if combiner is harmonic_combine else combiner)(x, y, t, m)
    pts[..., 0] = m * y[..., 0]
    pts[..., -1] = x[..., 0]
    return pts


class _MeshValues(NamedTuple):
    """One mesh's x and y and the target's values on it (arrays read-only)."""

    x: np.ndarray
    y: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    fpts: np.ndarray


def _mesh_stage(f: FuncLike, gradient: bool, combiner, m: float, grid: int, window) -> _MeshValues:
    """Everything a grid check needs that does not depend on (s, q).

    With ``gradient`` the values are |f'| (each row raises them to its q),
    otherwise f itself.  A homogeneous ``f`` gets the border mesh (module
    docstring), and so does |f'|^q of it.
    """
    border = isinstance(f, FunctionSpec) and f.homogeneity is not None
    x, y, t = _mesh(f, grid, window, border)
    pts = _mesh_points(combiner, x, y, t, m)
    fn = (lambda v: np.abs(deriv(f, v))) if gradient else f
    return _MeshValues(x, y, fn(x), fn(y), fn(pts))


# A mesh is shared by every (s, q) row on it; the rows of one (f, window, m)
# arrive together, so a few entries suffice (about 1 MiB each at grid 48).
@lru_cache(maxsize=4)
def _shared_mesh_stage(f: FunctionSpec, gradient: bool, combiner, m: float, grid: int, window) -> _MeshValues:
    mesh = _mesh_stage(f, gradient, combiner, m, grid, window)
    for arr in mesh:
        arr.flags.writeable = False
    return mesh


def clear_mesh_cache() -> None:
    """Empty the mesh cache and the cache of reduced problems."""
    _shared_mesh_stage.cache_clear()
    _reduced_rows.cache_clear()


def _diagnostics(s: float) -> tuple[str, ...]:
    return ("s=0 is outside the definitional range (0,1]; theorem-driver extension",) if s == 0.0 else ()


def _row_stage(x, y, fx, fy, fpts, grid: int, s: float, m: float, nonnegative: bool, probe: bool = False):
    """The report of one (s, m) row on a mesh of density ``grid`` and, with
    ``probe``, its peak: the largest margin beyond half the relative slack,
    NaN if a margin is NaN, -inf if none is beyond.  ``nonnegative`` says
    that every value is >= 0."""
    ts, us = _mesh_axes(grid)[:2]
    lhs_w = ts**s * fx
    rhs_w = m * us**s * fy
    # margin = fpts - (lhs_w + rhs_w) and excess = margin - slack, written in
    # place into two buffers of one block (glibc keeps its pages for the next
    # check; two full-mesh blocks were page-faulted afresh on every call).
    # The order of operations fixes every float of the reports, so keep it.
    shape = np.broadcast(fpts, lhs_w, rhs_w).shape
    total, margin = np.empty((2,) + shape)
    np.add(lhs_w, rhs_w, out=total)
    np.subtract(fpts, total, out=margin)
    # 1e-12 absolute slack at the equality rows, widened with the local value
    # scale: rounding in f and the weighted sum grows with the magnitudes.
    # Where every term is >= 0, |lhs_w| + |rhs_w| is the sum already in
    # ``total``, bit for bit.
    if nonnegative:
        total += fpts
    else:
        np.add(np.abs(lhs_w), np.abs(rhs_w), out=total)
        total += np.abs(fpts)
    peak = None
    if probe:
        # a NaN margin is not <= its half slack, so it counts as beyond
        peak = float(np.max(np.where(margin <= 0.5 * _SLACK_SCALE * total, -np.inf, margin)))
    np.multiply(_SLACK_SCALE, total, out=total)
    np.maximum(CHECK_SLACK, total, out=total)
    excess = np.subtract(margin, total, out=total)
    # the first maximum, or the first NaN, read by flat index: t is the last
    # axis, x varies along the first and y along the one before t (the same
    # one on the border mesh)
    k = int(np.argmax(excess))
    rows, (row, col) = excess.size // ts.size, divmod(k, ts.size)
    report = CheckReport(
        passed=float(excess.flat[k]) <= 0.0,
        worst_margin=float(margin.flat[k]),
        witness=(float(x.flat[row * x.size // rows]), float(y.flat[row % y.size]), float(ts[col])),
        samples=excess.size,
        diagnostics=_diagnostics(s),
    )
    return report, peak


def _mesh_check(f: FuncLike, params: SMParams, grid: int, window, combiner) -> CheckReport:
    """The grid check on the target's own mesh: the border mesh for a
    homogeneous target, the full mesh otherwise."""
    gradient = isinstance(f, GradientPower)
    source = f.f if gradient else f
    # Only a FunctionSpec fixes its values by its fields; bare callables are
    # evaluated afresh on every check.
    stage = _shared_mesh_stage if isinstance(source, FunctionSpec) else _mesh_stage
    x, y, fx, fy, fpts = stage(source, gradient, combiner, params.m, grid,
                               None if window is None else tuple(window))
    if gradient:
        fx, fy, fpts = fx**f.q, fy**f.q, fpts**f.q
    return _row_stage(x, y, fx, fy, fpts, grid, params.s, params.m, gradient)[0]


# Combined points lie in [m lo, hi] up to a few ulps of rounding; a window
# within this relative distance of its domain's edge keeps its own check.
_POINT_ROUNDING = 1e-12
# The reduced path keeps every value of the instance and of its reduced
# problem, and every coefficient, within exp(+-200) (about 1e+-87), so that
# rescaling neither overflows nor reaches subnormal numbers.
_LOG_RANGE = 200.0


# One entry per reduced problem, a tuple of five floats.  The default sweep
# has 432 problems; a random search repeats none, so the bound only caps it.
@lru_cache(maxsize=512)
def _reduced_rows(e: float, sign: float, s: float, m: float, ratio: float, grid: int,
                  combiner) -> tuple[float, float, float, float, float]:
    """(peak, worst margin, witness) of the border check of sign * x**e on
    the canonical window [1, ratio]."""
    ts, _, i, j = _mesh_axes(grid)
    xs = _geomspace(1.0, ratio, grid)
    x, y = xs[i, None], xs[j, None]
    fx, fy, fpts = (sign * v**e for v in (x, y, _mesh_points(combiner, x, y, ts, m)))
    report, peak = _row_stage(x, y, fx, fy, fpts, grid, s, m, sign > 0.0, probe=True)
    return (peak, report.worst_margin, *report.witness)


def _reduced_check(f: FuncLike, params: SMParams, grid: int, window, combiner) -> Optional[CheckReport]:
    """The report of a homogeneous target from its reduced problem, or None
    where the target's own mesh check must decide (module docstring)."""
    gradient = isinstance(f, GradientPower)
    source = f.f if gradient else f
    h = source.homogeneity if isinstance(source, FunctionSpec) else None
    if h is None:
        return None
    c, e = h
    if gradient:
        c, e, power = abs(c * e), (e - 1.0) * f.q, f.q
    else:
        power = 1.0
    lo, hi = (source.domain_lo, source.domain_hi) if window is None else map(float, window)
    m = params.m
    # The own check raises the DomainError, with the range it found.
    if not (0.0 < lo < hi and source.domain_lo * (1.0 - _DOMAIN_SLACK) <= m * lo * (1.0 - _POINT_ROUNDING)
            and hi * (1.0 + _POINT_ROUNDING) <= source.domain_hi * (1.0 + _DOMAIN_SLACK)):
        return None
    ratio = hi / lo
    if c == 0.0 or not (abs(power * math.log(abs(c))) + abs(e) * (abs(math.log(lo)) + math.log(ratio / m))
                        < _LOG_RANGE):
        return None
    peak, worst, x, y, t = _reduced_rows(e, math.copysign(1.0, c), params.s, m, ratio, grid, combiner)
    scale = abs(c) ** power * lo**e
    if not scale * peak <= 0.5 * CHECK_SLACK:  # it may fail at this scale (or peak is NaN)
        return None
    ts, _, i, _ = _mesh_axes(grid)
    return CheckReport(True, scale * worst, (lo * x, lo * y, t), i.size * ts.size, _diagnostics(params.s))


def _grid_check(f: FuncLike, params: SMParams, grid: int, window, combiner) -> CheckReport:
    # before the caches keyed by grid, where 48.0 would find the entry of 48
    check_grid(grid)
    report = _reduced_check(f, params, grid, window, combiner)
    return _mesh_check(f, params, grid, window, combiner) if report is None else report


def check_harmonic_sm_convex(
    f: FuncLike,
    params: SMParams,
    grid: int = 64,
    window: Optional[tuple[float, float]] = None,
) -> CheckReport:
    """Certify f(m x y / (m t y + (1-t) x)) <= t^s f(x) + m (1-t)^s f(y) on a grid.

    x, y run over ``window`` (default: f's domain); combined points reach down to
    m * lo, so f's domain must cover that or a DomainError is raised.
    """
    return _grid_check(f, params, grid, window, harmonic_combine)


def check_sm_convex(
    f: FuncLike,
    params: SMParams,
    grid: int = 64,
    window: Optional[tuple[float, float]] = None,
) -> CheckReport:
    """Certify f(t x + m (1-t) y) <= t^s f(x) + m (1-t)^s f(y) on a grid."""
    return _grid_check(f, params, grid, window, _linear_combine)


def _linear_combine(x, y, t, m: float):
    """t x + m (1-t) y; one module-level function, so it keys the mesh cache."""
    return t * x + m * (1.0 - t) * y


def compose_g(f: FuncLike, a: float, b: float, m: float) -> Callable:
    """The involution transport x -> f(m a b / (a + m b - x)) on [a, m b].

    Requires a < m b.  Satisfies (f o g)(t a + m (1-t) b) = f(m a b / (m b t + (1-t) a)),
    which carries harmonic (s,m)-convexity of f to ordinary (s,m)-convexity of f o g.
    """
    if not a < m * b:
        raise DomainError(f"compose_g requires a < m*b, got a={a}, m*b={m * b}")

    def g_of(x):
        return f(m * a * b / (a + m * b - x))

    return g_of


def _sampled_slopes(f: FuncLike, window: Optional[tuple[float, float]], n: int = 257) -> np.ndarray:
    """Slopes on the window, which only a FunctionSpec may leave out (``_mesh``
    has rejected the rest)."""
    xs = _geomspace(*((f.domain_lo, f.domain_hi) if window is None else window), n)
    if isinstance(f, FunctionSpec):
        return np.asarray(deriv(f, xs), dtype=float)
    h = xs * 1e-7
    return (np.asarray(f(xs + h)) - np.asarray(f(xs - h))) / (2.0 * h)


def check_prop1_implication(
    f: FuncLike,
    params: SMParams,
    grid: int = 64,
    window: Optional[tuple[float, float]] = None,
) -> CheckReport:
    """Grid certification of the monotonicity bridge between the two convexities.

    Checks (a) the pointwise combination inequality
    m x y / (m t y + (1-t) x) <= t x + m (1-t) y, and (b) that a nondecreasing f
    passing the (s,m)-convexity check also passes the harmonic (s,m) check.
    Raises InconclusiveError when sampled slopes carry both signs.
    """
    x, y, t = _mesh(f, grid, window)
    gap = (t * x + params.m * (1.0 - t) * y) - _mesh_points(harmonic_combine, x, y, t, params.m)
    worst_pointwise = float(-np.min(gap))
    if worst_pointwise > CHECK_SLACK:
        return CheckReport(False, worst_pointwise, None, int(gap.size), ("pointwise combination inequality failed",))

    slopes = _sampled_slopes(f, window)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(slopes))))
    nondecreasing = bool(np.all(slopes >= -tol))
    nonincreasing = bool(np.all(slopes <= tol))
    if not nondecreasing and not nonincreasing:
        raise InconclusiveError("sampled slopes carry both signs; monotonicity precondition unresolved")

    diagnostics = [f"pointwise_gap_min={-worst_pointwise:.3e}"]
    if not nondecreasing:
        diagnostics.append("f nonincreasing; implication antecedent not applicable")
        return CheckReport(True, worst_pointwise, None, int(gap.size), tuple(diagnostics))

    plain = check_sm_convex(f, params, grid, window)
    if not plain.passed:
        diagnostics.append("(s,m)-convexity check failed; implication vacuous")
        return CheckReport(True, worst_pointwise, plain.witness, plain.samples, tuple(diagnostics))

    harmonic = check_harmonic_sm_convex(f, params, grid, window)
    diagnostics.append(f"harmonic_worst_margin={harmonic.worst_margin:.3e}")
    return CheckReport(
        passed=harmonic.passed,
        worst_margin=harmonic.worst_margin,
        witness=harmonic.witness,
        samples=harmonic.samples,
        diagnostics=tuple(diagnostics),
    )
