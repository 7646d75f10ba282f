"""Curated differentiable function families and convexity-definition checkers.

Convexity certification is grid-based: a candidate passes when the defining
inequality holds (within 1e-12 absolute slack for the equality rows t = 0, 1)
on a log-spaced x,y mesh crossed with a t mesh containing {0, 1/2, 1}.  The
report carries the worst margin and its witness, so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, InconclusiveError, ParameterError

__all__ = [
    "FAMILIES",
    "FunctionSpec",
    "SMParams",
    "CheckReport",
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
# Points per slab of the grid check's row stage: at grid 48 six x rows, whose
# two buffers stay in L2 between passes; at grid 24 the whole mesh.
_SLAB_POINTS = 2**14
_DOMAIN_SLACK = 1e-9  # relative; absorbs rounding of combined points at window edges

FAMILIES = ("pow", "spiece", "recip", "affine", "exp")


@dataclass(frozen=True)
class FunctionSpec:
    """One member of the curated families, with an explicit analysis window.

    family/params:
      pow    (coeff, exponent, shift)   coeff * x**exponent + shift
      spiece (a0, b0, c0, s)            b0 * x**s + c0 on x > 0 (the value a0 at
                                         x = 0 is metadata only; windows are
                                         open subsets of (0, inf))
      recip  ()                         1 / x
      affine (slope, intercept)         slope * x + intercept
      exp    (scale,)                   exp(scale * x)
    """

    family: str
    params: tuple[float, ...]
    domain_lo: float
    domain_hi: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; one of {FAMILIES}")
        if not 0.0 < self.domain_lo < self.domain_hi:
            raise DomainError(
                f"domain must satisfy 0 < lo < hi, got ({self.domain_lo}, {self.domain_hi})"
            )
        n_expected = {"pow": 3, "spiece": 4, "recip": 0, "affine": 2, "exp": 1}[self.family]
        if len(self.params) != n_expected:
            raise DomainError(f"{self.family} takes {n_expected} parameters, got {self.params}")
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
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.family}({inner})"

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
    if f.family == "pow":
        c, e, sh = f.params
        return c * x**e + sh
    if f.family == "spiece":
        _, b0, c0, s = f.params
        return b0 * x**s + c0
    if f.family == "recip":
        return 1.0 / x
    if f.family == "affine":
        sl, ic = f.params
        return sl * x + ic
    sc = f.params[0]
    return np.exp(sc * x) if isinstance(x, np.ndarray) else math.exp(sc * x)


def deriv(f: FunctionSpec, x):
    """Exact derivative of the family formula at ``x``."""
    _check_domain(f, x)
    if f.family == "pow":
        c, e, _ = f.params
        return c * e * x ** (e - 1.0)
    if f.family == "spiece":
        _, b0, _, s = f.params
        return b0 * s * x ** (s - 1.0)
    if f.family == "recip":
        return -1.0 / (x * x)
    if f.family == "affine":
        sl, _ = f.params
        return sl * np.ones_like(x) if isinstance(x, np.ndarray) else sl
    sc = f.params[0]
    return sc * (np.exp(sc * x) if isinstance(x, np.ndarray) else math.exp(sc * x))


def harmonic_combine(x, y, t, m: float = 1.0):
    """The weighted harmonic combination m x y / (m t y + (1-t) x).

    Equivalently (t/x + (1-t)/(m y))^(-1).  The endpoints t = 1 and t = 0 are
    returned exactly as x and m*y so that equality rows of the convexity checks
    are free of rounding noise.
    """
    raw = m * x * y / (m * t * y + (1.0 - t) * x)
    if np.ndim(raw) == 0:
        if t == 1.0:
            return x * 1.0
        if t == 0.0:
            return m * y
        return raw
    if np.ndim(t) == raw.ndim and np.size(t) == np.shape(t)[-1] == raw.shape[-1]:
        # t varies along the last axis only (the certification mesh): the
        # endpoint rows are whole slices, so set them instead of masking.
        tk = np.reshape(t, -1)
        for hit, value in ((tk == 1.0, x * 1.0), (tk == 0.0, m * y)):
            if hit.any():
                raw[..., hit] = np.broadcast_to(value, raw.shape)[..., hit]
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
        if self.q < 1.0:
            raise ParameterError(f"q must be >= 1, got {self.q}")

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

    def __call__(self, x):
        return np.abs(deriv(self.f, x)) ** self.q


FuncLike = Union[FunctionSpec, GradientPower, Callable]


def _mesh(f: FuncLike, grid: int, window: Optional[tuple[float, float]]):
    if window is None:
        if not isinstance(f, FunctionSpec):
            raise DomainError("a sampling window is required when f is a bare callable")
        window = (f.domain_lo, f.domain_hi)
    lo, hi = window
    if not 0.0 < lo < hi:
        raise DomainError(f"window must satisfy 0 < lo < hi, got {window}")
    xs = np.geomspace(lo, hi, grid)
    # t mesh must contain the exact endpoints and the midpoint 1/2 (equality rows)
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid + 1), [0.5]]))
    return xs[:, None, None], xs[None, :, None], ts[None, None, :]


class _MeshValues(NamedTuple):
    """One certification mesh and the target's values on it (arrays read-only)."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    fpts: np.ndarray


def _mesh_stage(f: FuncLike, gradient: bool, combiner, m: float, grid: int, window) -> _MeshValues:
    """Everything a grid check needs that does not depend on (s, q).

    With ``gradient`` the values are |f'| (each row raises them to its q),
    otherwise f itself.
    """
    x, y, t = _mesh(f, grid, window)
    pts = combiner(x, y, t, m)
    fn = (lambda v: np.abs(deriv(f, v))) if gradient else f
    return _MeshValues(x, y, t, fn(x), fn(y), fn(pts))


# A mesh is shared by every (s, q) row on it; the rows of one (f, window, m)
# arrive together, so a few entries suffice (about 1 MiB each at grid 48).
@lru_cache(maxsize=4)
def _shared_mesh_stage(f: FunctionSpec, gradient: bool, combiner, m: float, grid: int, window) -> _MeshValues:
    mesh = _mesh_stage(f, gradient, combiner, m, grid, window)
    for arr in mesh:
        arr.flags.writeable = False
    return mesh


def clear_mesh_cache() -> None:
    _shared_mesh_stage.cache_clear()


def _grid_check(f: FuncLike, params: SMParams, grid: int, window, combiner) -> CheckReport:
    gradient = isinstance(f, GradientPower)
    source = f.f if gradient else f
    # Only a FunctionSpec fixes its values by its fields; bare callables are
    # evaluated afresh on every check.
    stage = _shared_mesh_stage if isinstance(source, FunctionSpec) else _mesh_stage
    x, y, t, fx, fy, fpts = stage(source, gradient, combiner, params.m, grid,
                                  None if window is None else tuple(window))
    if gradient:
        fx, fy = fx**f.q, fy**f.q
    lhs_w = t**params.s * fx
    rhs_w = params.m * (1.0 - t) ** params.s * fy
    shape = np.broadcast_shapes(np.shape(fpts), lhs_w.shape, rhs_w.shape)
    # a bare callable may return a scalar; slabs slice the first axis
    fpts = np.broadcast_to(fpts, shape)
    lhs_w = np.broadcast_to(lhs_w, shape[:1] + lhs_w.shape[1:])
    if not gradient:
        abs_lhs, abs_rhs = np.abs(lhs_w), np.abs(rhs_w)
    # margin = fpts - (lhs_w + rhs_w) and excess = margin - slack, one slab of
    # x rows at a time in two per-call buffers that stay in cache; the order
    # of operations fixes every float of the reports, so keep it.
    row_points = shape[1] * shape[2]
    rows = min(shape[0], max(1, _SLAB_POINTS // row_points))
    total = np.empty((rows,) + shape[1:])
    margin = np.empty_like(total)
    best = None
    for r0 in range(0, shape[0], rows):
        n = min(rows, shape[0] - r0)
        slab = slice(r0, r0 + n)
        tot, mar = total[:n], margin[:n]
        fb = fpts[slab]
        if gradient:
            fb = fb**f.q
        np.add(lhs_w[slab], rhs_w, out=tot)
        np.subtract(fb, tot, out=mar)
        # 1e-12 absolute slack at the equality rows, widened with the local
        # value scale: rounding in f and the weighted sum grows with the
        # magnitudes.  Every gradient term is >= 0, so there
        # |lhs_w| + |rhs_w| is the sum already in ``tot``, bit for bit.
        if gradient:
            tot += fb
        else:
            np.add(abs_lhs[slab], abs_rhs, out=tot)
            tot += np.abs(fb)
        np.multiply(_SLACK_SCALE, tot, out=tot)
        np.maximum(CHECK_SLACK, tot, out=tot)
        np.subtract(mar, tot, out=tot)
        flat = int(np.argmax(tot))
        excess = float(tot.flat[flat])
        # The first maximum wins, and a NaN beats everything, as in one
        # argmax over the whole mesh.
        if best is None or excess > best[0] or math.isnan(excess):
            best = (excess, float(mar.flat[flat]), np.unravel_index(r0 * row_points + flat, shape))
        if math.isnan(excess):
            break
    excess, worst, (i, j, k) = best
    witness = (float(x[i, 0, 0]), float(y[0, j, 0]), float(t[0, 0, k]))
    diagnostics = []
    if params.s == 0.0:
        diagnostics.append("s=0 is outside the definitional range (0,1]; theorem-driver extension")
    return CheckReport(
        passed=excess <= 0.0,
        worst_margin=worst,
        witness=witness,
        samples=math.prod(shape),
        diagnostics=tuple(diagnostics),
    )


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
    if isinstance(f, FunctionSpec):
        lo, hi = window or (f.domain_lo, f.domain_hi)
        xs = np.geomspace(lo, hi, n)
        return np.asarray(deriv(f, xs), dtype=float)
    if window is None:
        raise DomainError("a sampling window is required when f is a bare callable")
    lo, hi = window
    xs = np.geomspace(lo, hi, n)
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
    gap = (t * x + params.m * (1.0 - t) * y) - harmonic_combine(x, y, t, params.m)
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
