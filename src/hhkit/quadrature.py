"""Adaptive Gauss-Kronrod quadrature: the ground-truth oracle for every coefficient.

All closed-form coefficient values in :mod:`hhkit.bounds` are adjudicated against
direct integration of their defining kernels, so this integrator is deliberately
self-contained (15-point Kronrod rule with embedded 7-point Gauss rule, globally
adaptive bisection driven by the per-interval error estimate only -- no smoothness
assumptions beyond integrability).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotMetError

__all__ = [
    "QuadSpec",
    "DEFAULT_QUADSPEC",
    "TIGHT_QUADSPEC",
    "integrate",
    "harmonic_mean_integral",
    "kernel_K",
    "KERNEL_WEIGHTS",
]

# 15-point Kronrod abscissae/weights and the embedded 7-point Gauss weights
# (classical published values, as used by QUADPACK's dqk15).
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

# Full symmetric node/weight arrays; Gauss nodes are Kronrod indices 1,3,5,7,9,11,13.
_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
_WG15 = np.zeros(15)
_WG15[[1, 3, 5]] = _WG_HALF
_WG15[7] = _WG_CENTER
_WG15[[9, 11, 13]] = _WG_HALF[::-1]

_EPS = np.finfo(float).eps
# QUADPACK's round-off floor on a panel's error, and the |integral| below which
# it is not applied.  Both stay numpy scalars: an error bound raised to the
# floor is a numpy float, and ToleranceNotMetError messages print its repr.
_ERR_FLOOR = 50.0 * _EPS
_RESABS_FLOOR = np.finfo(float).tiny / _ERR_FLOOR
_MAX_INTERVALS = 20_000
# Generations below each end of a bisected panel evaluated with its children
# (see _ladder): one integrand call then serves up to this many further
# bisections of a chain running toward that end.
_LADDER_LEVELS = 4


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance and subdivision budget for one adaptive integration.

    ``split_points`` are abscissae at which the integrand is kinked or otherwise
    non-smooth; the domain is pre-split there before any adaptation happens.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_depth: int = 60
    split_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")
        # specs are cache keys; keep them hashable even if a list was passed
        object.__setattr__(self, "split_points", tuple(float(p) for p in self.split_points))

    def with_splits(self, *points: float) -> "QuadSpec":
        return QuadSpec(self.abs_tol, self.rel_tol, self.max_depth, tuple(points))


DEFAULT_QUADSPEC = QuadSpec()
# Two extra orders for identity checks (Lemma residuals), where both sides are
# O(1..1e3) and the acceptance budget is absolute.
TIGHT_QUADSPEC = QuadSpec(abs_tol=1e-14, rel_tol=5e-14)


def _gk15(resk: float, resg: float, resabs: float, resasc: float) -> tuple[float, float]:
    """One Kronrod-15 panel's (integral estimate, error estimate) from its four
    weighted sums (see :func:`_panel_sums`): QUADPACK's dqk15 error formula."""
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _RESABS_FLOOR:
        err = max(err, _ERR_FLOOR * resabs)
    return resk, err


def _panel_sums(
    f: Callable[[np.ndarray], np.ndarray], panels: list[tuple[float, float]]
) -> list[tuple[float, float, float, float]]:
    """The weighted sums (resk, resg, resabs, resasc) of each ``(lo, hi)`` panel.

    The integrand is called once, on the nodes of every panel laid end to end:
    on 15-element arrays numpy's per-call overhead, not the arithmetic, is what
    a panel costs.  Each panel's nodes are ``center + half * _NODES``, computed
    elementwise exactly as a single panel would compute them.  ``np.vecdot``
    runs one BLAS ``ddot`` per row, the same kernel and summation order as
    ``ndarray.dot`` on one row; a batched ``(k, 15) @ (15,)`` product (``gemv``)
    is not, and differs from ``ddot`` in the last bit on about half of random
    rows.
    """
    lo, hi = np.array(panels, dtype=float).T
    half = 0.5 * (hi - lo)
    fx = f(((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, 15)
    resk = half * np.vecdot(fx, _WGK)
    resg = half * np.vecdot(fx, _WG15)
    resabs = half * np.vecdot(np.abs(fx), _WGK)
    resasc = half * np.vecdot(np.abs(fx - (resk / (hi - lo))[:, None]), _WGK)
    return list(zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist()))


def _ladder(a: float, b: float, levels: int) -> list[tuple[float, float]]:
    """The two children of ``[a, b]``, then the children of its outermost
    descendant at each end, ``levels`` generations down.

    Adaptive bisection toward an endpoint singularity or a pre-split kink pops
    a child of the panel it popped before, so these are the panels such a chain
    asks for next.  A descent stops where its midpoint rounds onto an endpoint.
    """
    mid = 0.5 * (a + b)
    panels = [(a, mid), (mid, b)]
    for lo, hi, toward_lo in ((a, mid, True), (mid, b, False)):
        for _ in range(levels):
            m = 0.5 * (lo + hi)
            if not lo < m < hi:
                break
            panels += [(lo, m), (m, hi)]
            lo, hi = (lo, m) if toward_lo else (m, hi)
    return panels


def _vectorized(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap ``f`` so it accepts node arrays even if written scalar-only."""

    def call(xs: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(f(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(f(x)) for x in xs])

    return call


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadSpec = DEFAULT_QUADSPEC,
) -> float:
    """Globally adaptive integral of ``f`` over ``[lo, hi]``.

    The interval is pre-split at ``spec.split_points``, then the worst-error
    subinterval is bisected until the summed error estimate falls below
    ``max(abs_tol, rel_tol * |result|)``.  Raises
    :class:`~hhkit.errors.ToleranceNotMetError` (carrying the best estimate and
    its bound) when every subinterval has reached ``max_depth`` or the interval
    budget is exhausted without certifying the tolerance, and when the estimate
    or its bound is not finite.

    A bisection whose children were not evaluated yet evaluates them together
    with the look-ahead panels of :func:`_ladder`, in one integrand call; the
    result is the same, bit for bit, as evaluating each bisection's two
    children when it happens.
    """
    if not lo < hi:
        raise DomainError(f"integration requires lo < hi, got [{lo}, {hi}]")
    splits = sorted({float(p) for p in spec.split_points if lo < p < hi})
    edges = [lo, *splits, hi]
    fv = _vectorized(f)

    heap: list[tuple[float, int, float, float, float, float, int]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    panels = list(zip(edges[:-1], edges[1:]))
    for (a, b), sums in zip(panels, _panel_sums(fv, panels)):
        val, err = _gk15(*sums)
        total_val += val
        total_err += err
        heapq.heappush(heap, (-err, counter, a, b, val, err, 0))
        counter += 1

    # Sums of look-ahead panels not yet consumed, by (lo, hi).  A sum depends
    # only on its panel, so a panel reached again reads the same values.
    ahead: dict[tuple[float, float], tuple[float, float, float, float]] = {}
    n_intervals = len(edges) - 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        # Drop exhausted intervals from the refinement pool; their error stays
        # counted, so this can only end in success or an honest failure.
        while heap and heap[0][6] >= spec.max_depth:
            heapq.heappop(heap)
        if not heap or n_intervals >= _MAX_INTERVALS:
            raise ToleranceNotMetError(
                f"tolerance not met on [{lo}, {hi}]: estimate {total_val!r} "
                f"with error bound {total_err!r}",
                estimate=total_val,
                error_bound=total_err,
            )
        _, _, a, b, val, err, depth = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        left, right = ahead.pop((a, mid), None), ahead.pop((mid, b), None)
        if left is None or right is None:
            ladder = _ladder(a, b, min(_LADDER_LEVELS, spec.max_depth - depth - 1))
            sums = _panel_sums(fv, ladder)
            left, right = sums[0], sums[1]
            ahead.update(zip(ladder[2:], sums[2:]))
        (v1, e1), (v2, e2) = _gk15(*left), _gk15(*right)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2, depth + 1))
        counter += 1
        n_intervals += 1
    # NaN compares False against the tolerance, so a non-finite sum would
    # otherwise leave the loop as if it had converged.
    if not (math.isfinite(total_val) and math.isfinite(total_err)):
        raise ToleranceNotMetError(
            f"non-finite integral on [{lo}, {hi}]: estimate {total_val!r} "
            f"with error bound {total_err!r}",
            estimate=total_val,
            error_bound=total_err,
        )
    return total_val


def harmonic_mean_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUADSPEC,
) -> float:
    """Mean of ``f`` under the harmonic pushforward: ``ab/(b-a) * int_a^b f(x)/x^2 dx``.

    The weight ``ab/((b-a) x^2)`` integrates to 1 over ``[a, b]``, so constants map
    to themselves.
    """
    if not 0.0 < a < b:
        raise DomainError(f"harmonic mean integral requires 0 < a < b, got ({a}, {b})")
    value = integrate(lambda x: f(x) / (x * x), a, b, spec)
    return a * b / (b - a) * value


# Weight factories for the kernel integrals; every coefficient family in the
# inequalities is one of these four shapes.
KERNEL_WEIGHTS = ("W1", "W2", "N1", "N2")

_WEIGHT_FNS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "W1": lambda t, s: np.abs(1.0 - 2.0 * t) * t**s,
    "W2": lambda t, s: np.abs(1.0 - 2.0 * t) * (1.0 - t) ** s,
    "N1": lambda t, s: t**s,
    "N2": lambda t, s: (1.0 - t) ** s,
}


@lru_cache(maxsize=16384)
def _kernel_K_cached(weight: str, s: float, r: float, a: float, b: float, spec: QuadSpec) -> float:
    wfn = _WEIGHT_FNS[weight]

    def integrand(t: np.ndarray) -> np.ndarray:
        return wfn(t, s) * (t * b + (1.0 - t) * a) ** (-2.0 * r)

    use = spec.with_splits(0.5) if weight in ("W1", "W2") else spec
    return integrate(integrand, 0.0, 1.0, use)


def kernel_K(
    weight: str,
    s: float,
    r: float,
    a: float,
    b: float,
    spec: QuadSpec = DEFAULT_QUADSPEC,
) -> float:
    """Kernel integral ``int_0^1 w(t) (t b + (1-t) a)^(-2r) dt``.

    ``weight`` selects ``w`` from W1 = |1-2t| t^s, W2 = |1-2t| (1-t)^s,
    N1 = t^s, N2 = (1-t)^s.  W1/W2 are pre-split at the ``t = 1/2`` kink.
    Results are cached; the quadrature is deterministic so caching is exact.
    """
    if weight not in _WEIGHT_FNS:
        raise DomainError(f"unknown kernel weight {weight!r}; one of {KERNEL_WEIGHTS}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"kernel exponent s must lie in [0, 1], got {s}")
    if not r >= 1.0:
        raise DomainError(f"kernel exponent r must be >= 1, got {r}")
    if not 0.0 < a < b:
        raise DomainError(f"kernel requires 0 < a < b, got ({a}, {b})")
    return _kernel_K_cached(weight, float(s), float(r), float(a), float(b), spec)
