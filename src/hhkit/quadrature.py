"""Adaptive Gauss-Kronrod quadrature: the ground-truth oracle for every coefficient.

All closed-form coefficient values in :mod:`hhkit.bounds` are adjudicated against
direct integration of their defining kernels, so this integrator is deliberately
self-contained (15-point Kronrod rule with embedded 7-point Gauss rule, globally
adaptive bisection driven by the per-interval error estimate only -- no smoothness
assumptions beyond integrability).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .errors import DomainError, ToleranceNotMetError

__all__ = [
    "QuadSpec",
    "DEFAULT_QUADSPEC",
    "TIGHT_QUADSPEC",
    "integrate",
    "integrate_many",
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
    weighted sums (see :func:`_sums`): QUADPACK's dqk15 error formula."""
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _RESABS_FLOOR:
        err = max(err, _ERR_FLOOR * resabs)
    return resk, err


def _panel_nodes(panels: list[tuple[float, float]]) -> tuple[np.ndarray, ...]:
    """The lo, hi and half-width arrays of ``panels``, and their nodes laid
    end to end.

    Each panel's nodes are ``center + half * _NODES``, computed elementwise
    exactly as a single panel would compute them.
    """
    lo, hi = np.array(panels, dtype=float).T
    half = 0.5 * (hi - lo)
    return lo, hi, half, ((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES).ravel()


def _sums(
    fx: np.ndarray, lo: np.ndarray, hi: np.ndarray, half: np.ndarray
) -> list[tuple[float, float, float, float]]:
    """The weighted sums (resk, resg, resabs, resasc) of panels ``(lo, hi)``
    of half-width ``half``, from their integrand values ``fx``, one row of 15
    per panel.

    ``np.vecdot`` runs one BLAS ``ddot`` per row, the same kernel and
    summation order as ``ndarray.dot`` on one row; a batched ``(k, 15) @
    (15,)`` product (``gemv``) is not, and differs from ``ddot`` in the last
    bit on about half of random rows.
    """
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


def _adaptive(lo: float, hi: float, spec: QuadSpec, levels: int) -> Generator[list, list, float]:
    """The globally adaptive loop of one integral, as a generator.

    It yields the ``(lo, hi)`` panels it needs, is sent their weighted sums
    (see :func:`_sums`) in the same order, and returns the integral.  A
    bisection whose children were not evaluated yet asks for them together
    with the look-ahead panels of :func:`_ladder`, ``levels`` generations
    deep; the sums of the look-ahead panels wait until a bisection asks for
    them.  The result is the same, bit for bit, for every ``levels``.
    """
    if not lo < hi:
        raise DomainError(f"integration requires lo < hi, got [{lo}, {hi}]")
    splits = sorted({float(p) for p in spec.split_points if lo < p < hi})
    edges = [lo, *splits, hi]

    heap: list[tuple[float, int, float, float, float, float, int]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    panels = list(zip(edges[:-1], edges[1:]))
    for (a, b), sums in zip(panels, (yield panels)):
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
            ladder = _ladder(a, b, min(levels, spec.max_depth - depth - 1))
            sums = yield ladder
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

    Each bisection whose children were not evaluated yet evaluates them
    together with ``_LADDER_LEVELS`` generations of look-ahead panels
    (:func:`_ladder`), in one integrand call: on 15-element arrays numpy's
    per-call overhead, not the arithmetic, is what a panel costs.
    """
    fv = _vectorized(f)
    loop = _adaptive(lo, hi, spec, _LADDER_LEVELS)
    panels = next(loop)
    while True:
        starts, ends, half, x = _panel_nodes(panels)
        try:
            panels = loop.send(_sums(fv(x).reshape(-1, 15), starts, ends, half))
        except StopIteration as done:
            return done.value


# One integral of ``integrate_many``: ``(family, params, lo, hi, spec)``, the
# integral of ``partial(family, *params)`` over ``[lo, hi]``.
Job = tuple[Callable[..., np.ndarray], tuple, float, float, QuadSpec]

# At most this many integrals of one ``integrate_many`` batch run at a time:
# each round's node and parameter arrays grow with the integrals in it.
_IN_FLIGHT = 128
# Look-ahead generations in a batch.  A batch makes one family call a round
# however many panels it asks for, so look-ahead saves no call and only adds
# panels: the adjudication batches took more CPU at 2 levels, and more at 4.
_BATCH_LADDER_LEVELS = 0


def integrate_many(jobs: Sequence[Job]) -> list[float]:
    """The integrals of ``jobs``, in lockstep: each the same, bit for bit, as
    ``integrate(partial(family, *params), lo, hi, spec)``.

    A family is called as ``family(*params, x)``; in a batch every parameter
    is an array of ``x``'s shape that repeats each integral's value on its
    nodes, so the family must compute elementwise and raise with
    :func:`_pow`.  Each round, every pending panel of one family is evaluated
    in one family call, and the weighted sums of all of them in one pass.
    At most ``_IN_FLIGHT`` integrals run at once; a finished integral's slot
    goes to the next job in order.  When integrals fail, the
    ``ToleranceNotMetError`` of the first failing job in order is raised, as
    ``integrate`` would raise it.
    """
    loops = [_adaptive(lo, hi, spec, _BATCH_LADDER_LEVELS) for _, _, lo, hi, spec in jobs]
    first_asks = [next(loop) for loop in loops]
    results: list[float] = [math.nan] * len(jobs)
    failure: Optional[tuple[int, ToleranceNotMetError]] = None
    waiting = iter(range(len(jobs)))
    asks = {i: first_asks[i] for i in itertools.islice(waiting, _IN_FLIGHT)}
    while asks:
        by_family: dict[Callable, list[int]] = {}
        for i in asks:
            by_family.setdefault(jobs[i][0], []).append(i)
        order, blocks = [], []
        for family, members in by_family.items():
            lo, hi, half, x = _panel_nodes([panel for i in members for panel in asks[i]])
            nodes = [15 * len(asks[i]) for i in members]
            params = np.repeat(np.array([jobs[i][1] for i in members], dtype=float).T, nodes, axis=1)
            blocks.append((family(*params, x).reshape(-1, 15), lo, hi, half))
            order += members
        sums = _sums(*(np.concatenate(parts) for parts in zip(*blocks)))
        start = 0
        for i in order:
            end = start + len(asks[i])
            try:
                asks[i] = loops[i].send(sums[start:end])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
                following = next(waiting, None) if failure is None else None
                if following is not None:
                    asks[following] = first_asks[following]
            except ToleranceNotMetError as exc:
                del asks[i]
                if failure is None or i < failure[0]:
                    failure = (i, exc)
            start = end
        if failure is not None:
            # Only a job before the failed one can take its place as the error.
            for i in [i for i in asks if i > failure[0]]:
                del asks[i]
    if failure is not None:
        raise failure[1]
    return results


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


# numpy raises an array to a scalar -1, 0.5 or 2 with reciprocal, sqrt or
# square, which differ in the last bit from its pow on about 5% of values.
# (A scalar 0 or 1 gives 1 or x, as pow does.)
_FAST_POWERS = ((-1.0, np.reciprocal), (0.5, np.sqrt), (2.0, np.square))


def _pow(x: np.ndarray, e) -> np.ndarray:
    """``x ** e`` for a scalar ``e`` or an array of ``x``'s shape, each value
    the same, bit for bit, as ``x ** float(e_i)`` computes it: elements whose
    exponent is one of numpy's fast scalar exponents take the fast path."""
    out = x**e
    if isinstance(e, np.ndarray):
        for value, fast in _FAST_POWERS:
            hit = e == value
            if hit.any():
                out[hit] = fast(x[hit])
    return out


# The kernel weights: every coefficient family in the inequalities is one of
# these four shapes, (t or 1 - t)^s, times |1 - 2t| for W1/W2.  Each row is
# (power base is 1 - t, |1 - 2t| factor).
_WEIGHT_FORMS = {"W1": (False, True), "W2": (True, True), "N1": (False, False), "N2": (True, False)}
KERNEL_WEIGHTS = tuple(_WEIGHT_FORMS)
# The substitution t -> 1-t maps each kernel weight onto its mirror.
_MIRROR = {"W1": "W2", "W2": "W1", "N1": "N2", "N2": "N1"}


def _select(cond, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.where(cond, x, y)``, or ``x`` or ``y`` itself for a scalar ``cond``."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _kernel_integrand(flip, kink, s, r, p, q, t: np.ndarray) -> np.ndarray:
    """The kernel integrand w(t) (t q + (1 - t) p)^(-2r), with w(t) the power s
    of t, or of 1 - t where ``flip``, times |1 - 2t| where ``kink``."""
    u = 1.0 - t
    w = _pow(_select(flip, u, t), s)
    if kink is not False:  # a scalar False needs no factor
        w = _select(kink, np.abs(1.0 - 2.0 * t) * w, w)
    return w * _pow(t * q + u * p, -2.0 * r)


def _check_kernel(weight: str, s: float, r: float, a: float, b: float) -> None:
    if weight not in _WEIGHT_FORMS:
        raise DomainError(f"unknown kernel weight {weight!r}; one of {KERNEL_WEIGHTS}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"kernel exponent s must lie in [0, 1], got {s}")
    if not r >= 1.0:
        raise DomainError(f"kernel exponent r must be >= 1, got {r}")
    if not 0.0 < a < b:
        raise DomainError(f"kernel requires 0 < a < b, got ({a}, {b})")


def _kernel_job(weight: str, s: float, r: float, a: float, b: float,
                spec: QuadSpec = DEFAULT_QUADSPEC, mirrored: bool = False) -> Job:
    """The integral of ``kernel_K(weight, s, r, a, b, spec)`` as a job of
    :func:`integrate_many`, after ``kernel_K``'s checks.  ``mirrored`` writes
    it in the t -> 1-t substituted form: the mirror weight over
    (t a + (1 - t) b), the same value by an independent integrand."""
    _check_kernel(weight, s, r, a, b)
    flip, kink = _WEIGHT_FORMS[_MIRROR[weight] if mirrored else weight]
    p, q = (b, a) if mirrored else (a, b)
    use = spec.with_splits(0.5) if kink else spec
    return _kernel_integrand, (flip, kink, float(s), float(r), float(p), float(q)), 0.0, 1.0, use


@lru_cache(maxsize=16384)
def _kernel_K_cached(weight: str, s: float, r: float, a: float, b: float, spec: QuadSpec) -> float:
    family, params, lo, hi, use = _kernel_job(weight, s, r, a, b, spec)
    return integrate(partial(family, *params), lo, hi, use)


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
    _check_kernel(weight, s, r, a, b)
    return _kernel_K_cached(weight, float(s), float(r), float(a), float(b), spec)
