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
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

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

# QUADPACK's round-off floor on a panel's error, and the |integral| below which
# it is not applied.  Python floats, so that every estimate and error bound
# is a float.
_ERR_FLOOR = 50.0 * sys.float_info.epsilon
_RESABS_FLOOR = sys.float_info.min / _ERR_FLOOR
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
        # A NaN or infinite tolerance would pass any error bound, and certify
        # nothing.
        if not all(isinstance(tol, numbers.Real) and 0.0 < tol < math.inf for tol in (self.abs_tol, self.rel_tol)):
            raise DomainError(
                f"quadrature tolerances must be finite and positive, got {self.abs_tol!r} and {self.rel_tol!r}")
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, numbers.Integral) or self.max_depth < 1:
            raise DomainError(f"max_depth must be an integer of at least 1, got {self.max_depth!r}")
        # specs are cache keys; keep them hashable even if a list was passed
        object.__setattr__(self, "split_points", tuple(float(p) for p in self.split_points))

    # Built once per spec and points: every kernel asks for the split at x = 0
    # where the halves of its log variable meet, and every Euler half for
    # the midpoint of its interval.
    @lru_cache(maxsize=256)
    def with_splits(self, *points: float) -> "QuadSpec":
        """This spec with the split points ``points``."""
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


def _gk15_many(resk: np.ndarray, resg: np.ndarray, resabs: np.ndarray, resasc: np.ndarray) -> np.ndarray:
    """:func:`_gk15` of many panels: their integral estimates and their error
    estimates, one row each, each the same, bit for bit.

    The power 1.5 is ``np.float_power``, which calls the C library's ``pow``
    as Python's float power in ``_gk15`` does; ``np.power`` may not, and on
    an AVX-512 CPU differs from it in the last bit on about 5% of values.
    (The ratio stays within a few hundred, far below the 1e205 past which
    Python's power would raise ``OverflowError``.)
    """
    err = np.abs(resk - resg)
    # The power of every panel, kept where _gk15 scales the error: elsewhere
    # the ratio may divide by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.fmin(np.float_power(200.0 * err / resasc, 1.5), 1.0)
        err = np.where((resasc != 0.0) & (err != 0.0), resasc * power, err)
    floor = _ERR_FLOOR * resabs
    return np.array((resk, np.where((resabs > _RESABS_FLOOR) & (floor > err), floor, err)))


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-widths of panels ``(lo, hi)`` and their nodes, one row of 15
    per panel: ``center + half * _NODES``, computed elementwise exactly as a
    single panel would compute them."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES


def _sums(fx: np.ndarray, lo: np.ndarray, hi: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, ...]:
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
    return resk, resg, resabs, resasc


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
    """Wrap ``f`` so it accepts node arrays even if written scalar-only.  A
    ``DomainError`` of the array call is raised as it is: node by node, the
    integrand would only fail again."""

    def call(xs: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(f(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except DomainError:
            raise
        except (TypeError, ValueError):
            pass
        return np.array([float(f(x)) for x in xs])

    return call


def _edges(lo: float, hi: float, spec: QuadSpec) -> list[float]:
    """The edges of ``[lo, hi]``'s first panels: ``lo``, the split points of
    ``spec`` inside, and ``hi``."""
    if not lo < hi:
        raise DomainError(f"integration requires lo < hi, got [{lo}, {hi}]")
    return [lo, *sorted({float(p) for p in spec.split_points if lo < p < hi}), hi]


def _not_met(what: str, lo: float, hi: float, estimate: float, bound: float) -> ToleranceNotMetError:
    return ToleranceNotMetError(
        f"{what} on [{lo}, {hi}]: estimate {estimate!r} with error bound {bound!r}",
        estimate=estimate,
        error_bound=bound,
    )


def _evaluate(fv: Callable[[np.ndarray], np.ndarray], panels: list[tuple[float, float]]) -> list[tuple[float, ...]]:
    """The weighted sums of ``panels``, from one call of ``fv`` on all their nodes."""
    starts, ends = np.array(panels, dtype=float).T
    half, x = _nodes(starts, ends)
    resk, resg, resabs, resasc = _sums(fv(x.ravel()).reshape(-1, 15), starts, ends, half)
    return list(zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist()))


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
    per-call overhead, not the arithmetic, is what a panel costs.  The sums of
    the look-ahead panels wait until a bisection asks for them, so the result
    is the same, bit for bit, as evaluating each panel when it is needed.
    """
    fv = _vectorized(f)
    edges = _edges(lo, hi, spec)
    panels = list(zip(edges[:-1], edges[1:]))
    # Panels as (-err, counter, lo, hi, val, err, depth): the worst error
    # first, and the first made of equal errors.
    heap = []
    total_val = 0.0
    total_err = 0.0
    for counter, ((a, b), sums) in enumerate(zip(panels, _evaluate(fv, panels))):
        val, err = _gk15(*sums)
        total_val += val
        total_err += err
        heap.append((-err, counter, a, b, val, err, 0))
    heapq.heapify(heap)
    counter = n_intervals = len(panels)
    # Sums of look-ahead panels not yet consumed, by (lo, hi).  A sum depends
    # only on its panel, so a panel reached again reads the same values.
    ahead: dict[tuple[float, float], tuple[float, float, float, float]] = {}
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        # Drop exhausted intervals from the refinement pool; their error stays
        # counted, so this can only end in success or an honest failure.
        while heap and heap[0][6] >= spec.max_depth:
            heapq.heappop(heap)
        if not heap or n_intervals >= _MAX_INTERVALS:
            raise _not_met("tolerance not met", lo, hi, total_val, total_err)
        _, _, a, b, val, err, depth = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        left, right = ahead.pop((a, mid), None), ahead.pop((mid, b), None)
        if left is None or right is None:
            ladder = _ladder(a, b, min(_LADDER_LEVELS, spec.max_depth - depth - 1))
            sums = _evaluate(fv, ladder)
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
        raise _not_met("non-finite integral", lo, hi, total_val, total_err)
    return total_val


# One integral of ``integrate_many``: ``(family, params, lo, hi, spec)``, the
# integral of ``partial(family, *params)`` over ``[lo, hi]``.
Job = tuple[Callable[..., np.ndarray], tuple, float, float, QuadSpec]

# At most this many integrals of one ``integrate_many`` batch run at a time:
# each round's node and parameter arrays, and the panel rows, grow with the
# integrals in it.  On the adjudication batches 64 took more CPU, and 256 or
# no cap took more memory for no less CPU (BENCH_19.json).
_IN_FLIGHT = 128

# The columns of a bisected panel's two children, past its row's last panel.
_CHILDREN = np.array([[0], [1]])


def _batch_family(family: Callable[..., np.ndarray], rows: list[tuple]) -> Callable:
    """``family`` as a batch calls it: ``call(cols, x)`` evaluates it on the
    nodes ``x`` of panels, one panel per row of 15 along the last two axes,
    whose parameters are ``rows[c]`` for ``c`` in ``cols`` (one row per job
    of the family).

    What stays fixed for a job is settled here, once per batch: a parameter
    that every job shares goes in as that value, as ``integrate`` passes it;
    any other goes in as an array of one value per panel; and each parameter
    the family declares in ``family.exponents`` (its positions of the
    parameters it only raises to, with :func:`_pow`) goes in as an
    :class:`_Exponent` that names the panels with a fast scalar exponent.
    """
    params = np.array(rows, dtype=float).T
    shared = (params == params[:, :1]).all(axis=1)
    template = [value if same else None for value, same in zip(rows[0], shared)]
    varying = np.flatnonzero(~shared).tolist()
    table = params[varying][:, :, None]
    fast = {p: [(function, hit[:, None]) for value, function in _FAST_POWERS if (hit := params[p] == value).any()]
            for p in getattr(family, "exponents", ()) if p in varying}

    def call(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
        args = template.copy()
        for p, values in zip(varying, table[:, cols]):
            args[p] = _Exponent(values, [(function, hit[cols]) for function, hit in fast[p]]) if p in fast else values
        return family(*args, x)

    return call


def _estimates(families: list, family: np.ndarray, column: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """The integral and error estimates of panels ``(lo, hi)``, each of shape
    ``(m, n)``, stacked: panel ``[i, p]`` integrates the :func:`_batch_family`
    ``families[family[p]]`` with the parameters of column ``column[p]``.

    ``family`` must not decrease, so that each family is called once, on
    one slice of the panels.
    """
    lo_flat, hi_flat = lo.ravel(), hi.ravel()
    half, x = _nodes(lo_flat, hi_flat)
    x = x.reshape(*lo.shape, 15)
    fx = np.empty_like(x)
    ends = np.searchsorted(family, range(len(families) + 1)).tolist()
    for call, a, b in zip(families, ends, ends[1:]):
        if a < b:
            fx[:, a:b] = call(column[a:b], x[:, a:b])
    return _gk15_many(*_sums(fx.reshape(-1, 15), lo_flat, hi_flat, half)).reshape(2, *lo.shape)


def integrate_many(jobs: Sequence[Job]) -> list[Optional[float]]:
    """The integrals of ``jobs`` in lockstep: each job that finishes gives
    ``integrate(partial(family, *params), lo, hi, spec)``, bit for bit, and
    each job that leaves the common path gives ``None``.

    A family is called as ``family(*params, x)``; in a batch ``x`` holds the
    nodes of many panels, one panel per row of 15, and a parameter goes in
    as :func:`_batch_family` settles it, so the family must compute
    elementwise and raise with :func:`_pow`.

    What stays fixed for a job is read once, when the batch starts: its
    family and parameters, tolerances and depth limit, and its first
    panels, evaluated as many at a time as a round's children.
    At most ``_IN_FLIGHT`` integrals run at once, each in a row of panel
    arrays (lo, hi, value, error, depth) that keeps its panels in the order
    they were made; a finished integral's row goes to the next job in
    order.  Each round bisects the worst panel of every row: ``argmax`` over
    the errors, with consumed panels and panels at ``max_depth`` masked,
    takes the first of equal errors, as ``integrate``'s heap does.  A round
    evaluates the two children of every bisected panel, one family call per
    family, and their sums and error estimates in one pass; a batch has no
    look-ahead, which would add panels and save no call.

    A job leaves when its row has no panel left to bisect, when its row may
    outgrow its panels or reach ``_MAX_INTERVALS`` intervals, or when its
    totals end non-finite.  No job is integrated alone here and no
    integration error is raised: ``integrate`` gives a job that left its
    value, or its own ``ToleranceNotMetError``.
    """
    # Jobs over one interval with one spec share their first panels,
    # tolerances and depth limit: each such domain is read once.
    domains: dict[tuple, tuple] = {}
    domain = [domains.setdefault((lo, hi, id(spec)), (len(domains), lo, hi, spec))[0]
              for _, _, lo, hi, spec in jobs]
    edges = [_edges(lo, hi, spec) for _, lo, hi, spec in domains.values()]
    if not jobs:
        return []
    n_jobs = len(jobs)
    domain = np.array(domain)
    domain_first = np.array([len(e) - 1 for e in edges])

    # Each family's jobs, in order.
    members: dict[Callable, list[int]] = {}
    for i, job in enumerate(jobs):
        members.setdefault(job[0], []).append(i)
    # Per job: its family, its place among the family's jobs, and its
    # number of first panels.
    placing = np.empty((3, n_jobs), dtype=np.intp)
    families = []
    for f, (family, where) in enumerate(members.items()):
        placing[0, where], placing[1, where] = f, np.arange(len(where))
        families.append(_batch_family(family, [jobs[i][1] for i in where]))
    placing[2] = domain_first[domain]
    # Per job: abs_tol, rel_tol and max_depth.  No depth exceeds the
    # bisection count, which stays below _MAX_INTERVALS.
    limits = np.array([(spec.abs_tol, spec.rel_tol, min(spec.max_depth, _MAX_INTERVALS))
                       for *_, spec in domains.values()]).T[:, domain]

    # Every job's first panels (lo, hi, value, error, depth 0), its own in a
    # run from start[j], and each panel's column in its job's row.
    first = placing[2]
    start = np.concatenate(([0], first.cumsum()))
    owner = np.repeat(np.arange(n_jobs), first)
    place = np.arange(start[-1]) - start[owner]
    corners = np.array([[e for job_edges in edges for e in job_edges[:-1]],
                        [e for job_edges in edges for e in job_edges[1:]]])
    domain_start = np.concatenate(([0], domain_first.cumsum()))
    initial = np.zeros((5, start[-1]))
    initial[:2] = corners[:, domain_start[domain[owner]] + place]
    # Each job's value and error totals over its first panels: the first
    # panels are evaluated before any job enters, as many at a time as one
    # round's children, sorted by family.
    initial_totals = np.zeros((2, n_jobs))
    rows = min(_IN_FLIGHT, n_jobs)
    j0 = 0
    while j0 < n_jobs:
        j1 = max(j0 + 1, int(np.searchsorted(start, start[j0] + 2 * rows, "right")) - 1)
        at = start[j0] + np.argsort(placing[0, owner[start[j0]:start[j1]]], kind="stable")
        job = owner[at]
        initial[2:4, at] = _estimates(families, placing[0, job], placing[1, job], initial[0:1, at],
                                      initial[1:2, at])[:, 0]
        # integrate's running sums, panel after panel from 0.0
        sums = initial_totals[:, j0:j1]
        for c in range(first[j0:j1].max()):
            has = (first[j0:j1] > c).nonzero()[0]
            sums[:, has] += initial[2:4, start[j0:j1][has] + c]
        j0 = j1

    # Panel columns of a row: none of the 15,350 jobs of two adjudication
    # runs made more than 60 panels.  A job that may outgrow its row leaves
    # the batch.
    width = max(64, int(first.max()))
    # A row with more panels than this may outgrow its row in this round, or
    # have made _MAX_INTERVALS intervals (they never outnumber its panels).
    crowded = min(width - 2, _MAX_INTERVALS - 1)
    # The children of a panel shallower than this are below every max_depth.
    shallow = limits[2].min() - 1.0
    panels = np.zeros((5, rows, width))
    err_p = panels[3]  # -1 where consumed, at max_depth or unused
    job_of = np.full(rows, -1, dtype=np.intp)  # -1 for a free row
    row_placing = np.zeros((3, rows), dtype=np.intp)
    row_limits = np.zeros((3, rows))
    count = np.zeros(rows, dtype=np.intp)  # panels in a row
    totals = np.zeros((2, rows))  # value and error
    # Each job's totals when it converged.  NaN compares False against the
    # tolerance, so a non-finite sum leaves the loop as if it had converged.
    results = np.zeros((2, n_jobs))
    left = np.zeros(n_jobs, dtype=bool)  # jobs that left the common path
    taken = 0  # jobs given a row

    # The rows bisecting this round, and their panels to bisect.
    bisect = np.zeros(0, dtype=np.intp)
    while True:
        if bisect.size:
            # Both children of each panel: (lo, mid) and (mid, hi).
            ends = picked[[0, 0, 1]]
            ends[1] += ends[2]
            ends[1] *= 0.5
            est = _estimates(families, row_placing[0, bisect], row_placing[1, bisect], ends[:2], ends[1:])
            made = np.empty((5, 2, bisect.size))
            made[0], made[1], made[2:4], made[4] = ends[:2], ends[1:], est, picked[4] + 1.0
            if picked[4].max() >= shallow:
                made[3][made[4] >= row_limits[2, bisect]] = -1.0
            panels[:, bisect, count[bisect] + _CHILDREN] = made
            count[bisect] += 2
            # The running totals, by integrate's operations in integrate's order.
            totals[:, bisect] += (est[:, 0] + est[:, 1]) - picked[2:4]

        if taken < n_jobs:
            free = (job_of < 0).nonzero()[0][: n_jobs - taken]
            if free.size:
                new = slice(taken, taken + free.size)
                taken += free.size
                job_of[free] = range(new.start, new.stop)
                row_placing[:, free], row_limits[:, free] = placing[:, new], limits[:, new]
                err_p[free] = -1.0
                at = slice(start[new.start], start[new.stop])
                panels[:, np.repeat(free, first[new]), place[at]] = initial[:, at]
                totals[:, free] = initial_totals[:, new]
                count[free] = first[new]

        live = job_of >= 0
        tol = row_limits[1] * np.abs(totals[0])
        going = totals[1] > np.fmax(tol, row_limits[0])
        done = (live & ~going).nonzero()[0]
        run = (live & going).nonzero()[0]
        if len(families) > 1:
            run = run[np.argsort(row_placing[0, run], kind="stable")]
        if done.size:
            results[:, job_of[done]] = totals[:, done]
            job_of[done] = -1
        if run.size:
            widest = count[run].max()
            pick = err_p[run, :widest].argmax(axis=1)
            picked = panels[:, run, pick]
            if widest > crowded or (picked[3] < 0.0).any():
                # A row with no panel left to bisect, or crowded, frees up:
                # its job leaves the batch.
                leave = (count[run] > crowded) | (picked[3] < 0.0)
                left[job_of[run[leave]]] = True
                job_of[run[leave]] = -1
                run, pick, picked = run[~leave], pick[~leave], picked[:, ~leave]
            err_p[run, pick] = -1.0
        bisect = run
        if not bisect.size and taken == n_jobs:
            break
    left |= ~np.isfinite(results).all(axis=0)
    return [None if gone else value for value, gone in zip(results[0].tolist(), left.tolist())]


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


class _Exponent(NamedTuple):
    """A batch family's exponent parameter (see :func:`_batch_family`): its
    values, and for each of numpy's fast scalar exponents among them, the
    fast function and where it applies."""

    values: np.ndarray
    fast: list[tuple[Callable, np.ndarray]]


def _pow(x: np.ndarray, e) -> np.ndarray:
    """``x ** e`` for a scalar ``e``, an array that broadcasts against ``x``
    or an :class:`_Exponent`, each value the same, bit for bit, as
    ``x ** float(e_i)`` computes it: elements whose exponent is one of
    numpy's fast scalar exponents take the fast path."""
    if isinstance(e, _Exponent):
        out = x**e.values
        for fast, hit in e.fast:
            fast(x, out=out, where=hit)
        return out
    out = x**e
    if isinstance(e, np.ndarray):
        for value, fast in _FAST_POWERS:
            hit = e == value
            if hit.any():
                fast(x, out=out, where=hit)
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


def _kernel_integrand(flip, kink, s, e, h_left, h_right, k_left, k_right, c_left, c_right,
                      x: np.ndarray) -> np.ndarray:
    """A kernel job's integrand (see :func:`_kernel_plan`): the left half of
    the log variable at x >= 0 and the right half at x < 0, each with its
    own constants h, k and c.  At x, ln y lies d = h x^4 from its value at
    the half's end, n = k expm1(d) is t on the left and 1 - t on the right,
    and the value is c |x|^3 w(t) exp(e d), e = 1 - 2r, with w the power s
    of t (of 1 - t where ``flip``), times |1 - 2t| where ``kink``."""
    right = x < 0.0
    x2 = x * x
    d = np.where(right, h_right, h_left) * (x2 * x2)
    n = np.expm1(d) * np.where(right, k_right, k_left)
    w = _pow(np.where(right != flip, 1.0 - n, n), s)
    if kink is not False:  # a scalar False needs no factor
        w = _select(kink, np.abs(1.0 - 2.0 * n) * w, w)
    return np.where(right, c_right, c_left) * x2 * np.abs(x) * w * np.exp(e * d)


_kernel_integrand.exponents = (2,)


def _check_kernel(weight: str, s: float, r: float, a: float, b: float) -> None:
    if weight not in _WEIGHT_FORMS:
        raise DomainError(f"unknown kernel weight {weight!r}; one of {KERNEL_WEIGHTS}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"kernel exponent s must lie in [0, 1], got {s}")
    if not r >= 1.0:
        raise DomainError(f"kernel exponent r must be >= 1, got {r}")
    if not 0.0 < a < b:
        raise DomainError(f"kernel requires 0 < a < b, got ({a}, {b})")


def _kernel_plan(weight: str, s: float, r: float, a: float, b: float,
                 spec: QuadSpec = DEFAULT_QUADSPEC, mirrored: bool = False) -> tuple:
    """``kernel_K(weight, s, r, a, b, spec)`` as one job of
    :func:`integrate_many` and the function of its value that gives the
    kernel, after ``kernel_K``'s checks.

    The kernel is integrated in its log variable: y = t b + (1 - t) a =
    p R^v with p = a and R = b / a, so that with L = ln R and E = expm1(L)

        K = p^(-2r) (L / E) int_0^1 w(t(v)) R^((1 - 2r) v) dv,
        t(v) = expm1(v L) / E,   1 - t(v) = -R expm1((v - 1) L) / E.

    The |1 - 2t| kink sits at v* = log1p((R - 1) / 2) / L.  The job
    integrates over x in [-1, 1], split at 0: x >= 0 covers [0, v*] with
    v = v* x^4, and x < 0 covers [v*, 1] with v = 1 - (1 - v*) x^4, its
    value taken times R^(1 - 2r).  Each end of v is reached at x = 0, where
    the power 4 makes t^s and (1 - t)^s, times the Jacobian 4 |x|^3, the
    smooth x^(4s + 3); the t or 1 - t that vanishes there comes from one
    ``expm1``, without cancellation.

    ``mirrored`` writes the kernel by t -> 1-t: the mirror weight over
    y = t a + (1 - t) b = b (a / b)^v, the same formulas with p = b and
    R = a / b, and an independent integrand.  That integrand peaks at
    v = 1, so there the x >= 0 half is scaled, by R^(2r - 1), rather than
    the x < 0 one, and the factor is p^(-2r) R^(1 - 2r) (L / E)."""
    _check_kernel(weight, s, r, a, b)
    flip, kink = _WEIGHT_FORMS[_MIRROR[weight] if mirrored else weight]
    p, q = (b, a) if mirrored else (a, b)
    ratio = q / p
    log_ratio = math.log(ratio)
    span = math.expm1(log_ratio)
    kink_v = math.log1p(0.5 * (ratio - 1.0)) / log_ratio
    e = 1.0 - 2.0 * float(r)
    # Each half's Jacobian times (y/a)^(1 - 2r) where the half reaches x = 0:
    # the integrand, at most 4 |x|^3 w(t) (y/a)^(1 - 2r), stays below 4 and
    # the factor is a^(-2r) (a/p) (L/E), so neither leaves the range of a
    # double before K does, whichever end p is.
    c_left = 4.0 * kink_v * math.exp(e * math.log(p / a))
    c_right = 4.0 * (1.0 - kink_v) * math.exp(e * math.log(q / a))
    params = (flip, kink, float(s), e, kink_v * log_ratio, (kink_v - 1.0) * log_ratio, 1.0 / span,
              -ratio / span, c_left, c_right)
    job = (_kernel_integrand, params, -1.0, 1.0, spec.with_splits(0.0))
    return (job,), partial(operator.mul, a ** (-2.0 * float(r)) * (a / p) * (log_ratio / span))


@lru_cache(maxsize=16384)
def _kernel_K_cached(weight: str, s: float, r: float, a: float, b: float, spec: QuadSpec) -> float:
    ((family, params, lo, hi, use),), combine = _kernel_plan(weight, s, r, a, b, spec)
    return combine(integrate(partial(family, *params), lo, hi, use))


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
    N1 = t^s, N2 = (1-t)^s.  The integral is taken in the log variable of
    ``t b + (1-t) a``, split at the ``t = 1/2`` kink, with a power
    substitution at each end (see :func:`_kernel_plan`), so that it sees
    the integrand's peak at every ratio b/a; ``spec``'s tolerances and depth
    apply to that integral, and its split points are not used.
    Results are cached; the quadrature is deterministic so caching is exact.
    """
    _check_kernel(weight, s, r, a, b)
    return _kernel_K_cached(weight, float(s), float(r), float(a), float(b), spec)
