"""The shared-mesh, slab-by-slab grid check against a from-scratch reference,
and the certification caches' bounds."""

import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from hhkit import bounds, functions
from hhkit.bounds import (
    CERT_CACHE_SIZE,
    Interval,
    _cached_mean,
    certify_function,
    certify_gradient,
    certify_plain,
    clear_certification_cache,
)
from hhkit.functions import (
    CHECK_SLACK,
    CheckReport,
    FunctionSpec,
    GradientPower,
    SMParams,
    check_harmonic_sm_convex,
    check_sm_convex,
    deriv,
    harmonic_combine,
)
from hhkit.harness import default_sweep_config, make_function, run_sweep
from hhkit.quadrature import DEFAULT_QUADSPEC

IV = Interval(1.0, 3.0)
EXPONENTS = (1.0, 1.5, 2.0, 3.0)
S_VALUES = (0.0, 0.25, 1.0)
M_VALUES = (0.5, 1.0)
Q_VALUES = (1.0, 1.5, 3.0)


def _reference_check(g, params, grid, window, plain=False):
    """The grid check written out in full: fresh mesh, no caching, no buffers,
    one pass over the whole mesh.  ``plain`` selects the ordinary (s,m)
    combination t x + m (1-t) y in place of the harmonic one."""
    lo, hi = window
    xs = np.geomspace(lo, hi, grid)
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid + 1), [0.5]]))
    x, y, t = xs[:, None, None], xs[None, :, None], ts[None, None, :]
    if plain:
        pts = t * x + params.m * (1.0 - t) * y
    else:
        raw = params.m * x * y / (params.m * t * y + (1.0 - t) * x)
        tb = np.broadcast_to(t, raw.shape)
        pts = np.where(tb == 1.0, np.broadcast_to(x * 1.0, raw.shape), raw)
        pts = np.where(tb == 0.0, np.broadcast_to(params.m * y, raw.shape), pts)
    lhs_w = t**params.s * g(x)
    rhs_w = params.m * (1.0 - t) ** params.s * g(y)
    fpts = g(pts)
    margin = fpts - (lhs_w + rhs_w)
    slack = np.maximum(CHECK_SLACK, 64.0 * np.finfo(float).eps * (np.abs(lhs_w) + np.abs(rhs_w) + np.abs(fpts)))
    excess = margin - slack
    i, j, k = np.unravel_index(int(np.argmax(excess)), margin.shape)
    diagnostics = ("s=0 is outside the definitional range (0,1]; theorem-driver extension",) if params.s == 0.0 else ()
    return CheckReport(
        passed=bool(float(excess[i, j, k]) <= 0.0),
        worst_margin=float(margin[i, j, k]),
        witness=(float(x[i, 0, 0]), float(y[0, j, 0]), float(t[0, 0, k])),
        samples=int(margin.size),
        diagnostics=diagnostics,
    )


def _old_gradient_closure(f, q):
    def g(x):
        return np.abs(deriv(f, x)) ** q

    return g


@pytest.fixture
def cold_caches():
    clear_certification_cache()
    yield
    clear_certification_cache()


@pytest.mark.parametrize("grid", [24, 48, 64])
def test_mesh_path_equals_reference(grid, cold_caches):
    verdicts = set()
    for exponent in EXPONENTS:
        for m in M_VALUES:
            f = make_function({"family": "pow", "params": (1.0, exponent, 0.0)}, m, IV)
            window = (IV.a, IV.b / m)
            for s in S_VALUES:
                got = certify_function(f, SMParams(s, m), window, grid)
                assert got == _reference_check(f, SMParams(s, m), grid, window)
                verdicts.add(got.passed)
                for q in Q_VALUES:
                    params = SMParams(s, m, q)
                    got = certify_gradient(f, params, window, grid)
                    old = _old_gradient_closure(f, q)
                    assert got == _reference_check(old, params, grid, window)
                    assert got == check_harmonic_sm_convex(old, SMParams(s, m), grid, window)
                    verdicts.add(got.passed)
    # both the passing and the failing certifications are compared
    assert verdicts == {True, False}


def test_cached_mesh_arrays_are_read_only(cold_caches):
    f = make_function({"family": "pow", "params": (1.0, 2.0, 0.0)}, 0.5, IV)
    window = (IV.a, IV.b / 0.5)
    certify_gradient(f, SMParams(0.5, 0.5, 2.0), window, 24)
    before = functions._shared_mesh_stage.cache_info()
    mesh = functions._shared_mesh_stage(f, True, harmonic_combine, 0.5, 24, window)
    assert functions._shared_mesh_stage.cache_info().hits == before.hits + 1
    for arr in mesh:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        mesh.fpts[0, 0, 0] = 0.0


def test_rows_of_one_mesh_share_it(cold_caches):
    f = make_function({"family": "pow", "params": (1.0, 3.0, 0.0)}, 1.0, IV)
    for s in S_VALUES:
        for q in Q_VALUES:
            certify_gradient(f, SMParams(s, 1.0, q), (IV.a, IV.b), 24)
    info = functions._shared_mesh_stage.cache_info()
    assert (info.misses, info.hits) == (1, len(S_VALUES) * len(Q_VALUES) - 1)


def test_clear_certification_cache_clears_the_mesh_cache(cold_caches):
    f = make_function({"family": "pow", "params": (1.0, 2.0, 0.0)}, 1.0, IV)
    certify_function(f, SMParams(1.0, 1.0), (IV.a, IV.b), 24)
    assert functions._shared_mesh_stage.cache_info().currsize == 1
    clear_certification_cache()
    assert functions._shared_mesh_stage.cache_info().currsize == 0
    assert certify_function.cache_info().currsize == 0


def test_certification_caches_stay_bounded(cold_caches):
    caches = (certify_function, certify_gradient, certify_plain, _cached_mean)
    assert all(c.cache_info().maxsize == CERT_CACHE_SIZE for c in caches)
    f = make_function({"family": "pow", "params": (1.0, 2.0, 0.0)}, 1.0, Interval(1.0, 4.0))
    draws = CERT_CACHE_SIZE + 64
    for i in range(draws):
        s = (i + 1) / draws
        certify_function(f, SMParams(s, 1.0), (1.0, 2.0), 8)
        certify_gradient(f, SMParams(s, 1.0, 2.0), (1.0, 2.0), 8)
        certify_plain(f, SMParams(s, 1.0), (1.0, 2.0), 8)
        _cached_mean(f, 1.0, 1.0 + 2.0 * s, DEFAULT_QUADSPEC)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == draws
        assert info.currsize == CERT_CACHE_SIZE


@pytest.mark.parametrize("grid", [16, 48])  # one slab, eight slabs
def test_threads_sharing_meshes_get_the_serial_reports(grid, cold_caches):
    # More threads than cores and a short switch interval, all reading the
    # same few cached meshes while rows evict and rebuild them.
    fams = [make_function({"family": "pow", "params": (1.0, e, 0.0)}, 1.0, IV) for e in EXPONENTS]
    rows = [(f, s, q) for f in fams for s in S_VALUES for q in Q_VALUES]

    def check(f, s, q):
        return check_harmonic_sm_convex(GradientPower(f, q), SMParams(s, 1.0), grid, (IV.a, IV.b))

    expected = [_reference_check(_old_gradient_closure(f, q), SMParams(s, 1.0), grid, (IV.a, IV.b)) for f, s, q in rows]
    results: dict[int, list] = {}

    def worker(n):
        order = list(range(n, len(rows))) + list(range(n))
        results[n] = [(i, check(*rows[i])) for i in order * 3]

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == list(range(8))
    for got in results.values():
        assert len(got) == 3 * len(rows)
        assert all(report == expected[i] for i, report in got)


# The row stage runs one slab of x rows at a time.  These grids give one slab
# (9 and 13 are odd, so 0.5 joins the t mesh; 24 is the search grid), eight
# (the sweep's 48) and 22 with a partial last slab (64, `hhkit verify`).
SLAB_COUNTS = {9: 1, 13: 1, 24: 1, 48: 8, 64: 22}
SLAB_FAMILIES = (
    {"family": "pow", "params": (1.0, 1.5, 0.0)},
    {"family": "pow", "params": (-2.0, 0.5, 1.0)},  # negative on the window
    {"family": "affine", "params": (2.0, -3.0)},  # changes sign
    {"family": "exp", "params": (-1.0,)},
    {"family": "spiece", "params": (1.0, 0.5, 0.2, 0.5)},
    {"family": "recip", "params": ()},
)


def _slab_rows(grid):
    t_points = grid + 1 if grid % 2 == 0 else grid + 2
    return min(grid, max(1, functions._SLAB_POINTS // (grid * t_points)))


@pytest.mark.parametrize("plain", [False, True], ids=["harmonic", "plain"])
@pytest.mark.parametrize("grid", sorted(SLAB_COUNTS))
def test_slab_loop_equals_reference(grid, plain, cold_caches):
    assert math.ceil(grid / _slab_rows(grid)) == SLAB_COUNTS[grid]
    check = check_sm_convex if plain else check_harmonic_sm_convex
    verdicts = set()
    for m in M_VALUES:
        window = (IV.a, IV.b / m)
        for desc in SLAB_FAMILIES:
            f = make_function(desc, m, IV)
            for s in S_VALUES:
                params = SMParams(s, m)
                for target, ref in ((f, f), (GradientPower(f, 2.5), _old_gradient_closure(f, 2.5))):
                    got = check(target, params, grid, window)
                    assert got == _reference_check(ref, params, grid, window, plain), (desc, s, m)
                    verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("grid", [48, 64])
def test_a_tie_across_slabs_keeps_the_first_point(grid):
    # every (x, y) row of a constant function has the same margins in t, so
    # each slab holds the maximum; the whole-mesh argmax takes the first
    f = FunctionSpec.affine(0.0, 1.0, 0.5, 4.0)
    window = (1.0, 2.0)
    for target, ref in ((f, f), (GradientPower(f, 2.0), _old_gradient_closure(f, 2.0))):
        for s in (0.5, 1.0):
            got = check_harmonic_sm_convex(target, SMParams(s, 1.0), grid, window)
            assert got == _reference_check(ref, SMParams(s, 1.0), grid, window)
            assert got.witness[:2] == (1.0, 1.0)


@pytest.mark.parametrize("grid", [48, 64])
def test_the_first_nan_wins(grid):
    lo, hi, m = 1.0, 4.0, 0.5
    xs = np.geomspace(lo, hi, grid)
    # NaN in a band between two mesh nodes: only combined points of later x
    # rows fall into it, so slab 0 is finite and a later slab's NaN must win
    gap = xs[-7] - xs[-8]
    band = (xs[-8] + 0.25 * gap, xs[-7] - 0.25 * gap)

    def past(v):
        return np.where(v > 2.0, np.nan, v * v)

    def banded(v):
        return np.where((v > band[0]) & (v < band[1]), np.nan, v * v)

    for g in (past, banded):
        got = check_harmonic_sm_convex(g, SMParams(0.5, m), grid, (lo, hi))
        ref = _reference_check(g, SMParams(0.5, m), grid, (lo, hi))
        assert math.isnan(got.worst_margin) and math.isnan(ref.worst_margin)
        assert (got.passed, got.witness, got.samples) == (False, ref.witness, ref.samples)
    assert got.witness[0] > xs[_slab_rows(grid) - 1]


# Independent references for the grid check.  For s = m = 1, c x^e with c > 0
# is harmonically convex on a window iff u -> (1/u)^e = u^(-e) is convex there,
# that is iff e >= 0 or e <= -1; |f'|^q of x^p is again such a power, with
# e = (p - 1) q.
ORACLE_EXPONENTS = (-3.0, -2.0, -1.5, -1.05, -0.95, -0.5, -0.05, 0.05, 0.5, 1.0, 2.0, 3.0)
ORACLE_WINDOWS = ((1.0, 1.5), (1.0, 5.0), (0.5, 5.0))


def _closed_form_convex(e):
    return e >= 0.0 or e <= -1.0


@pytest.mark.parametrize("window", ORACLE_WINDOWS)
@pytest.mark.parametrize("p", ORACLE_EXPONENTS)
def test_grid_check_matches_the_power_closed_form(p, window):
    lo, hi = window
    f = make_function({"family": "pow", "params": (1.0, p, 0.0)}, 1.0, Interval(lo, hi))
    unit = SMParams(1.0, 1.0)
    assert check_harmonic_sm_convex(f, unit, 48, window).passed == _closed_form_convex(p)
    for q in (1.0, 1.5, 3.0):
        got = check_harmonic_sm_convex(GradientPower(f, q), unit, 48, window).passed
        assert got == _closed_form_convex((p - 1.0) * q), q


def test_gradient_verdicts_agree_between_grids_48_and_64(cold_caches):
    # pow exponent 1.5 at a = 1 over the default ratios and (s, m, q): the
    # sweep certifies on grid 48, `hhkit verify` on grid 64
    verdicts = set()
    for ratio in (1.5, 2.0, 5.0):
        iv = Interval(1.0, ratio)
        for m in (0.5, 0.8, 1.0):
            f = make_function({"family": "pow", "params": (1.0, 1.5, 0.0)}, m, iv)
            window = (iv.a, iv.b / m)
            for s in (0.25, 0.5, 0.75, 1.0):
                for q in (1.0, 1.5, 2.0, 3.0):
                    params = SMParams(s, m, q)
                    coarse = certify_gradient(f, params, window, 48).passed
                    assert certify_gradient(f, params, window, 64).passed == coarse, (ratio, m, s, q)
                    verdicts.add(coarse)
    assert verdicts == {True, False}


# The slow lane (`python -m pytest -m slow`): audits of every distinct
# certification the default sweep runs, 2,592 of |f'|^q and 648 of f.


@pytest.fixture(scope="module")
def default_sweep_certifications():
    """(target, params, grid, window, plain, report) of each distinct
    certification of the default sweep, recorded where ``bounds`` calls the
    grid checks."""
    seen = {}

    def recording(check, plain):
        def record(f, params, grid, window):
            report = check(f, params, grid, window)
            seen.setdefault((f, params, grid, window, plain), report)
            return report

        return record

    clear_certification_cache()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "check_harmonic_sm_convex", recording(check_harmonic_sm_convex, False))
            mp.setattr(bounds, "check_sm_convex", recording(check_sm_convex, True))
            summary = run_sweep(default_sweep_config()).summary
    finally:
        clear_certification_cache()
    assert (summary["instances_evaluated"], summary["findings"]) == (8568, 0)
    return [key + (report,) for key, report in seen.items()]


@pytest.mark.slow
def test_every_default_sweep_certification_equals_the_reference(default_sweep_certifications):
    kinds = Counter()
    for target, params, grid, window, plain, report in default_sweep_certifications:
        gradient = isinstance(target, GradientPower)
        kinds["gradient" if gradient else "function"] += 1
        ref = _old_gradient_closure(target.f, target.q) if gradient else target
        assert report == _reference_check(ref, params, grid, window, plain), (target, params, window)
    assert kinds == {"gradient": 2592, "function": 648}


@pytest.mark.slow
def test_all_default_gradient_verdicts_agree_between_grids_48_and_64(default_sweep_certifications):
    pairs = [c for c in default_sweep_certifications if isinstance(c[0], GradientPower)]
    assert len(pairs) == 2592
    verdicts = Counter()
    for target, params, grid, window, _, report in pairs:
        assert grid == 48
        fine = check_harmonic_sm_convex(target, params, 64, window)
        assert fine.passed == report.passed, (target, params, window)
        verdicts[report.passed] += 1
    assert set(verdicts) == {True, False}
