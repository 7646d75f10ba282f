"""The shared-mesh, one-pass grid check against a from-scratch full-mesh
reference (homogeneous targets on the border mesh: same verdicts, witnesses on
the border), the reduced-problem path against the target's own border check
(same verdicts, the border check's failing reports), its first-maximum and
first-NaN witnesses, and the certification caches' bounds."""

import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhkit import bounds, functions, harness
from hhkit.bounds import (
    CERT_CACHE_SIZE,
    Interval,
    _cached_mean,
    certify_function,
    certify_gradient,
    certify_plain,
    clear_certification_cache,
    verify_bound,
)
from hhkit.errors import CertificationError, DomainError, ParameterError
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


def _mesh_axes(grid, window):
    xs = np.geomspace(window[0], window[1], grid)
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid + 1), [0.5]]))
    return xs, ts


def _reference_mesh(g, params, grid, window, plain=False):
    """The grid check's full mesh written out: fresh mesh, no caching, no
    buffers.  Returns x, y, t, margin and slack, each of the full
    (grid, grid, t points) shape.  ``plain`` selects the ordinary (s,m)
    combination t x + m (1-t) y in place of the harmonic one."""
    xs, ts = _mesh_axes(grid, window)
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
    return tuple(np.broadcast_to(a, margin.shape) for a in (x, y, t, margin, slack))


def _reference_check(g, params, grid, window, plain=False):
    """The grid check on the full mesh, in one pass."""
    return _reference_report(_reference_mesh(g, params, grid, window, plain), params)


def _reference_report(mesh, params):
    x, y, t, margin, slack = mesh
    excess = margin - slack
    index = np.unravel_index(int(np.argmax(excess)), margin.shape)
    diagnostics = ("s=0 is outside the definitional range (0,1]; theorem-driver extension",) if params.s == 0.0 else ()
    return CheckReport(
        passed=bool(float(excess[index]) <= 0.0),
        worst_margin=float(margin[index]),
        witness=(float(x[index]), float(y[index]), float(t[index])),
        samples=int(margin.size),
        diagnostics=diagnostics,
    )


def _border_index(witness, grid, window):
    """The full-mesh index of a witness, asserting that it is a mesh point on
    the border of the x,y mesh."""
    xs, ts = _mesh_axes(grid, window)
    (i,), (j,), (k,) = (np.flatnonzero(axis == w) for axis, w in zip((xs, xs, ts), witness))
    assert {i, j} & {0, grid - 1}, witness
    return i, j, k


def _assert_border_check(got, g, params, grid, window, plain=False, mesh=None):
    """A border-mesh report against the full-mesh reference: the same verdict,
    a witness on the mesh border whose full-formula margin is the report's
    worst margin bit for bit, and (4 grid - 4) x-y pairs evaluated."""
    mesh = _reference_mesh(g, params, grid, window, plain) if mesh is None else mesh
    ref = _reference_report(mesh, params)
    margins = mesh[3]
    margin = float(margins[_border_index(got.witness, grid, window)])
    assert got.passed == ref.passed
    assert got.worst_margin == margin or (math.isnan(got.worst_margin) and math.isnan(margin))
    assert got.samples == (4 * grid - 4) * margins.shape[2]
    assert got.diagnostics == ref.diagnostics
    return ref


def _own_check(target, params, grid, window, plain=False):
    """The target's own mesh check, which the reduced path stands in for."""
    combiner = functions._linear_combine if plain else harmonic_combine
    return functions._mesh_check(target, params, grid, window, combiner)


def _assert_reduced_report(got, own, mesh, grid, window):
    """A report of the reduced path against the target's own border check
    ``own`` and the full-mesh reference ``mesh``: the same verdict; a failing
    report is the border check's; a passing one has a witness at a border
    point of the instance's mesh and reports the instance's margin there, up
    to its slack."""
    assert got.passed == own.passed
    if not got.passed:
        assert got == own
        return
    xs, ts = _mesh_axes(grid, window)
    (i,), (j,) = (np.flatnonzero(np.isclose(xs, w, rtol=1e-12, atol=0.0)) for w in got.witness[:2])
    (k,) = np.flatnonzero(ts == got.witness[2])
    assert {i, j} & {0, grid - 1}, got.witness
    _, _, _, margin, slack = mesh
    assert abs(got.worst_margin - margin[i, j, k]) <= slack[i, j, k], (got, margin[i, j, k])
    assert (got.samples, got.diagnostics) == (own.samples, own.diagnostics)


def _assert_reduced_check(got, target, g, params, grid, window, plain=False):
    """A homogeneous target's report against its own border check, and that
    border check against the full-mesh reference; returns the reference."""
    mesh = _reference_mesh(g, params, grid, window, plain)
    own = _own_check(target, params, grid, window, plain)
    ref = _assert_border_check(own, g, params, grid, window, plain, mesh)
    _assert_reduced_report(got, own, mesh, grid, window)
    return ref


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
    reports = []
    for exponent in EXPONENTS:
        for m in M_VALUES:
            f = make_function({"family": "pow", "params": (1.0, exponent, 0.0)}, m, IV)
            window = (IV.a, IV.b / m)
            for s in S_VALUES:
                got = certify_function(f, SMParams(s, m), window, grid)
                ref = _assert_reduced_check(got, f, f, SMParams(s, m), grid, window)
                reports.append((got, ref))
                for q in Q_VALUES:
                    params = SMParams(s, m, q)
                    got = certify_gradient(f, params, window, grid)
                    old = _old_gradient_closure(f, q)
                    ref = _assert_reduced_check(got, GradientPower(f, q), old, params, grid, window)
                    # a bare callable has no homogeneity: it keeps the full mesh
                    assert check_harmonic_sm_convex(old, SMParams(s, m), grid, window) == ref
                    reports.append((got, ref))
    # both the passing and the failing certifications are compared; a failing
    # one keeps the full mesh's worst margin and witness
    assert {got.passed for got, _ in reports} == {True, False}
    for got, ref in reports:
        if not got.passed:
            assert (got.worst_margin, got.witness) == (ref.worst_margin, ref.witness)


def test_cached_mesh_arrays_are_read_only(cold_caches):
    # a shifted power is not homogeneous, so it is checked on its own mesh
    f = make_function({"family": "pow", "params": (1.0, 2.0, 1.0)}, 0.5, IV)
    window = (IV.a, IV.b / 0.5)
    certify_gradient(f, SMParams(0.5, 0.5, 2.0), window, 24)
    before = functions._shared_mesh_stage.cache_info()
    mesh = functions._shared_mesh_stage(f, True, harmonic_combine, 0.5, 24, window)
    assert functions._shared_mesh_stage.cache_info().hits == before.hits + 1
    for arr in mesh:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        mesh.fpts[0, 0] = 0.0


def test_rows_of_one_mesh_share_it(cold_caches):
    f = make_function({"family": "pow", "params": (1.0, 3.0, 1.0)}, 1.0, IV)
    for s in S_VALUES:
        for q in Q_VALUES:
            certify_gradient(f, SMParams(s, 1.0, q), (IV.a, IV.b), 24)
    info = functions._shared_mesh_stage.cache_info()
    assert (info.misses, info.hits) == (1, len(S_VALUES) * len(Q_VALUES) - 1)
    assert functions._reduced_rows.cache_info().currsize == 0


def test_clear_certification_cache_clears_the_mesh_cache(cold_caches):
    for shift in (0.0, 1.0):
        f = make_function({"family": "pow", "params": (1.0, 2.0, shift)}, 1.0, IV)
        certify_function(f, SMParams(1.0, 1.0), (IV.a, IV.b), 24)
    assert functions._shared_mesh_stage.cache_info().currsize == 1
    assert functions._reduced_rows.cache_info().currsize == 1
    clear_certification_cache()
    assert functions._shared_mesh_stage.cache_info().currsize == 0
    assert functions._reduced_rows.cache_info().currsize == 0
    assert certify_function.cache_info().currsize == 0


@pytest.mark.parametrize("theorem, cache", [("HH", certify_plain), ("II1", certify_function),
                                            ("II2", certify_gradient)])
def test_non_integer_grid_is_rejected_cold_and_warm(theorem, cache, cold_caches):
    # the caches are typed: an entry of grid 48 does not serve 48.0, which
    # check_grid rejects
    f = make_function({"family": "pow", "params": (1.0, 2.0, 0.0)}, 0.8, IV)
    params = SMParams(0.5, 0.8, 2.0)
    for warm in (False, True):
        with pytest.raises(ParameterError, match="^certification grid density must be an integer, got 48.0$"):
            bounds.verify_theorem(theorem, f, params, IV, grid=48.0)
        assert bounds.verify_theorem(theorem, f, params, IV, grid=48).satisfied
        assert cache.cache_info().currsize == 1


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


@pytest.mark.parametrize("grid", [16, 48])  # a small mesh and the sweep's grid
def test_threads_sharing_meshes_get_the_serial_reports(grid, cold_caches):
    # More threads than cores and a short switch interval, all reading the
    # same few cached meshes while rows evict and rebuild them.  Shifted
    # powers are not homogeneous, so they keep the full mesh.
    fams = [make_function({"family": "pow", "params": (1.0, e, shift)}, 1.0, IV)
            for e in EXPONENTS for shift in (0.0, 1.0)]
    rows = [(f, s, q) for f in fams for s in S_VALUES for q in Q_VALUES]

    def check(f, s, q):
        return check_harmonic_sm_convex(GradientPower(f, q), SMParams(s, 1.0), grid, (IV.a, IV.b))

    expected = [check(*row) for row in rows]
    for (f, s, q), report in zip(rows, expected):
        closure, params, window = _old_gradient_closure(f, q), SMParams(s, 1.0), (IV.a, IV.b)
        if f.homogeneity is None:
            assert report == _reference_check(closure, params, grid, window)
        else:
            _assert_reduced_check(report, GradientPower(f, q), closure, params, grid, window)
    clear_certification_cache()
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


def test_every_workload_family_is_homogeneous():
    # The sweep and the search certify only these families; homogeneous ones
    # run on the border mesh, so the row stage is one small pass.
    for desc in (*default_sweep_config().families, *harness._SEARCH_FAMILIES):
        f = make_function(desc, 1.0, IV)
        for target in (f, GradientPower(f, 2.0)):
            assert target.homogeneity is not None, (
                f"{f.label} is not homogeneous: its certifications run on the full mesh, which puts the "
                "full-mesh cost of the grid check back on a workload; see the row-stage paragraph of "
                "README.md ('What is inside')")


# 9 and 13 are odd, so 0.5 joins the t mesh; 24 is the search grid, 48 the
# sweep's and 64 that of `hhkit verify`.
REFERENCE_GRIDS = (9, 13, 24, 48, 64)
REFERENCE_FAMILIES = (
    {"family": "pow", "params": (1.0, 1.5, 0.0)},
    {"family": "pow", "params": (-2.0, 0.5, 1.0)},  # negative on the window
    {"family": "affine", "params": (2.0, -3.0)},  # changes sign
    {"family": "exp", "params": (-1.0,)},
    {"family": "spiece", "params": (1.0, 0.5, 0.2, 0.5)},
    {"family": "recip", "params": ()},
)


@pytest.mark.parametrize("plain", [False, True], ids=["harmonic", "plain"])
@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_row_stage_equals_reference(grid, plain, cold_caches):
    check = check_sm_convex if plain else check_harmonic_sm_convex
    verdicts = set()
    for m in M_VALUES:
        window = (IV.a, IV.b / m)
        for desc in REFERENCE_FAMILIES:
            f = make_function(desc, m, IV)
            for s in S_VALUES:
                params = SMParams(s, m)
                for target, ref in ((f, f), (GradientPower(f, 2.5), _old_gradient_closure(f, 2.5))):
                    got = check(target, params, grid, window)
                    if target.homogeneity is None:
                        assert got == _reference_check(ref, params, grid, window, plain), (desc, s, m)
                    else:
                        _assert_reduced_check(got, target, ref, params, grid, window, plain)
                    verdicts.add(got.passed)
    assert verdicts == {True, False}


HOMOGENEOUS_DRAWS = st.one_of(
    st.builds(lambda c, e: {"family": "pow", "params": (c, e, 0.0)},
              st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), st.floats(-3.0, 4.0)),
    st.just({"family": "recip", "params": ()}),
    st.builds(lambda b0, s: {"family": "spiece", "params": (1.0, b0, 0.0, s)},
              st.floats(0.1, 3.0), st.floats(0.05, 1.0)),
)


@settings(max_examples=80, deadline=None)
@given(
    desc=HOMOGENEOUS_DRAWS,
    q=st.none() | st.floats(1.0, 3.0),
    plain=st.booleans(),
    grid=st.sampled_from((8, 24, 48)),
    s=st.floats(0.0, 1.0),
    m=st.floats(0.05, 1.0),
    a=st.floats(0.5, 3.0),
    ratio=st.floats(1.1, 10.0),
)
def test_border_mesh_agrees_with_the_full_mesh(desc, q, plain, grid, s, m, a, ratio):
    iv = Interval(a, a * ratio)
    f = make_function(desc, m, iv)
    target, ref = (f, f) if q is None else (GradientPower(f, q), _old_gradient_closure(f, q))
    assert target.homogeneity is not None
    params, window = SMParams(s, m), (iv.a, iv.b / m)
    _assert_border_check(_own_check(target, params, grid, window, plain), ref, params, grid, window, plain)


# c down to 1e-9 and windows from 1e-3 up put the margins of failing reduced
# problems below the 1e-12 absolute slack, so the floor decides some verdicts.
SCALED_DRAWS = st.one_of(
    st.builds(lambda c, e: {"family": "pow", "params": (c, e, 0.0)},
              st.floats(1e-9, 3.0) | st.floats(-3.0, -1e-9), st.floats(-3.0, 4.0)),
    st.just({"family": "recip", "params": ()}),
    st.builds(lambda b0, s: {"family": "spiece", "params": (1.0, b0, 0.0, s)},
              st.floats(1e-9, 3.0), st.floats(0.05, 1.0)),
)


@settings(max_examples=150, deadline=None)
@given(
    desc=SCALED_DRAWS,
    q=st.none() | st.floats(1.0, 3.0),
    plain=st.booleans(),
    grid=st.sampled_from((8, 24, 48)),
    s=st.floats(0.0, 1.0),
    m=st.floats(0.05, 1.0),
    a=st.floats(1e-3, 50.0),
    ratio=st.floats(1.1, 10.0),
)
def test_reduced_path_agrees_with_the_border_check(desc, q, plain, grid, s, m, a, ratio):
    iv = Interval(a, a * ratio)
    f = make_function(desc, m, iv)
    target, ref = (f, f) if q is None else (GradientPower(f, q), _old_gradient_closure(f, q))
    check = check_sm_convex if plain else check_harmonic_sm_convex
    params, window = SMParams(s, m), (iv.a, iv.b / m)
    got = check(target, params, grid, window)
    own = _own_check(target, params, grid, window, plain)
    _assert_reduced_report(got, own, _reference_mesh(ref, params, grid, window, plain), grid, window)


@pytest.mark.parametrize("grid", [48, 64])
def test_a_tie_keeps_the_first_point(grid):
    # every (x, y) row of a constant function has the same margins in t, so
    # the maximum recurs in every row; the argmax takes the first
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
    # NaN in a band between two mesh nodes.  A combined point lies between
    # m y <= 2 and x, so only the x rows from xs[-7] on reach the band: the
    # rows before them are finite, and a late row's NaN must win
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
    assert got.witness[0] == xs[-7]


# Failure paths on the border mesh.


def test_a_window_past_the_domain_raises_the_full_mesh_message():
    f = FunctionSpec.power(1.0, 2.0, 0.0, 1.0, 3.0)
    assert f.homogeneity == (1.0, 2.0)
    # combined points reach m * lo = 0.5; x reaches 4.0.  A bare callable
    # keeps the full mesh.
    for params, window in ((SMParams(0.5, 0.5), (1.0, 3.0)), (SMParams(1.0, 1.0), (1.0, 4.0))):
        with pytest.raises(DomainError) as full:
            check_harmonic_sm_convex(lambda v: f(v), params, 24, window)
        for target in (f, GradientPower(f, 2.0)):
            with pytest.raises(DomainError) as border:
                check_harmonic_sm_convex(target, params, 24, window)
            assert str(border.value) == str(full.value)


def test_s_zero_keeps_its_diagnostic_on_the_border_mesh():
    f = FunctionSpec.power(1.0, 2.0, 0.0, 0.5, 4.0)
    for target in (f, GradientPower(f, 1.5)):
        report = check_harmonic_sm_convex(target, SMParams(0.0, 1.0), 16, (1.0, 2.0))
        assert report.samples == (4 * 16 - 4) * 17
        assert report.diagnostics == ("s=0 is outside the definitional range (0,1]; theorem-driver extension",)


def test_an_uncertified_gradient_raises_the_full_mesh_message():
    # the message was pinned from the full-mesh check
    f = FunctionSpec.power(1.0, 1.5, 0.0, 0.05, 50.0)
    with pytest.raises(CertificationError) as exc:
        verify_bound("II2", f, SMParams(0.5, 0.8, 1.0), Interval(1.0, 2.0))
    assert str(exc.value) == ("|(pow(1,1.5,0))'|^1.0 is not harmonically (0.5,0.8)-convex on [1.0, 2.5] "
                              "(worst margin 2.240e-01 at (1.0, 2.5, 0.0))")


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


def test_the_default_sweep_solves_432_reduced_problems(cold_caches):
    # 3,240 distinct certifications, all homogeneous, are 432 reduced
    # problems; only the 432 failing ones run their own border check, for
    # their report
    summary = run_sweep(default_sweep_config()).summary
    assert (summary["instances_evaluated"], summary["instances_skipped"], summary["findings"]) == (8568, 1152, 0)
    reduced = functions._reduced_rows.cache_info()
    assert (reduced.misses, reduced.hits) == (432, 2808)
    mesh = functions._shared_mesh_stage.cache_info()
    assert mesh.hits + mesh.misses == 432


def test_one_exponent_is_one_reduced_problem(cold_caches):
    # x^2 on [1, 3] and [2, 6], and |(x^3)'|^1 = 3 x^2 on [1, 3]: one problem
    # with entries of five floats
    params = SMParams(0.5, 0.8, 1.0)
    square, cube = (FunctionSpec.power(1.0, e, 0.0, 0.5, 8.0) for e in (2.0, 3.0))
    for target, window in ((square, (1.0, 3.0)), (square, (2.0, 6.0)), (GradientPower(cube, 1.0), (1.0, 3.0))):
        got = check_harmonic_sm_convex(target, params, 24, window)
        assert got.passed == _own_check(target, params, 24, window).passed
    info = functions._reduced_rows.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    entry = functions._reduced_rows(2.0, 1.0, 0.5, 0.8, 3.0, 24, harmonic_combine)
    assert len(entry) == 5 and all(type(v) is float for v in entry)


def test_the_scale_decides_verdicts_near_the_absolute_slack(cold_caches):
    # x^-0.5 is not harmonically (1,1)-convex (the closed form above).  Scaled
    # by 1e-13 its margins stay under the 1e-12 absolute slack and it passes;
    # scaled by 1e-6 it fails.  x^(-1e-12) misses by 2.3e-13, under the
    # slack, and passes, while 1e3 x^(-1e-12) fails.  Two reduced problems.
    unit, window = SMParams(1.0, 1.0), (1.0, 4.0)
    verdicts = []
    for c, e in ((1e-13, -0.5), (1e-6, -0.5), (1.0, -0.5), (1.0, -1e-12), (1e3, -1e-12)):
        f = FunctionSpec.power(c, e, 0.0, 0.5, 8.0)
        got = check_harmonic_sm_convex(f, unit, 48, window)
        own = _own_check(f, unit, 48, window)
        assert got.passed == own.passed
        if not got.passed:
            assert got == own
        verdicts.append(got.passed)
    assert verdicts == [True, False, False, True, False]
    assert functions._reduced_rows.cache_info().misses == 2


def test_extreme_scales_keep_their_own_check(cold_caches):
    # values near 1e-200 or 1e+120 would leave the range where rescaling is
    # exact enough, so these targets are checked on their own border mesh
    for f in (FunctionSpec.power(1e-200, 2.0, 0.0, 0.5, 8.0), FunctionSpec.power(1.0, 200.0, 0.0, 0.5, 8.0)):
        for target in (f, GradientPower(f, 1.5)):
            got = check_harmonic_sm_convex(target, SMParams(0.5, 1.0), 24, (1.0, 4.0))
            assert got == _own_check(target, SMParams(0.5, 1.0), 24, (1.0, 4.0))
    assert functions._reduced_rows.cache_info().currsize == 0


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
# certification the default sweep runs, 2,592 of |f'|^q and 648 of f,
# against the full mesh and against a dense reference of the reduced problem.


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
    # Every default certification is homogeneous.  Its own border check gives
    # the full mesh's verdict, and the full mesh's worst margin and witness
    # except where a passing s = m = 1 check's worst margin is rounding noise
    # (g = 0 along t = 0 and t = 1), which stays within the slack at its
    # witness.  The sweep's report, from the reduced problem, has the border
    # check's verdict; a failing one is the border check's report, and a
    # passing one reports the instance's margin at its witness, up to the slack.
    kinds = Counter()
    for target, params, grid, window, plain, report in default_sweep_certifications:
        gradient = isinstance(target, GradientPower)
        kinds["gradient" if gradient else "function"] += 1
        ref_g = _old_gradient_closure(target.f, target.q) if gradient else target
        mesh = _reference_mesh(ref_g, params, grid, window, plain)
        ref = _reference_report(mesh, params)
        own = _own_check(target, params, grid, window, plain)
        assert own.passed == ref.passed, (target, params, window)
        assert own.samples == (4 * grid - 4) * mesh[3].shape[2]
        if (own.worst_margin, own.witness) != (ref.worst_margin, ref.witness):
            assert own.passed and params.s == params.m == 1.0, (target, params, window)
            index = _border_index(own.witness, grid, window)
            assert own.worst_margin == mesh[3][index]
            assert abs(own.worst_margin) <= mesh[4][index]
            kinds["noise"] += 1
        _assert_reduced_report(report, own, mesh, grid, window)
        kinds["failing"] += not report.passed
        kinds["rescaled"] += report.passed and report != own
    assert kinds == {"gradient": 2592, "function": 648, "noise": 190, "failing": 432, "rescaled": 169}


DENSE_POINTS = 1001


def _dense_verdict(e, sign, s, m, ratio, plain):
    """Whether sign * g(r, t) <= 0 on a dense (r, t) mesh, up to 64 ulps of the
    terms' scale, written from the reduced problem: with y = r x either
    combination of x and y is x p(r, t), so the certified margin of c x^e is
    c x^e g(r, t) with g = p^e - t^s - m (1-t)^s r^e, for r in
    [1/ratio, ratio] and t in [0, 1]."""
    t = np.linspace(0.0, 1.0, DENSE_POINTS)[None, :]
    for r in np.array_split(np.geomspace(1.0 / ratio, ratio, DENSE_POINTS)[:, None], 4):
        if plain:
            p = t + m * (1.0 - t) * r
        else:
            p = np.where(t == 1.0, 1.0, np.where(t == 0.0, m * r, m * r / (m * t * r + (1.0 - t))))
        pe, weighted = p**e, t**s + m * (1.0 - t) ** s * r**e
        if np.any(sign * (pe - weighted) > 64.0 * np.finfo(float).eps * (pe + weighted)):
            return False
    return True


@pytest.mark.slow
def test_default_sweep_verdicts_equal_a_dense_reference(default_sweep_certifications):
    # Every certification of c x^e (or |f'|^q of it) on a window of ratio R is
    # the sign question of g on [1/R, R] x [0, 1]: one verdict per
    # (e, sign c, s, m, R, combination), whatever the window's position.
    problems = {}
    for target, params, grid, window, plain, report in default_sweep_certifications:
        c, e = target.homogeneity
        key = (e, float(np.sign(c)), params.s, params.m, round(window[1] / window[0], 12), plain)
        problems.setdefault(key, set()).add(report.passed)
    assert len(problems) == 432
    assert all(len(verdicts) == 1 for verdicts in problems.values())
    verdicts = Counter()
    for key, (passed,) in problems.items():
        assert _dense_verdict(*key) == passed, key
        verdicts[passed] += 1
    assert set(verdicts) == {True, False}


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
