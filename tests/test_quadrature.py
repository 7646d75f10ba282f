import heapq
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhkit import bounds, harness, quadrature, specfun
from hhkit.bounds import Interval
from hhkit.errors import DomainError, ToleranceNotMetError
from hhkit.functions import FunctionSpec, eval_fn
from hhkit.quadrature import (
    _MAX_INTERVALS,
    _NODES,
    _WG15,
    _WGK,
    KERNEL_WEIGHTS,
    QuadSpec,
    _vectorized,
    harmonic_mean_integral,
    integrate,
    integrate_many,
    kernel_K,
)
from hhkit.specfun import Hyp2F1Args

from conftest import clear_value_caches, log_variable_kernel


# The kernel weights written out, apart from the kernel family of quadrature.
WEIGHT_FNS = {
    "W1": lambda t, s: np.abs(1.0 - 2.0 * t) * t**s,
    "W2": lambda t, s: np.abs(1.0 - 2.0 * t) * (1.0 - t) ** s,
    "N1": lambda t, s: t**s,
    "N2": lambda t, s: (1.0 - t) ** s,
}


def test_constant_integrand():
    assert integrate(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_kinked_integrand_with_split():
    spec = QuadSpec(split_points=(0.5,))
    val = integrate(lambda t: np.abs(1.0 - 2.0 * t), 0.0, 1.0, spec)
    assert val == pytest.approx(0.5, abs=1e-13)


def test_inverse_cube():
    # antiderivative: -x^-2/2 on [1, 2] -> 3/8
    assert integrate(lambda x: x**-3.0, 1.0, 2.0) == pytest.approx(0.375, abs=1e-12)


def test_split_points_outside_range_ignored():
    spec = QuadSpec(split_points=(-1.0, 0.5, 7.0))
    assert integrate(lambda t: np.abs(1.0 - 2.0 * t), 0.0, 1.0, spec) == pytest.approx(0.5, abs=1e-13)


def test_scalar_only_integrand_supported():
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)


def test_a_domain_error_of_the_node_array_is_not_run_again_node_by_node():
    # f is defined on [1, 1.5] only; the first panel's nodes reach past it.
    # Node by node, the integrand was called 10 times before it failed again.
    f = FunctionSpec.power(1.0, 2.0, 0.0, 1.0, 1.5)
    calls = []

    def counted(x):
        calls.append(x)
        return eval_fn(f, x)

    message = (r"^argument range \[1\.0042723144395937, 1\.9957276855604063\] "
               r"leaves the domain \[1\.0, 1\.5\] of pow\(1,2,0\)$")
    with pytest.raises(DomainError, match=message):
        integrate(counted, 1.0, 2.0)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)


def test_other_value_errors_still_fall_back_to_node_by_node():
    def scalar_only(x):
        if isinstance(x, np.ndarray):
            raise ValueError("scalars only")
        return x * x

    assert integrate(scalar_only, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_invalid_bounds_rejected():
    with pytest.raises(DomainError):
        integrate(lambda t: t, 1.0, 1.0)


def test_invalid_quadspec_rejected():
    with pytest.raises(DomainError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadSpec(max_depth=0)


@pytest.mark.parametrize("field, value", [
    ("abs_tol", math.nan), ("abs_tol", math.inf), ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", -1e-10),
    ("abs_tol", "1e-11"),
    ("max_depth", 2.5), ("max_depth", True), ("max_depth", 0),
])
def test_quadspec_rejects_tolerances_and_depths_that_void_certification(field, value):
    # a NaN or infinite tolerance passes every error bound: 1/x^0.9 on [0, 1]
    # (exactly 10) came back as 5.088 from its first two panels
    with pytest.raises(DomainError):
        QuadSpec(**{field: value})


def test_quadspec_accepts_a_numpy_integer_depth():
    assert integrate(lambda t: t**0.5, 0.0, 1.0, QuadSpec(max_depth=np.int64(40))) == pytest.approx(2.0 / 3.0)


def test_quadspec_coerces_split_points_to_tuple():
    spec = QuadSpec(split_points=[0.5])
    assert spec.split_points == (0.5,)
    assert hash(spec) is not None


def test_tolerance_not_met_carries_estimate():
    # t^-0.95 is integrable but needs deep refinement near 0; a depth budget of
    # 4 cannot certify the default tolerance.
    spec = QuadSpec(max_depth=4)
    with pytest.raises(ToleranceNotMetError) as err:
        integrate(lambda t: t**-0.95, 0.0, 1.0, spec)
    assert err.value.estimate > 0.0
    assert err.value.error_bound > 0.0


class TestHarmonicMeanIntegral:
    def test_constant_is_normalized(self):
        assert harmonic_mean_integral(lambda x: np.full_like(x, 1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_square(self):
        # ab/(b-a) * int_a^b dx = ab
        assert harmonic_mean_integral(lambda x: x**2, 1.0, 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_reciprocal(self):
        # closed antiderivative: (a+b)/(2ab)
        assert harmonic_mean_integral(lambda x: 1.0 / x, 1.0, 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_requires_positive_interval(self):
        with pytest.raises(DomainError):
            harmonic_mean_integral(lambda x: x, -1.0, 2.0)
        with pytest.raises(DomainError):
            harmonic_mean_integral(lambda x: x, 2.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(min_value=-50.0, max_value=50.0),
        a=st.floats(min_value=0.05, max_value=20.0),
        ratio=st.floats(min_value=1.05, max_value=30.0),
    )
    def test_normalization_property(self, c, a, ratio):
        value = harmonic_mean_integral(lambda x: np.full_like(x, c), a, a * ratio)
        assert value == pytest.approx(c, abs=1e-10 * max(1.0, abs(c)))


class TestKernelK:
    def test_w1_s0_matches_lambda1_closed_form(self):
        # independent oracle: 1/(ab) - 2/(b-a)^2 log((a+b)^2/(4ab)); mpmath 30dps
        # cross-check 0.264433928687233090922411781059
        val = kernel_K("W1", 0.0, 1.0, 1.0, 2.0)
        assert val == pytest.approx(0.26443392868723309, abs=1e-12)

    def test_n1_s0_is_reciprocal_product(self):
        # int (tb+(1-t)a)^-2 dt = 1/(ab) exactly, for any interval
        assert kernel_K("N1", 0.0, 1.0, 1.0, 1.001) == pytest.approx(1.0 / 1.001, abs=1e-12)
        assert kernel_K("N1", 0.0, 1.0, 2.0, 5.0) == pytest.approx(0.1, abs=1e-12)

    def test_zero_exponent_weights_recombine(self):
        # t^0 = (1-t)^0 = 1: W1 + W2 at s=0 double-counts the plain |1-2t| kernel
        a, b = 1.3, 2.9
        w1 = kernel_K("W1", 0.0, 1.0, a, b)
        w2 = kernel_K("W2", 0.0, 1.0, a, b)
        plain = integrate(
            lambda t: np.abs(1.0 - 2.0 * t) * (t * b + (1.0 - t) * a) ** -2.0,
            0.0,
            1.0,
            QuadSpec(split_points=(0.5,)),
        )
        assert w1 == pytest.approx(plain, rel=1e-10)
        assert w1 + w2 == pytest.approx(2.0 * plain, rel=1e-10)

    def test_mu_kernel_exact_rational(self):
        # int_0^1 t (t*2 + (1-t))^-4 dt = 1/12 by antiderivative
        assert kernel_K("N1", 1.0, 2.0, 1.0, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert kernel_K("N2", 1.0, 2.0, 1.0, 2.0) == pytest.approx(5.0 / 24.0, abs=1e-12)

    def test_fractional_s_endpoint_singularity(self):
        # mpmath 30dps: 0.0681016736745731472057589191871
        assert kernel_K("W1", 0.5, 2.0, 1.0, 2.0) == pytest.approx(0.068101673674573147, abs=1e-11)

    @pytest.mark.parametrize("weight", ["W1", "W2"])
    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
    def test_substitution_symmetry(self, weight, s):
        # t -> 1-t swaps the t^s and (1-t)^s weights and reverses the kernel
        a, b = 1.0, 3.0
        direct = kernel_K(weight, s, 1.0, a, b)
        flipped_power = (lambda t: (1.0 - t) ** s) if weight == "W1" else (lambda t: t**s)
        substituted = integrate(
            lambda t: np.abs(1.0 - 2.0 * t) * flipped_power(t) * (t * a + (1.0 - t) * b) ** -2.0,
            0.0,
            1.0,
            QuadSpec(split_points=(0.5,)),
        )
        assert abs(direct - substituted) <= 1e-9

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_monotone_decreasing_in_r(self, s):
        a, b = 1.0, 2.5
        ladder = [kernel_K("W1", s, r, a, b) for r in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(x > y for x, y in zip(ladder, ladder[1:]))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            kernel_K("W9", 0.5, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            kernel_K("W1", 1.5, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            kernel_K("W1", 0.5, 0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            kernel_K("W1", 0.5, 1.0, 2.0, 1.0)


def test_nan_integrand_is_not_certified():
    # NaN compares False against the tolerance; it must not pass as converged.
    with pytest.raises(ToleranceNotMetError) as err:
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    assert math.isnan(err.value.estimate)


def test_infinite_integrand_is_not_certified():
    with pytest.raises(ToleranceNotMetError), np.errstate(invalid="ignore"):
        integrate(lambda x: np.full_like(x, np.inf), 0.0, 1.0)


def test_kernel_rejects_nan_exponent():
    with pytest.raises(DomainError):
        kernel_K("W1", 0.5, math.nan, 1.0, 2.0)


@pytest.mark.parametrize("spec", [QuadSpec(), QuadSpec(abs_tol=1e-13, max_depth=7, split_points=(0.3,))])
def test_kinked_kernels_share_one_split_spec(spec):
    # every kernel, kinked or not, either way round, is one job over [-1, 1]
    # split at 0, where the halves of its log variable meet at the kink
    plans = [quadrature._kernel_plan(weight, 0.5, 1.5, 1.0, 2.0, spec, mirrored)
             for weight in KERNEL_WEIGHTS for mirrored in (False, True)]
    assert all(len(jobs) == 1 for jobs, _ in plans)
    jobs = [jobs[0] for jobs, _ in plans]
    # one spec per spec, equal to the one with_splits builds
    assert all(job[4] is jobs[0][4] for job in jobs)
    assert jobs[0][4] == spec.with_splits(0.0)
    assert all(job[2:4] == (-1.0, 1.0) for job in jobs)


# ---------------------------------------------------------------------------
# Bit identity against the one-panel-per-call loop.  ``_ref_gk15`` and
# ``_ref_integrate`` are the integrator as it was before bisections evaluated
# both children in one integrand call; every result must match it exactly.
# ---------------------------------------------------------------------------


def _ref_gk15(f, lo, hi):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = np.asarray(f(center + half * _NODES), dtype=float)
    resk = half * float(_WGK @ fx)
    resg = half * float(_WG15 @ fx)
    resabs = half * float(_WGK @ np.abs(fx))
    mean = resk / (hi - lo)
    resasc = half * float(_WGK @ np.abs(fx - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * sys.float_info.epsilon
    if resabs > sys.float_info.min / floor:
        err = max(err, floor * resabs)
    return resk, err


def _ref_integrate(f, lo, hi, spec=QuadSpec()):
    splits = sorted({float(p) for p in spec.split_points if lo < p < hi})
    edges = [lo, *splits, hi]
    fv = _vectorized(f)

    heap = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = _ref_gk15(fv, a, b)
        total_val += val
        total_err += err
        heapq.heappush(heap, (-err, counter, a, b, val, err, 0))
        counter += 1

    n_intervals = len(edges) - 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
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
        v1, e1 = _ref_gk15(fv, a, mid)
        v2, e2 = _ref_gk15(fv, mid, b)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2, depth + 1))
        counter += 1
        n_intervals += 1
    return total_val


def _recorded_integrals(monkeypatch, modules, compute):
    """The (integrand, lo, hi, spec) of every integrate call ``compute`` makes
    through ``modules``, and the jobs of every integrate_many call with the
    batch's values."""
    calls, batches = [], []

    def record(f, lo, hi, spec=quadrature.DEFAULT_QUADSPEC):
        calls.append((f, lo, hi, spec))
        return integrate(f, lo, hi, spec)

    def record_many(jobs):
        batches.append((list(jobs), integrate_many(jobs)))
        return integrate_many(jobs)

    for module in modules:
        monkeypatch.setattr(module, "integrate", record)
        if hasattr(module, "integrate_many"):
            monkeypatch.setattr(module, "integrate_many", record_many)
    compute()
    monkeypatch.undo()
    assert calls or batches
    return calls, batches


def _ref_batch(closures):
    """What the reference loop gives each ``(f, lo, hi, spec)`` of a batch:
    its value, or its failure's estimate, bound and message."""
    return [_outcome(_ref_integrate, *closure) for closure in closures]


def _served(jobs):
    """What the lookups of a batch's jobs get: each value the batch
    finished, and for each job that left it, ``integrate``'s value or
    failure alone."""
    return [_outcome(integrate, partial(family, *params), lo, hi, spec) if value is None else value
            for value, (family, params, lo, hi, spec) in zip(integrate_many(jobs), jobs)]


class TestBitIdentity:
    @pytest.mark.parametrize("weight", KERNEL_WEIGHTS)
    @pytest.mark.parametrize("split", [(), (0.5,)])
    @pytest.mark.parametrize(
        "s, r, a, b", [(0.0, 1.0, 1.0, 2.0), (0.5, 2.0, 1.0, 2.0), (0.25, 1.5, 0.5, 5.0), (1.0, 3.0, 0.7, 7.0)]
    )
    def test_kernel_integrands(self, weight, split, s, r, a, b):
        wfn = WEIGHT_FNS[weight]

        def integrand(t):
            return wfn(t, s) * (t * b + (1.0 - t) * a) ** (-2.0 * r)

        spec = QuadSpec(split_points=split)
        assert integrate(integrand, 0.0, 1.0, spec) == _ref_integrate(integrand, 0.0, 1.0, spec)

    # b = 0.1 and 0.15 raise the left substitution power k_left = ceil(1.5 / b)
    # to 15 and 10; c - b = 0.05 does the same on the right.
    @pytest.mark.parametrize(
        "a, b, c, z",
        [(2.0, 0.1, 2.1, 0.9), (3.0, 0.15, 1.15, 0.5), (2.0, 1.0, 1.05, 0.9), (0.5, 2.0, 3.0, 0.0)],
    )
    def test_euler_integrands(self, monkeypatch, a, b, c, z):
        args = Hyp2F1Args(a, b, c, z)
        calls, _ = _recorded_integrals(monkeypatch, (specfun,), lambda: specfun.euler_integral(args))
        assert len(calls) == 2  # the left and right halves
        for f, lo, hi, spec in calls:
            assert integrate(f, lo, hi, spec) == _ref_integrate(f, lo, hi, spec)

    @pytest.mark.parametrize("fn", [lambda x: x**2, lambda x: 1.0 / x, lambda x: np.exp(-x) * np.sin(7.0 * x)])
    def test_harmonic_mean_integrand(self, monkeypatch, fn):
        calls, _ = _recorded_integrals(monkeypatch, (quadrature,), lambda: harmonic_mean_integral(fn, 0.3, 3.0))
        for f, lo, hi, spec in calls:
            assert integrate(f, lo, hi, spec) == _ref_integrate(f, lo, hi, spec)

    def test_scalar_only_callable(self):
        assert integrate(math.exp, 0.0, 1.0) == _ref_integrate(math.exp, 0.0, 1.0)
        assert integrate(math.sqrt, 0.0, 2.0) == _ref_integrate(math.sqrt, 0.0, 2.0)

    def test_tolerance_not_met_carries_identical_estimate(self):
        spec = QuadSpec(max_depth=4)
        with pytest.raises(ToleranceNotMetError) as new:
            integrate(lambda t: t**-0.95, 0.0, 1.0, spec)
        with pytest.raises(ToleranceNotMetError) as ref:
            _ref_integrate(lambda t: t**-0.95, 0.0, 1.0, spec)
        assert new.value.estimate == ref.value.estimate
        assert new.value.error_bound == ref.value.error_bound
        assert str(new.value) == str(ref.value)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=-0.9, max_value=6.0),
        w=st.floats(min_value=0.0, max_value=40.0),
        lo=st.floats(min_value=0.0, max_value=2.0),
        width=st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_random_oscillating_powers(self, p, w, lo, width):
        def f(x):
            return x**p * np.cos(w * x)

        spec = QuadSpec(split_points=(lo + 0.3 * width,))
        try:
            new = integrate(f, lo, lo + width, spec)
        except ToleranceNotMetError as exc:
            new = (exc.estimate, exc.error_bound)
        try:
            ref = _ref_integrate(f, lo, lo + width, spec)
        except ToleranceNotMetError as exc:
            ref = (exc.estimate, exc.error_bound)
        assert new == ref


# ---------------------------------------------------------------------------
# Look-ahead ladder.  Panels are evaluated before a bisection asks for them but
# consumed in the reference order, so every result above stays bit-identical;
# these tests pin the pieces that argument rests on.
# ---------------------------------------------------------------------------


def _outcome(integrator, f, lo, hi, spec):
    """An integral's value, or its ToleranceNotMetError's estimate, bound and message."""
    try:
        return integrator(f, lo, hi, spec)
    except ToleranceNotMetError as exc:
        return exc.estimate, exc.error_bound, str(exc)


def _counted(f):
    calls = [0]

    def counting(x):
        calls[0] += 1
        return f(x)

    return counting, calls


def test_gk15_many_matches_gk15():
    # the batch's error formula, panel by panel: the 1.5 power is Python's
    # (numpy's np.power differs in the last bit on ~5% of values), and some
    # errors are raised to the round-off floor
    rng = np.random.default_rng(20261019)
    resk = rng.standard_normal(20000) * np.exp(rng.uniform(-20.0, 20.0, 20000))
    resabs = np.abs(resk) * rng.uniform(1.0, 3.0, 20000)
    resasc = resabs * rng.uniform(0.0, 1.0, 20000)
    resg = resk + resasc * np.exp(rng.uniform(-40.0, 2.0, 20000)) * rng.choice([-1.0, 0.0, 1.0], 20000)
    resasc[::97] = 0.0
    vals, errs = quadrature._gk15_many(resk, resg, resabs, resasc)
    expected = [quadrature._gk15(*row) for row in zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist())]
    assert vals.tolist() == [v for v, _ in expected]
    assert errs.tolist() == [e for _, e in expected]
    floored = errs == quadrature._ERR_FLOOR * resabs
    assert 0 < floored.sum() < floored.size


def test_float_power_is_pythons_power():
    # The batched error formula relies on np.float_power calling the C
    # library's pow, as Python's float power does, from subnormal ratios to
    # ratios near overflow.
    rng = np.random.default_rng(20261020)
    ratios = np.exp(rng.uniform(-740.0, 470.0, 50000))
    assert np.float_power(ratios, 1.5).tolist() == [r**1.5 for r in ratios.tolist()]


def test_vecdot_is_one_ddot_per_row():
    # The batched panel sums rely on np.vecdot running the same ddot per row as
    # ndarray.dot; a numpy that changes its kernel must fail here rather than
    # move the last digits of every integral.
    rng = np.random.default_rng(20261018)
    rows = rng.standard_normal((4000, 15)) * np.exp(rng.uniform(-30.0, 30.0, (4000, 15)))
    for w in (_WGK, _WG15):
        assert np.vecdot(rows, w).tolist() == [w.dot(row) for row in rows]


@pytest.mark.parametrize("k", [30, 40, 44])
def test_ladder_meets_float_resolution(monkeypatch, k):
    # A 1e6 jump on [1, 1 + 2^-k] refines to panels one or two ulps wide, so
    # look-ahead midpoints round onto an endpoint long before max_depth.
    c = 1.0 + math.pi * 2.0 ** -(k + 2)

    def f(x):
        return np.where(x > c, 1e6, 0.0)

    cut_short = []
    ladder = quadrature._ladder

    def record(a, b, levels):
        panels = ladder(a, b, levels)
        cut_short.append(len(panels) < 2 + 4 * levels)
        return panels

    monkeypatch.setattr(quadrature, "_ladder", record)
    spec = QuadSpec()
    hi = 1.0 + 2.0**-k
    assert _outcome(integrate, f, 1.0, hi, spec) == _outcome(_ref_integrate, f, 1.0, hi, spec)
    assert any(cut_short)


def test_ladder_stays_within_max_depth(monkeypatch):
    # max_depth 10 stops the same refinement short of its tolerance: the
    # look-ahead may not evaluate a panel the loop could never reach, and the
    # failure reads exactly as the reference's.
    c = 1.0 + math.pi * 2.0**-32
    hi = 1.0 + 2.0**-30

    def f(x):
        return np.where(x > c, 1e6, 0.0)

    widths = []
    ladder = quadrature._ladder

    def record(a, b, levels):
        panels = ladder(a, b, levels)
        widths.extend(b - a for a, b in panels)
        return panels

    monkeypatch.setattr(quadrature, "_ladder", record)
    spec = QuadSpec(max_depth=10)
    new = _outcome(integrate, f, 1.0, hi, spec)
    assert isinstance(new, tuple)
    assert new == _outcome(_ref_integrate, f, 1.0, hi, spec)
    assert min(widths) == (hi - 1.0) / 2**10


def _w1_kernel():
    wfn = WEIGHT_FNS["W1"]
    return (lambda t: wfn(t, 0.25) * (t * 2.0 + (1.0 - t) * 1.0) ** -2.0), 0.0, 1.0, QuadSpec(split_points=(0.5,))


def _euler_left_half(monkeypatch):
    # b = 0.3 < 1: the substituted left half still carries u^0.5 at u = 0.
    args = Hyp2F1Args(1.5, 0.3, 2.0, 0.7)
    return _recorded_integrals(monkeypatch, (specfun,), lambda: specfun.euler_integral(args))[0][0]


@pytest.mark.parametrize("case", ["W1 kernel s=0.25", "Euler left half b=0.3"])
def test_ladder_saves_integrand_calls(monkeypatch, case):
    f, lo, hi, spec = _w1_kernel() if case.startswith("W1") else _euler_left_half(monkeypatch)
    ref_f, ref_calls = _counted(f)
    ref = _ref_integrate(ref_f, lo, hi, spec)
    panels = ref_calls[0]  # the reference calls the integrand once per panel
    bisections = (panels - (len(spec.split_points) + 1)) // 2

    gk15_calls = [0]
    gk15 = quadrature._gk15

    def counting_gk15(*sums):
        gk15_calls[0] += 1
        return gk15(*sums)

    monkeypatch.setattr(quadrature, "_gk15", counting_gk15)
    new_f, new_calls = _counted(f)
    assert integrate(new_f, lo, hi, spec) == ref
    assert gk15_calls[0] == panels
    assert bisections > 0
    assert new_calls[0] < bisections


# ---------------------------------------------------------------------------
# Lockstep batches.  Every job of an integrate_many batch must equal the
# reference loop on its integrand written out as a closure, whatever else
# shares its family calls, and so must the same job integrated alone.
# ---------------------------------------------------------------------------

# Exponents where numpy's array power differs from its scalar power (-1, 0.5,
# 2), and 0 and 1, which it also special-cases.
EXPONENT_CLASSES = (-1.0, 0.0, 0.5, 1.0, 2.0)


class TestPow:
    @pytest.mark.parametrize("e", [*EXPONENT_CLASSES, -2.0, -0.5, 0.37, 3.0, 15.0])
    def test_array_exponent_matches_scalar(self, e):
        x = np.random.default_rng(7).uniform(1e-3, 3.0, 20000)
        assert quadrature._pow(x, np.full_like(x, e)).tobytes() == (x ** float(e)).tobytes()

    def test_mixed_exponents_match_scalar(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(1e-3, 3.0, 30000)
        e = rng.choice([*EXPONENT_CLASSES, 0.37, -2.5, 3.0], x.size)
        got = quadrature._pow(x, e)
        for value in np.unique(e):
            hit = e == value
            assert got[hit].tobytes() == (x[hit] ** float(value)).tobytes(), value

    @pytest.mark.parametrize("e", EXPONENT_CLASSES)
    def test_scalar_exponent_is_plain_power(self, e):
        x = np.random.default_rng(9).uniform(1e-3, 3.0, 1000)
        assert quadrature._pow(x, e).tobytes() == (x**e).tobytes()

    def test_one_exponent_per_panel_matches_scalar(self):
        # a batch passes one exponent per panel, (n, 1) against (m, n, 15) nodes
        rng = np.random.default_rng(10)
        x = rng.uniform(1e-3, 3.0, (2, 400, 15))
        e = rng.choice([*EXPONENT_CLASSES, 0.37, -2.5, 3.0], (400, 1))
        got = quadrature._pow(x, e)
        for i, value in enumerate(e[:, 0].tolist()):
            assert got[:, i].tobytes() == (x[:, i] ** value).tobytes(), value

    def test_declared_exponent_matches_scalar(self):
        # a declared exponent brings its fast panels along: _pow applies
        # exactly those and compares no exponent
        rng = np.random.default_rng(11)
        x = rng.uniform(1e-3, 3.0, (2, 300, 15))
        e = rng.choice([*EXPONENT_CLASSES, 0.37, -2.5, 3.0], 300)
        call = quadrature._batch_family(_declared_power, [(value,) for value in e.tolist()])
        got = call(np.arange(300), x)
        for i, value in enumerate(e.tolist()):
            assert got[:, i].tobytes() == (x[:, i] ** value).tobytes(), value


def _kernel_case(weight, s, r, a, b, mirrored):
    """A kernel job, and its integrand as kernel_K (or, mirrored, the
    substituted kernel of the reduction chain) wrote it as a closure."""
    p, q = (b, a) if mirrored else (a, b)
    (job,), _ = quadrature._kernel_plan(weight, s, r, a, b, mirrored=mirrored)
    closure, _ = log_variable_kernel(quadrature._MIRROR[weight] if mirrored else weight, s, r, p, q)
    return job, closure


def _euler_cases(args):
    """The two Euler-half jobs of ``args``, and the halves as euler_integral
    wrote them as closures."""
    a, b, c, z = args.a_param, args.b_param, args.c_param, args.z
    cb = c - b
    k_left = max(2, math.ceil(1.5 / b))
    k_right = max(2, math.ceil(1.5 / cb))

    def left(u):
        t = u**k_left
        return k_left * u ** (k_left * b - 1.0) * (1.0 - t) ** (cb - 1.0) * (1.0 - z * t) ** (-a)

    def right(v):
        t = 1.0 - v**k_right
        return k_right * v ** (k_right * cb - 1.0) * t ** (b - 1.0) * (1.0 - z * t) ** (-a)

    return list(zip(specfun._euler_jobs(args), (left, right)))


def _closures(cases):
    return [(closure, lo, hi, spec) for (_, _, lo, hi, spec), closure in cases]


KERNEL_CASES = [(0.0, 1.0, 1.0, 2.0), (0.5, 2.0, 1.0, 2.0), (0.25, 1.5, 0.5, 5.0), (1.0, 3.0, 0.7, 7.0)]
# b = 0.1 and 0.15 raise the left substitution power to 15 and 10, c - b =
# 0.05 the right one to 30 (as in TestBitIdentity.test_euler_integrands).
EULER_CASES = [(2.0, 0.1, 2.1, 0.9), (3.0, 0.15, 1.15, 0.5), (2.0, 1.0, 1.05, 0.9), (0.5, 2.0, 3.0, 0.0)]


def _mixed_cases():
    return [_kernel_case(w, *case, mirrored) for w in KERNEL_WEIGHTS for case in KERNEL_CASES
            for mirrored in (False, True)] + [pair for case in EULER_CASES for pair in _euler_cases(Hyp2F1Args(*case))]


def _power(p, x):
    return quadrature._pow(x, p)


def _declared_power(p, x):
    return quadrature._pow(x, p)


_declared_power.exponents = (0,)


def _nan(x):
    return np.full_like(x, np.nan)


def _kinked_wave(c, w, x):
    return np.abs(x - c) + np.cos(w * x)


def _power_jobs(cases):
    """``(p, spec)`` pairs as batch jobs of x^p over [0, 1], with their closures."""
    return [((_power, (p,), 0.0, 1.0, spec), partial(_power, p)) for p, spec in cases]


@pytest.fixture
def heap_finishes(monkeypatch):
    """The jobs (by their lo, hi) integrated through ``quadrature.integrate``,
    which a batch must call for none of its jobs."""
    rerun, alone = [], quadrature.integrate

    def record(f, lo, hi, spec=quadrature.DEFAULT_QUADSPEC):
        rerun.append((lo, hi))
        return alone(f, lo, hi, spec)

    monkeypatch.setattr(quadrature, "integrate", record)
    return rerun


class TestIntegrateMany:
    def test_batch_matches_the_written_out_integrands(self):
        cases = _mixed_cases()
        assert integrate_many([job for job, _ in cases]) == _ref_batch(_closures(cases))

    def test_each_job_alone_matches_its_written_out_integrand(self):
        for (family, params, lo, hi, spec), closure in _mixed_cases():
            assert integrate(partial(family, *params), lo, hi, spec) == _ref_integrate(closure, lo, hi, spec)

    def test_kernel_K_and_euler_integral_integrate_their_jobs(self):
        for weight in KERNEL_WEIGHTS:
            for case in KERNEL_CASES:
                (family, params, lo, hi, spec), _ = _kernel_case(weight, *case, False)
                _, factor = log_variable_kernel(weight, *case)
                assert kernel_K(weight, *case) == factor * integrate(partial(family, *params), lo, hi, spec)
        for case in EULER_CASES:
            args = Hyp2F1Args(*case)
            left, right = integrate_many(specfun._euler_jobs(args))
            assert specfun.euler_integral(args) == left + right

    def test_batch_kernels_equal_lone_kernels(self):
        # 120 random kernels at ratios b/a up to 1e8, either way round: each
        # batch value, times its factor, is the lone kernel_K (or the lone
        # substituted kernel of the reduction chain), bit for bit
        rng = np.random.default_rng(20261022)
        cases, plans = [], []
        for _ in range(120):
            a = float(rng.uniform(0.3, 3.0))
            case = (KERNEL_WEIGHTS[rng.integers(4)], float(rng.choice([0.0, 0.5, 1.0, rng.random()])),
                    float(rng.choice([1.0, 2.0, 1.0 + 3.0 * rng.random()])), a, a * math.exp(rng.uniform(0.01, 18.5)))
            mirrored = bool(rng.integers(2))
            cases.append((case, mirrored))
            plans.append(quadrature._kernel_plan(*case, mirrored=mirrored))
        values = integrate_many([jobs[0] for jobs, _ in plans])
        lone = [bounds._substituted_value(*case) if mirrored else kernel_K(*case) for case, mirrored in cases]
        assert [combine(value) for value, (_, combine) in zip(values, plans)] == lone
        assert len({case[4] / case[3] > 1e4 for case, _ in cases}) == 2

    def test_batch_beyond_the_in_flight_cap(self):
        rng = np.random.default_rng(31)
        widest = [0]

        def family(*args):
            widest[0] = max(widest[0], args[-1].size)
            return quadrature._kernel_integrand(*args)

        cases = []
        for _ in range(2 * quadrature._IN_FLIGHT + 5):
            a = rng.uniform(0.5, 3.0)
            weight = KERNEL_WEIGHTS[rng.integers(4)]
            (_, params, lo, hi, spec), closure = _kernel_case(
                weight, float(rng.choice([0.0, 0.5, 1.0, rng.random()])), 1.0 + 2.0 * rng.random(),
                a, a * rng.uniform(1.1, 10.0), bool(rng.integers(2)))
            cases.append(((family, params, lo, hi, spec), closure))
        assert integrate_many([job for job, _ in cases]) == _ref_batch(_closures(cases))
        # a round asks at most two panels of each integral in flight
        assert 0 < widest[0] <= quadrature._IN_FLIGHT * 2 * 15

    @settings(max_examples=25, deadline=None)
    @given(
        halves=st.lists(st.tuples(
            st.one_of(st.sampled_from([1.0, 0.0, -0.5, -1.0, -2.0]), st.floats(-2.0, 8.0)),
            st.one_of(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0]), st.floats(0.2, 4.0)),
            st.one_of(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0]), st.floats(0.2, 4.0)),
            st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
        ), min_size=1, max_size=4),
        kernels=st.lists(st.tuples(
            st.sampled_from(KERNEL_WEIGHTS),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
            st.floats(0.3, 3.0),
            st.floats(1.05, 20.0),
            st.booleans(),
        ), max_size=4),
    )
    def test_drawn_family_parameters(self, halves, kernels):
        # the drawn values cover every exponent class of EXPONENT_CLASSES:
        # -a in the Euler halves, k b - 1 and c - b - 1, and s in the kernels
        cases = [pair for a, b, cb, z in halves for pair in _euler_cases(Hyp2F1Args(a, b, b + cb, z))]
        cases += [_kernel_case(w, s, r, a, a * ratio, m) for w, s, r, a, ratio, m in kernels]
        assert integrate_many([job for job, _ in cases]) == _ref_batch(_closures(cases))

    @pytest.mark.parametrize("in_flight", [1, 2, quadrature._IN_FLIGHT])
    def test_failing_jobs_read_none(self, monkeypatch, in_flight):
        # job 1 fails at depth 6, job 3 already at depth 2: both leave the
        # batch, and integrate alone raises each its own error
        monkeypatch.setattr(quadrature, "_IN_FLIGHT", in_flight)
        specs = (QuadSpec(), QuadSpec(max_depth=6), QuadSpec(), QuadSpec(max_depth=2))
        jobs = [(_power, (p,), 0.0, 1.0, spec) for p, spec in zip((0.5, -0.95, 2.0, -0.95), specs)]
        assert [value is None for value in integrate_many(jobs)] == [False, True, False, True]
        expected = _outcome(integrate, partial(_power, -0.95), 0.0, 1.0, specs[1])
        assert isinstance(expected, tuple)
        served = _served(jobs)
        assert served[1] == expected
        assert _ref_batch([(partial(_power, p), lo, hi, spec) for _, (p,), lo, hi, spec in jobs]) == served

    def test_non_finite_job_reads_none(self):
        jobs = [(_power, (1.0,), 0.0, 1.0, QuadSpec()), (_nan, (), 0.0, 1.0, QuadSpec())]
        assert integrate_many(jobs) == [0.5, None]
        estimate, bound, message = _outcome(integrate, _nan, 0.0, 1.0, QuadSpec())
        assert message.startswith("non-finite") and math.isnan(estimate) and math.isnan(bound)

    def test_empty_interval_is_rejected_before_any_work(self):
        calls = [0]

        def family(x):
            calls[0] += 1
            return x

        with pytest.raises(DomainError):
            integrate_many([(family, (), 0.0, 1.0, QuadSpec()), (family, (), 1.0, 1.0, QuadSpec())])
        assert calls[0] == 0

    def test_no_jobs(self):
        assert integrate_many([]) == []

    def test_parameters_as_the_family_receives_them(self):
        # a parameter every job shares goes in as its value; a declared
        # exponent that varies as an _Exponent; any other as an array
        seen = []

        def family(a, e, shared, x):
            seen.append((type(a), type(e), shared))
            return a * quadrature._pow(x, e)

        family.exponents = (1,)
        params = [(1.0 + i, e, 0.5) for i, e in enumerate((0.5, 2.0, -1.0, 0.37, 0.5, 3.0))]
        jobs = [(family, p, 0.25, 1.0, QuadSpec()) for p in params]
        closures = [(partial(family, *p), 0.25, 1.0, QuadSpec()) for p in params]
        outcome = integrate_many(jobs)
        assert set(seen) == {(np.ndarray, quadrature._Exponent, 0.5)}
        assert outcome == _ref_batch(closures)

    @pytest.mark.parametrize("order", ["non-finite first", "stuck first"])
    def test_non_finite_and_stuck_jobs_read_none(self, order):
        # a non-finite total is found when the batch ends, a job stuck at
        # max_depth while it runs; both leave the batch in either order, and
        # the batch's served lookups meet each job's own error
        stuck = (_power, (-0.95,), 0.0, 1.0, QuadSpec(max_depth=3))
        nan = (_nan, (), 0.0, 1.0, QuadSpec())
        fine = (_power, (2.0,), 0.0, 1.0, QuadSpec())
        jobs = [fine, nan, fine, stuck] if order == "non-finite first" else [fine, stuck, fine, nan]
        closures = [(partial(f, *params), lo, hi, spec) for f, params, lo, hi, spec in jobs]
        alone = [_outcome(integrate, *closure) for closure in closures]
        first = next(o for o in alone if isinstance(o, tuple))
        assert first[2].startswith("non-finite" if order == "non-finite first" else "tolerance not met")
        assert [value is None for value in integrate_many(jobs)] == [False, True, False, True]
        for (estimate, bound, message), expected in zip(_served(jobs)[1::2], alone[1::2]):
            assert message == expected[2] and estimate.hex() == expected[0].hex() and bound.hex() == expected[1].hex()

    @pytest.mark.parametrize("jobs, floored", [
        # x^-0.5 at max_depth 4 runs out of panels within its row (31 panels)
        ([(_power, (2.0,), 0.0, 1.0, QuadSpec()),
          (_power, (-0.5,), 0.0, 1.0, QuadSpec(abs_tol=1e-4, rel_tol=1e-4, max_depth=4))], True),
        # 1/x outgrows its row, and fails after 8,191 panels
        ([(_power, (-1.0,), 0.0, 1.0, QuadSpec(max_depth=12))], True),
        ([(_kinked_wave, (1.0 / 3.0, 40.0), 0.0, 1.0, QuadSpec(abs_tol=1e-300, rel_tol=1e-300, max_depth=3))],
         False),
    ], ids=["floored-in-row", "floored-handed-off", "unfloored"])
    def test_failures_carry_python_floats(self, monkeypatch, heap_finishes, jobs, floored):
        # the failing job leaves the batch, which integrates it no further;
        # alone, the estimate and bound of its failure are floats, whether
        # or not the round-off floor set a panel's error
        closures = [(partial(f, *params), lo, hi, spec) for f, params, lo, hi, spec in jobs]
        assert [value is None for value in integrate_many(jobs)] == [False] * (len(jobs) - 1) + [True]
        assert heap_finishes == []
        served = _served(jobs)
        alone = _outcome(integrate, *closures[-1])
        assert served[-1] == alone and served == _ref_batch(closures)
        estimate, bound, message = alone
        assert type(estimate) is float and type(bound) is float
        assert "np.float64(" not in message
        # the floor set some panel's error exactly where the outcome moves without it
        monkeypatch.setattr(quadrature, "_ERR_FLOOR", 0.0)
        assert (_served(jobs) != served) == floored

    def test_job_at_a_small_max_depth_among_refining_jobs(self):
        # the kink of job 1 reaches max_depth 6 while its error still leads,
        # so its worst panel is skipped for the next one, and the job then
        # converges; the others go on refining past depth 6 meanwhile, and
        # cos(300 x) and cos(100 x) outgrow their rows and leave the batch
        spec = QuadSpec(abs_tol=1e-5, rel_tol=1e-5, max_depth=6)
        jobs = [(_kinked_wave, (1.0 / 3.0, w), 0.0, 1.0, s)
                for w, s in ((300.0, QuadSpec()), (40.0, spec), (100.0, QuadSpec()))]
        assert [value is None for value in integrate_many(jobs)] == [True, False, True]
        outcome = _served(jobs)
        assert outcome == _ref_batch([(partial(f, *params), lo, hi, s) for f, params, lo, hi, s in jobs])
        assert all(isinstance(value, float) for value in outcome)

    def test_job_outgrowing_its_row_reads_none(self, heap_finishes):
        # cos(1000 x) takes 521 panels, past the 64 of a row, and 1/x, which
        # fails after 8,191 panels, outgrows its row too: both leave the
        # batch, and integrate alone gives each its value or error
        jobs = [(_kinked_wave, (1.0 / 3.0, w), 0.0, 1.0 + w / 1e4, QuadSpec()) for w in (1000.0, 40.0)]
        jobs.append((_power, (-1.0,), 0.0, 1.0, QuadSpec(max_depth=12)))
        closures = [(partial(f, *params), lo, hi, s) for f, params, lo, hi, s in jobs]
        assert [value is None for value in integrate_many(jobs)] == [True, False, True]
        assert heap_finishes == []
        outcome = _served(jobs)
        assert outcome == _ref_batch(closures)
        assert isinstance(outcome[0], float)
        assert outcome[2][2].startswith("tolerance not met on [0.0, 1.0]:")

    def test_exactly_the_jobs_that_leave_the_common_path_read_none(self, monkeypatch, heap_finishes):
        # under a cap of 300 intervals: a job stuck at max_depth 3, a
        # non-finite one, cos(1000 x), which outgrows its row and converges
        # alone within the cap, and cos(3000 x), which needs more intervals
        # than the cap, leave the batch; the plain jobs among them finish
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 300)
        plain = [(_power, (p,), 0.0, 1.0, QuadSpec()) for p in (2.0, 0.5, 1.5)]
        jobs = [plain[0], (_power, (-0.95,), 0.0, 1.0, QuadSpec(max_depth=3)), (_nan, (), 0.0, 1.0, QuadSpec()),
                plain[1], (_kinked_wave, (1.0 / 3.0, 1000.0), 0.0, 1.1, QuadSpec()),
                (_kinked_wave, (1.0 / 3.0, 3000.0), 0.0, 1.0, QuadSpec()), plain[2]]
        closures = [(partial(f, *params), lo, hi, spec) for f, params, lo, hi, spec in jobs]
        values = integrate_many(jobs)
        assert heap_finishes == []
        assert [i for i, value in enumerate(values) if value is None] == [1, 2, 4, 5]
        # the reference loop holds the cap it was imported with
        ref = _ref_batch(closures)
        assert [values[i] for i in (0, 3, 6)] == [ref[i] for i in (0, 3, 6)]
        # alone, each job that left gets its own value or error
        stuck, nan, crowded, capped = (_outcome(integrate, *closures[i]) for i in (1, 2, 4, 5))
        assert stuck == ref[1] and stuck[2].startswith("tolerance not met on [0.0, 1.0]:")
        assert nan[2].startswith("non-finite") and math.isnan(nan[0]) and math.isnan(nan[1])
        assert crowded == ref[4] and isinstance(crowded, float)
        assert capped[2].startswith("tolerance not met on [0.0, 1.0]:") and isinstance(ref[5], float)

    @pytest.mark.parametrize("in_flight", [2, quadrature._IN_FLIGHT])
    def test_interval_cap_inside_a_batch(self, monkeypatch, heap_finishes, in_flight):
        # under a cap of 12 intervals cos(40 x) and x^1.5 still converge, and
        # cos(60 x), which stays above depth 8, and x^0.25 no longer do.
        # Every job but x^2 may reach the cap in its row and leaves the batch,
        # and alone the jobs within the cap keep their values (_ref_integrate
        # holds the cap it was imported with)
        monkeypatch.setattr(quadrature, "_IN_FLIGHT", in_flight)
        shallow = QuadSpec(max_depth=8)
        jobs = [(_power, (2.0,), 0.0, 1.0, QuadSpec()), (_kinked_wave, (0.5, 40.0), 0.0, 1.0, shallow),
                (_kinked_wave, (0.5, 60.0), 0.0, 1.0, shallow), (_power, (0.25,), 0.0, 1.0, QuadSpec()),
                (_power, (1.5,), 0.0, 1.0, QuadSpec())]
        closures = [(partial(f, *params), lo, hi, spec) for f, params, lo, hi, spec in jobs]
        uncapped = [integrate(*closure) for closure in closures]
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 12)
        alone = [_outcome(integrate, *closure) for closure in closures]
        assert [isinstance(o, tuple) for o in alone] == [False, False, True, True, False]
        assert alone[2][2].startswith("tolerance not met on [0.0, 1.0]:")
        assert [value is None for value in integrate_many(jobs)] == [False, True, True, True, True]
        assert heap_finishes == []
        # alone, each job that left the batch gets its own value or error
        assert _served(jobs) == alone
        kept = [i for i, o in enumerate(alone) if not isinstance(o, tuple)]
        assert _served([jobs[i] for i in kept]) == [uncapped[i] for i in kept] == [alone[i] for i in kept]

    def test_split_counts_share_a_batch(self):
        # 0, 1 and 2 split points inside [0, 1], and splits outside it or
        # repeated, which add no panel
        splits = [(), (0.5,), (0.25, 0.75), (-1.0, 2.0), (0.5, 0.5, 1.0), (0.1, 0.2, 0.9)]
        cases = [(job, closure) for s in splits
                 for job, closure in _power_jobs([(p, QuadSpec(split_points=s)) for p in (0.5, 1.5, 3.0)])]
        assert integrate_many([job for job, _ in cases]) == _ref_batch(_closures(cases))

    @pytest.mark.parametrize("in_flight", [3, quadrature._IN_FLIGHT])
    def test_failure_amid_more_jobs_than_rows(self, monkeypatch, in_flight):
        # job in_flight + 1 starts only once a row frees up, and fails at
        # depth 6; job 2 in_flight, after it, fails sooner, at depth 2: both
        # leave the batch, and the jobs around them finish
        monkeypatch.setattr(quadrature, "_IN_FLIGHT", in_flight)
        cases = [(0.5 + i % 3, QuadSpec()) for i in range(2 * in_flight + 3)]
        cases[in_flight + 1] = (-0.95, QuadSpec(max_depth=6))
        cases[2 * in_flight] = (-0.95, QuadSpec(max_depth=2))
        cases = _power_jobs(cases)
        jobs = [job for job, _ in cases]
        expected = _ref_batch(_closures(cases))
        assert expected[in_flight + 1] == _outcome(integrate, *_closures(cases)[in_flight + 1])
        assert [i for i, value in enumerate(integrate_many(jobs)) if value is None] == [in_flight + 1, 2 * in_flight]
        assert _served(jobs) == expected
        # and without the failing jobs every value matches
        del cases[2 * in_flight], cases[in_flight + 1]
        assert integrate_many([job for job, _ in cases]) == _ref_batch(_closures(cases))


# Slow lane: replay every integral of an adjudication report and of two
# searches against the reference loop.

_INTEGRATING_MODULES = (quadrature, specfun, bounds)


def _assert_replay_bit_identical(monkeypatch, compute):
    """Every integral ``compute`` makes, alone or in a batch, replayed
    against the reference loop."""
    clear_value_caches()
    try:
        calls, batches = _recorded_integrals(monkeypatch, _INTEGRATING_MODULES, compute)
    finally:
        clear_value_caches()
    for f, lo, hi, spec in calls:
        assert _outcome(integrate, f, lo, hi, spec) == _outcome(_ref_integrate, f, lo, hi, spec)
    for jobs, outcome in batches:
        assert outcome == _ref_batch([(partial(family, *params), lo, hi, spec)
                                      for family, params, lo, hi, spec in jobs])
    return calls, batches


def test_adjudication_batch_replays_job_by_job(monkeypatch):
    # One interval's batch (its 2F1 halves and kernels, every weight form):
    # each value is the reference loop's on that job alone.
    clear_value_caches()
    try:
        calls, batches = _recorded_integrals(
            monkeypatch, _INTEGRATING_MODULES, lambda: harness.build_adjudication_report((Interval(0.8, 5.3),)))
    finally:
        clear_value_caches()
    assert not calls and len(batches) == 1
    jobs, values = batches[0]
    assert len(jobs) == len(values) > 300
    for (family, params, lo, hi, spec), value in zip(jobs, values):
        assert value == _ref_integrate(partial(family, *params), lo, hi, spec)


@pytest.mark.slow
def test_adjudication_report_integrals_replay(monkeypatch):
    rng = np.random.default_rng(11)
    intervals = [Interval(a, a * r) for a, r in zip(rng.uniform(0.5, 3.0, 3).tolist(),
                                                     rng.uniform(1.1, 10.0, 3).tolist())]
    calls, batches = _assert_replay_bit_identical(
        monkeypatch, lambda: harness.build_adjudication_report(intervals))
    # one batch per interval holds every integral of the report
    assert not calls and len(batches) == len(intervals)


@pytest.mark.slow
@pytest.mark.parametrize("theorem", ["II2", "II4"])
def test_search_integrals_replay(monkeypatch, theorem):
    _assert_replay_bit_identical(monkeypatch, lambda: harness.search_counterexample(theorem, 100, seed=7))
