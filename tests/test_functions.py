import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhkit
from hhkit.errors import DomainError, InconclusiveError, ParameterError
from hhkit.cli import build_parser
from hhkit.functions import (
    FAMILIES,
    FAMILY_ROWS,
    FunctionSpec,
    GradientPower,
    SMParams,
    check_harmonic_sm_convex,
    check_prop1_implication,
    check_sm_convex,
    compose_g,
    deriv,
    eval_fn,
    harmonic_combine,
)
from hhkit.functions import _mesh_axes, _mesh_points, _row_stage

WIDE = (0.05, 50.0)


def spec_power(coeff=1.0, exponent=2.0, shift=0.0):
    return FunctionSpec.power(coeff, exponent, shift, *WIDE)


# Each family's formulas, written out as the table must evaluate them: the
# same operations in the same order, so the same bits.
def _written_out(family, p):
    if family == "pow":
        c, e, sh = p
        return (lambda x: c * x**e + sh), (lambda x: c * e * x ** (e - 1.0))
    if family == "spiece":
        _, b0, c0, s = p
        return (lambda x: b0 * x**s + c0), (lambda x: b0 * s * x ** (s - 1.0))
    if family == "recip":
        return (lambda x: 1.0 / x), (lambda x: -1.0 / (x * x))
    if family == "affine":
        sl, ic = p
        return (lambda x: sl * x + ic), (lambda x: sl * np.ones_like(x) if isinstance(x, np.ndarray) else sl)
    sc = p[0]
    return ((lambda x: np.exp(sc * x) if isinstance(x, np.ndarray) else math.exp(sc * x)),
            (lambda x: sc * (np.exp(sc * x) if isinstance(x, np.ndarray) else math.exp(sc * x))))


TABLE_CASES = [
    FunctionSpec.power(-0.7, 2.3, 0.4, *WIDE),
    FunctionSpec.power(1.3, 0.5, 0.0, *WIDE),
    FunctionSpec.power(2.0, -1.0, 0.0, *WIDE),
    FunctionSpec.spiece(2.0, 1.25, 0.5, 0.3, *WIDE),
    FunctionSpec.reciprocal(*WIDE),
    FunctionSpec.affine(-2.5, 3.0, *WIDE),
    FunctionSpec.exponential(0.37, *WIDE),
]


def _same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFamilyTable:
    @pytest.mark.parametrize("f", TABLE_CASES, ids=lambda f: f.label)
    # x**-1.0 and x**-2.0 round differently from 1.0/x and 1.0/(x*x) at
    # 5.956929058920964 and 29.87170519566488
    @pytest.mark.parametrize("x", [0.07, 1.0, 1.7, 5.956929058920964, 29.87170519566488,
                                   np.geomspace(0.06, 45.0, 15), np.random.default_rng(3).uniform(0.05, 50.0, 15)],
                             ids=["0.07", "1", "1.7", "5.96", "29.9", "geom15", "random15"])
    def test_rows_match_the_written_out_formulas_bit_for_bit(self, f, x):
        value, slope = _written_out(f.family, f.params)
        assert _same_bits(eval_fn(f, x), value(x))
        assert _same_bits(deriv(f, x), slope(x))
        assert isinstance(eval_fn(f, x), np.ndarray) == isinstance(x, np.ndarray)

    def test_every_family_has_a_row(self):
        assert FAMILIES == ("pow", "spiece", "recip", "affine", "exp") == tuple(FAMILY_ROWS)
        assert all(name == row.name for name, row in FAMILY_ROWS.items())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_parameter_name_is_a_verify_flag(self, family):
        names = [param.name for param in FAMILY_ROWS[family].params]
        argv = ["verify", "--theorem", "II1", "--family", family, "--a", "1", "--b", "2"]
        for k, name in enumerate(names):
            argv += ["--" + name, str(0.125 * (k + 1))]
        args = build_parser().parse_args(argv)
        assert [getattr(args, name) for name in names] == [0.125 * (k + 1) for k in range(len(names))]

    def test_arity_comes_from_the_row(self):
        for family, row in FAMILY_ROWS.items():
            with pytest.raises(DomainError, match=f"{family} takes {len(row.params)} finite parameters"):
                FunctionSpec(family, (1.0,) * (len(row.params) + 1), *WIDE)

    def test_label_is_formed_once_and_leaves_equality_alone(self):
        f, g = spec_power(1.5, -0.0, 0.25), spec_power(1.5, -0.0, 0.25)
        assert f.label == "pow(1.5,-0,0.25)" and f.label is f.label
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


class TestEvalAndDeriv:
    @pytest.mark.parametrize(
        "f, x, expected",
        [
            (spec_power(1, 2, 0), 3.0, 9.0),
            (FunctionSpec.reciprocal(*WIDE), 2.0, 0.5),
            (FunctionSpec.spiece(1, 1, 0.5, 0.5, *WIDE), 4.0, 2.5),
            (FunctionSpec.affine(2, 1, *WIDE), 3.0, 7.0),
        ],
    )
    def test_eval_examples(self, f, x, expected):
        assert eval_fn(f, x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "f, x, expected",
        [
            (spec_power(1, 2, 0), 3.0, 6.0),
            (FunctionSpec.reciprocal(*WIDE), 2.0, -0.25),
            (FunctionSpec.affine(3, -1, *WIDE), 1.0, 3.0),
        ],
    )
    def test_deriv_examples(self, f, x, expected):
        assert deriv(f, x) == pytest.approx(expected, rel=1e-14)

    def test_exp_deriv_near_zero(self):
        # scale * exp(scale x) -> scale as x -> 0+
        f = FunctionSpec.exponential(1.0, 1e-9, 10.0)
        assert deriv(f, 1e-9) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize(
        "f",
        [
            spec_power(2, 2.5, 1),
            FunctionSpec.reciprocal(*WIDE),
            FunctionSpec.spiece(1, 2, 0.5, 0.75, *WIDE),
            FunctionSpec.affine(-1, 4, *WIDE),
            FunctionSpec.exponential(0.7, *WIDE),
        ],
    )
    def test_deriv_matches_central_differences(self, f):
        for x in np.geomspace(0.2, 20.0, 17):
            h = 1e-6 * x
            fd = (eval_fn(f, x + h) - eval_fn(f, x - h)) / (2.0 * h)
            assert deriv(f, x) == pytest.approx(fd, rel=1e-6)

    def test_domain_enforced(self):
        f = FunctionSpec.power(1, 2, 0, 1.0, 2.0)
        with pytest.raises(DomainError):
            eval_fn(f, 0.5)
        with pytest.raises(DomainError):
            deriv(f, 3.0)
        with pytest.raises(DomainError):
            eval_fn(f, np.array([1.5, 2.5]))

    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_scalar_and_array_arguments_share_the_domain_message(self, x):
        f = FunctionSpec.power(1, 2, 0, 1.0, 2.0)
        messages = set()
        for arg in (x, np.float64(x), np.array([x])):
            with pytest.raises(DomainError) as exc:
                eval_fn(f, arg)
            messages.add(str(exc.value))
        assert messages == {f"argument range [{x}, {x}] leaves the domain [1.0, 2.0] of pow(1,2,0)"}

    def test_invalid_specs_rejected(self):
        with pytest.raises(DomainError):
            FunctionSpec.power(1, 2, 0, -1.0, 2.0)
        with pytest.raises(DomainError):
            FunctionSpec.spiece(1.0, -0.5, 0.0, 0.5, *WIDE)  # b0 < 0
        with pytest.raises(DomainError):
            FunctionSpec.spiece(1.0, 1.0, 2.0, 0.5, *WIDE)  # c0 > a0
        with pytest.raises(DomainError):
            FunctionSpec("cosine", (), 1.0, 2.0)


class TestHarmonicCombine:
    def test_endpoints_exact(self):
        assert harmonic_combine(2.0, 3.0, 1.0, 0.7) == 2.0
        assert harmonic_combine(2.0, 3.0, 0.0, 0.7) == 0.7 * 3.0

    def test_harmonic_mean(self):
        assert harmonic_combine(2.0, 3.0, 0.5, 1.0) == pytest.approx(2.4, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(min_value=0.01, max_value=100.0),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_projective_identity(self, x, t):
        # x = y and m = 1 collapses to x for every weight
        assert harmonic_combine(x, x, t, 1.0) == pytest.approx(x, rel=1e-12)


def _where_reference(x, y, t, m):
    """harmonic_combine's endpoint handling by masking the whole broadcast array."""
    raw = m * x * y / (m * t * y + (1.0 - t) * x)
    tb = np.broadcast_to(t, raw.shape)
    out = np.where(tb == 1.0, np.broadcast_to(x * 1.0, raw.shape), raw)
    return np.where(tb == 0.0, np.broadcast_to(m * y, raw.shape), out)


_XS = np.geomspace(0.5, 7.0, 9)
_TS = _mesh_axes(10)[0]
_I, _J = _mesh_axes(9)[2:]
_MESHES = [
    # the full mesh, the border mesh and the reduced problem's border mesh
    (_XS[:, None, None], _XS[None, :, None], _TS[None, None, :]),
    (_XS[_I, None], _XS[_J, None], _TS[None, :]),
    (_XS[_I, None], _XS[_J, None] * 1.3, _TS),
]


class TestHarmonicCombineSlices:
    @pytest.mark.parametrize(
        "x, y, t",
        [
            # broadcasts with t along the last axis
            (_XS[:, None], _XS[None, :] * 1.3, _TS[None, :9]),
            (_XS[:, None, None], 2.0, _TS[None, None, :]),
            (np.broadcast_to(_XS[:, None, None], (9, 1, _TS.size)), _XS[None, :, None], _TS[None, None, :]),
            (_XS[:, None, None], _XS[None, :, None], np.linspace(0.1, 0.9, 7)[None, None, :]),
            # general broadcasts
            (_XS[:, None], _XS[None, :], _TS[:9, None]),
            (_XS[:, None, None], _XS[None, :, None], _TS[:9, None, None]),
            (_XS, _XS[::-1], _TS[:9]),
            (_XS[:, None], 3.0, _TS),
            (2.0, 3.0, _TS),
            (_XS[:, None, None], _XS[None, :, None], np.broadcast_to(_TS, (9, 9, _TS.size))),
        ],
    )
    @pytest.mark.parametrize("m", [1.0, 0.7])
    def test_bytes_match_where_reference(self, x, y, t, m):
        got = harmonic_combine(x, y, t, m)
        ref = _where_reference(x, y, t, m)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("x, y, t", _MESHES)
    @pytest.mark.parametrize("m", [1.0, 0.7])
    def test_certification_mesh_bytes_match_where_reference(self, x, y, t, m):
        # the mesh path sets the t = 0 and t = 1 columns by slice
        got = _mesh_points(harmonic_combine, x, y, t, m)
        ref = _where_reference(x, y, t, m)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("x, y", [mesh[:2] for mesh in _MESHES])
@pytest.mark.parametrize("flat", [0, 7, 200, -1])
def test_witness_is_read_as_the_broadcast_would_read_it(x, y, flat):
    # values that exceed the slack at one mesh point only
    fpts = np.zeros(np.broadcast_shapes(x.shape, y.shape, _TS.shape))
    fpts.flat[flat] = 1.0
    report, _ = _row_stage(x, y, np.zeros_like(x), np.zeros_like(y), fpts, 10, 0.5, 0.7, True)
    index = np.unravel_index(flat % fpts.size, fpts.shape)
    assert report.witness == tuple(float(np.broadcast_to(v, fpts.shape)[index]) for v in (x, y, _TS))
    assert (report.passed, report.worst_margin, report.samples) == (False, 1.0, fpts.size)


class TestSMParams:
    def test_holder_conjugate(self):
        p = SMParams(1.0, 1.0, 3.0).p
        assert p == pytest.approx(1.5, rel=1e-15)
        assert 1.0 / p + 1.0 / 3.0 == pytest.approx(1.0, rel=1e-15)

    def test_q_one_has_no_p(self):
        assert SMParams(1.0, 1.0, 1.0).p is None

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            SMParams(1.5, 1.0)
        with pytest.raises(ParameterError):
            SMParams(0.5, 0.0)
        with pytest.raises(ParameterError):
            SMParams(0.5, 1.0, 0.5)

    @pytest.mark.parametrize("q", [float("nan"), float("inf")])
    def test_q_must_be_finite(self, q):
        with pytest.raises(ParameterError, match="finite"):
            SMParams(0.5, 1.0, q)

    def test_s_zero_accepted_but_flagged(self):
        params = SMParams(0.0, 1.0)
        assert not params.s_in_definition_range
        report = check_harmonic_sm_convex(spec_power(), params, grid=16, window=(1.0, 2.0))
        assert any("s=0" in d for d in report.diagnostics)


class TestConvexityCheckers:
    def test_affine_is_harmonically_convex(self):
        report = check_harmonic_sm_convex(FunctionSpec.affine(1, 0, *WIDE), SMParams(1.0, 1.0), window=(1.0, 4.0))
        assert report.passed

    def test_square_is_harmonically_convex(self):
        # x^2 is homogeneous: only the 4*64 - 4 border (x, y) pairs are evaluated
        report = check_harmonic_sm_convex(spec_power(), SMParams(1.0, 1.0), window=(1.0, 4.0))
        assert report.passed
        assert report.samples == (4 * 64 - 4) * 65

    def test_shifted_square_is_checked_on_the_full_mesh(self):
        report = check_harmonic_sm_convex(spec_power(1.0, 2.0, 1.0), SMParams(1.0, 1.0), window=(1.0, 4.0))
        assert report.passed
        assert report.samples == 64 * 64 * 65

    def test_homogeneity(self):
        assert spec_power(-2.0, 1.5, 0.0).homogeneity == (-2.0, 1.5)
        assert FunctionSpec.reciprocal(*WIDE).homogeneity == (1.0, -1.0)
        assert FunctionSpec.spiece(1.0, 2.0, 0.0, 0.5, *WIDE).homogeneity == (2.0, 0.5)
        assert GradientPower(spec_power(-2.0, 1.5, 0.0), 2.0).homogeneity == (9.0, 1.0)
        for f in (spec_power(1.0, 2.0, 1.0), FunctionSpec.spiece(1.0, 2.0, 0.5, 0.5, *WIDE),
                  FunctionSpec.affine(1.0, 0.0, *WIDE), FunctionSpec.exponential(0.5, *WIDE)):
            assert f.homogeneity is None
            assert GradientPower(f, 2.0).homogeneity is None

    def test_concave_fails_with_witness(self):
        report = check_harmonic_sm_convex(spec_power(-1.0), SMParams(1.0, 1.0), window=(1.0, 4.0))
        assert not report.passed
        assert report.worst_margin > 1e-3
        x, y, t = report.witness
        assert 1.0 <= x <= 4.0 and 1.0 <= y <= 4.0 and 0.0 <= t <= 1.0

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
    def test_spiece_is_harmonically_s_convex(self, s):
        # the piecewise s-power family certifies as harmonically (s,1)-convex
        f = FunctionSpec.spiece(1.0, 1.0, 0.0, s, *WIDE)
        assert check_harmonic_sm_convex(f, SMParams(s, 1.0), window=(0.5, 10.0)).passed

    def test_fractional_root_fails_for_m_below_one(self):
        # f(my) <= m f(y) already fails at t = 0 for x^(1/2)
        f = spec_power(1.0, 0.5, 0.0)
        assert not check_harmonic_sm_convex(f, SMParams(0.5, 0.5), window=(1.0, 10.0)).passed

    def test_sm_convex_checker(self):
        assert check_sm_convex(FunctionSpec.affine(1, 0, *WIDE), SMParams(1.0, 1.0), window=(1.0, 4.0)).passed
        assert check_sm_convex(spec_power(), SMParams(1.0, 1.0), window=(1.0, 4.0)).passed
        report = check_sm_convex(spec_power(-1.0), SMParams(1.0, 1.0), window=(1.0, 4.0))
        assert not report.passed
        assert report.witness is not None

    def test_checker_agrees_with_plain_harmonic_definition(self):
        # at s = m = 1 the (s,m) checker must reproduce the harmonically-convex
        # definition: f(xy/(tx+(1-t)y)) <= t f(y) + (1-t) f(x) on the same mesh
        families = [
            spec_power(1, 2, 0),
            spec_power(1, 1.5, 0),
            spec_power(-1, 2, 0),
            FunctionSpec.reciprocal(*WIDE),
            FunctionSpec.exponential(0.5, *WIDE),
            FunctionSpec.affine(-2, 30, *WIDE),
        ]
        lo, hi, n = 1.0, 5.0, 24
        xs = np.geomspace(lo, hi, n)
        ts = np.linspace(0.0, 1.0, n + 1)
        x = xs[:, None, None]
        y = xs[None, :, None]
        t = ts[None, None, :]
        for f in families:
            direct = bool(
                np.all(
                    eval_fn(f, x * y / (t * x + (1.0 - t) * y))
                    <= t * eval_fn(f, y) + (1.0 - t) * eval_fn(f, x) + 1e-9
                )
            )
            got = check_harmonic_sm_convex(f, SMParams(1.0, 1.0), grid=n, window=(lo, hi)).passed
            assert got == direct, f.label

    def test_callable_needs_window(self):
        with pytest.raises(DomainError):
            check_harmonic_sm_convex(lambda x: x, SMParams(1.0, 1.0))

    def test_domain_error_when_combined_points_escape(self):
        f = FunctionSpec.power(1, 2, 0, 1.0, 4.0)
        # m < 1 pulls combined points down to m * lo < domain_lo
        with pytest.raises(DomainError):
            check_harmonic_sm_convex(f, SMParams(1.0, 0.5), window=(1.0, 4.0))


class TestGridDensity:
    """Every mesh checks its density: below 8 is a ParameterError, whichever
    path (reduced problem, border or full mesh) the target takes."""

    TARGETS = [spec_power(), spec_power(shift=1.0), FunctionSpec.exponential(0.5, *WIDE)]

    @pytest.mark.parametrize("check", [check_harmonic_sm_convex, check_sm_convex, check_prop1_implication])
    @pytest.mark.parametrize("grid", [0, 1, 7])
    @pytest.mark.parametrize("f", TARGETS, ids=lambda f: f.label)
    def test_grid_below_eight_is_a_parameter_error(self, check, grid, f):
        with pytest.raises(ParameterError, match=f"^certification grid density must be >= 8, got {grid}$"):
            check(f, SMParams(1.0, 0.8), grid=grid, window=(1.0, 2.0))

    @pytest.mark.parametrize("grid", [0, 1, 7])
    def test_gradient_and_bare_callable_targets(self, grid):
        with pytest.raises(ParameterError, match="grid density"):
            check_harmonic_sm_convex(GradientPower(spec_power(), 2.0), SMParams(1.0, 0.8), grid=grid,
                                     window=(1.0, 2.0))
        with pytest.raises(ParameterError, match="grid density"):
            check_harmonic_sm_convex(lambda x: x * x, SMParams(1.0, 1.0), grid=grid, window=(1.0, 2.0))

    @pytest.mark.parametrize("check", [check_harmonic_sm_convex, check_sm_convex, check_prop1_implication])
    @pytest.mark.parametrize("grid", [8.5, 48.0, "9", True, None])
    @pytest.mark.parametrize("f", TARGETS, ids=lambda f: f.label)
    def test_non_integer_grid_is_a_parameter_error(self, check, grid, f):
        # a grid-48 check first, so that 48.0 cannot ride on its cache entries
        check(f, SMParams(1.0, 0.8), grid=48, window=(1.0, 2.0))
        with pytest.raises(ParameterError, match=f"^certification grid density must be an integer, got {grid!r}$"):
            check(f, SMParams(1.0, 0.8), grid=grid, window=(1.0, 2.0))

    def test_numpy_integer_grid_passes(self):
        assert check_harmonic_sm_convex(spec_power(), SMParams(1.0, 1.0), grid=np.int64(8)).passed

    def test_verify_theorem_rejects_grid_zero(self):
        from hhkit.bounds import Interval, verify_theorem

        f = FunctionSpec.power(1.0, 2.0, 0.0, 0.5, 4.0)
        with pytest.raises(ParameterError, match="got 0$"):
            verify_theorem("II2", f, SMParams(0.5, 0.8, 2.0), Interval(1.0, 2.0), grid=0)

    def test_grid_eight_passes(self):
        assert check_harmonic_sm_convex(spec_power(), SMParams(1.0, 1.0), grid=8).passed


class TestComposeG:
    def test_endpoint_fixpoints(self):
        f = FunctionSpec.reciprocal(*WIDE)
        g = compose_g(f, 1.0, 2.0, 0.9)
        assert g(1.0) == pytest.approx(eval_fn(f, 1.0), rel=1e-14)
        assert g(1.8) == pytest.approx(eval_fn(f, 1.8), rel=1e-14)

    def test_requires_a_below_mb(self):
        with pytest.raises(DomainError):
            compose_g(FunctionSpec.reciprocal(*WIDE), 2.0, 2.0, 0.9)

    @settings(max_examples=80, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_transport_identity(self, t):
        # (f o g)(ta + m(1-t)b) = f(mab / (mbt + (1-t)a))
        f = FunctionSpec.reciprocal(*WIDE)
        a, b, m = 1.0, 2.0, 0.9
        g = compose_g(f, a, b, m)
        lhs = g(t * a + m * (1.0 - t) * b)
        rhs = eval_fn(f, m * a * b / (m * b * t + (1.0 - t) * a))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestProp1Implication:
    def test_pointwise_inequality_rows(self):
        # t = 0: m x y / x = m y, equality; x = m y: equality for all t
        m, x, y = 0.7, 2.1, 3.0
        assert harmonic_combine(x, y, 0.0, m) == pytest.approx(m * y, rel=1e-15)
        xx = m * 3.0
        for t in np.linspace(0.0, 1.0, 9):
            comb = harmonic_combine(xx, 3.0, t, m)
            assert comb == pytest.approx(t * xx + m * (1.0 - t) * 3.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=40.0),
        y=st.floats(min_value=0.05, max_value=40.0),
        t=st.floats(min_value=0.0, max_value=1.0),
        m=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_pointwise_inequality_property(self, x, y, t, m):
        assert harmonic_combine(x, y, t, m) <= t * x + m * (1.0 - t) * y + 1e-12

    def test_nondecreasing_convex_power(self):
        report = check_prop1_implication(spec_power(), SMParams(1.0, 0.7), window=(1.0, 5.0))
        assert report.passed

    def test_nonincreasing_function_is_vacuous(self):
        report = check_prop1_implication(FunctionSpec.reciprocal(*WIDE), SMParams(1.0, 1.0), window=(1.0, 5.0))
        assert report.passed
        assert any("nonincreasing" in d for d in report.diagnostics)

    def test_mixed_slopes_inconclusive(self):
        with pytest.raises(InconclusiveError):
            check_prop1_implication(lambda x: (x - 2.0) ** 2, SMParams(1.0, 1.0), grid=16, window=(1.0, 3.0))

    def test_every_certified_sm_convex_nondecreasing_is_harmonically_convex(self):
        for f in (spec_power(1, 2, 0), spec_power(2, 3, 1), FunctionSpec.exponential(0.5, *WIDE)):
            for m in (0.6, 1.0):
                report = check_prop1_implication(f, SMParams(1.0, m), grid=32, window=(1.0, 4.0))
                assert report.passed, (f.label, m)


class TestMeshAxes:
    def test_t_mesh_is_the_unique_sorted_mesh_bit_for_bit(self):
        for grid in (*range(8, 129), 255, 256, 1000, 1001, 4096):
            reference = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid + 1), [0.5]]))
            ts = _mesh_axes(grid)[0]
            assert ts.dtype == reference.dtype and ts.tobytes() == reference.tobytes(), grid

    def test_certification_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (11-16 ms) inside the first certification
        # of every interpreter; the t mesh is built without it
        code = (
            "import sys\n"
            "from hhkit import bounds\n"
            "from hhkit.functions import FunctionSpec, SMParams\n"
            "f = FunctionSpec.power(1.0, 2.0, 0.0, 0.4, 6.0)\n"
            "g = FunctionSpec.exponential(0.5, 0.4, 6.0)\n"
            "p = SMParams(0.5, 0.8, 2.0)\n"
            "assert bounds.certify_function(f, p, (1.0, 3.0), 48).passed\n"
            "assert bounds.certify_gradient(f, p, (1.0, 3.0), 48).passed\n"
            "bounds.certify_plain(g, p, (1.0, 3.0), 48)\n"
            "bounds.certify_function(g, p, (1.0, 3.0), 48)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(hhkit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"
