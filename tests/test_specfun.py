import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hhkit.errors import ConvergenceError, DomainError
from hhkit.quadrature import integrate
from hhkit.specfun import Hyp2F1Args, beta, euler_integral, hyp2f1_euler, hyp2f1_series, ln_gamma


class TestLnGamma:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, 0.0),
            (0.5, math.log(math.sqrt(math.pi))),
            (5.0, math.log(24.0)),
            (2.0, 0.0),
        ],
    )
    def test_known_values(self, x, expected):
        assert ln_gamma(x) == pytest.approx(expected, abs=1e-13)

    def test_against_scipy_grid(self):
        xs = np.concatenate([np.geomspace(1e-3, 0.49, 40), np.linspace(0.5, 80.0, 200)])
        for x in xs:
            ref = scipy.special.gammaln(x)
            assert ln_gamma(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)


class TestBeta:
    def test_uniform_integrand(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_factorial_identity(self):
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_half_integer_value_and_defining_integral(self):
        # Gamma(3/2)Gamma(1/2)/Gamma(2) = pi/2; quadrature of the defining
        # integral (endpoint-regularized by 1-t = v^2) is the independent oracle.
        assert beta(1.5, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)

        def regularized(v):
            t = 1.0 - v * v
            return 2.0 * t**0.5

        oracle = integrate(regularized, 0.0, 1.0)
        assert beta(1.5, 0.5) == pytest.approx(oracle, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)

    def test_cached_values_keep_their_bits_and_errors_still_raise(self):
        # errors are not cached: invalid arguments raise after a valid call,
        # and again after that
        pairs = [(1.0, 2.25), (2.0, 1.5), (0.3, 0.7), (150.0, 99.9), (1e10, 2.5)]
        beta.cache_clear()
        first = [beta(x, y).hex() for x, y in pairs]
        assert [beta(x, y).hex() for x, y in pairs] == first == [beta.__wrapped__(x, y).hex() for x, y in pairs]
        assert beta.cache_info().hits == len(pairs)
        for _ in range(2):
            with pytest.raises(DomainError):
                beta(0.0, 1.0)
            with pytest.raises(OverflowError):
                beta(1e-310, 1.0)
        assert beta.cache_info().currsize == len(pairs)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=25.0),
        y=st.floats(min_value=0.05, max_value=25.0),
    )
    def test_symmetry(self, x, y):
        assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)


def _mp_beta(x, y):
    """B(x, y) at 400 digits, enough to resolve ln Gamma of arguments up to
    1e308 (at 60 digits mpmath returns 1.0 for B(1e306, 1)), and the relative
    tolerance of a double evaluation: exp turns an absolute error of a few
    ulps of ln B, or of the ln Gamma(min(x, y)) it is built from, into that
    relative error."""
    with mpmath.workdps(400):
        value = mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))
        terms = abs(mpmath.log(value)) + abs(mpmath.loggamma(min(x, y))) + 1
    return float(value), 4.0 * np.finfo(float).eps * float(terms)


class TestLargeArgumentBeta:
    # The log-Gamma difference of a large argument comes from Stirling's
    # series; before, beta(1e10, 2.5) was off by 7e-6 and beta(1e13, 2.5) by 5%.
    @pytest.mark.parametrize("x, y", [
        (1e10, 2.5), (1e13, 2.5), (2.5, 1e13), (1e17, 2.0), (1e306, 1.0), (100.0, 100.0), (100.0, 1e-3),
        (150.0, 99.9), (1e5, 300.0), (99.9, 0.5),
    ])
    def test_against_mpmath(self, x, y):
        value, rel = _mp_beta(x, y)
        assert beta(x, y) == pytest.approx(value, rel=rel)

    def test_named_cases(self):
        # before: 1.0, OverflowError and OverflowError
        assert beta(1e17, 2.0) == pytest.approx(1e-34, rel=1e-14)
        assert beta(1e306, 1.0) == pytest.approx(1e-306, rel=1e-14)
        assert beta(1e308, 1e308) == 0.0
        assert _mp_beta(1e6, 1e6)[0] == 0.0 == beta(1e6, 1e6)

    @settings(max_examples=40, deadline=None)
    @given(log_x=st.floats(2.0, 300.0), share=st.floats(1e-6, 1.0))
    def test_random_large_arguments(self, log_x, share):
        x = 10.0**log_x
        y = max(1e-3, share * x)
        value, rel = _mp_beta(x, y)
        assert beta(x, y) == pytest.approx(value, rel=rel, abs=1e-300)
        assert beta(y, x) == beta(x, y)


class TestHyp2F1Args:
    def test_invariants(self):
        with pytest.raises(DomainError):
            Hyp2F1Args(1.0, 0.0, 2.0, 0.5)  # b must be positive
        with pytest.raises(DomainError):
            Hyp2F1Args(1.0, 2.0, 2.0, 0.5)  # c must exceed b
        with pytest.raises(DomainError):
            Hyp2F1Args(1.0, 1.0, 2.0, 1.0)  # z < 1
        with pytest.raises(DomainError):
            Hyp2F1Args(1.0, 1.0, 2.0, -0.1)  # z >= 0


class TestHyp2F1:
    def test_z_zero_is_one(self):
        args = Hyp2F1Args(2.0, 1.0, 2.0, 0.0)
        assert hyp2f1_series(args) == 1.0
        assert hyp2f1_euler(args) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_closed_form(self):
        # symmetric in (a, b): 2F1(2,1;2;z) = 2F1(1,2;2;z) = (1-z)^-1
        args = Hyp2F1Args(2.0, 1.0, 2.0, 0.5)
        assert hyp2f1_series(args) == pytest.approx(2.0, rel=1e-14)
        assert hyp2f1_euler(args) == pytest.approx(2.0, rel=1e-10)

    def test_logarithmic_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z = 2 log 2 at z = 1/2
        args = Hyp2F1Args(1.0, 1.0, 2.0, 0.5)
        expected = 2.0 * math.log(2.0)
        assert hyp2f1_series(args) == pytest.approx(expected, rel=1e-14)
        assert hyp2f1_euler(args) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "args, expected",
        [
            # mpmath 30dps reference values
            (Hyp2F1Args(2.0, 1.0, 3.0, 0.5), 1.54517744447956248),
            (Hyp2F1Args(4.0, 1.5, 3.5, 0.75), 11.9489908441222398),
        ],
    )
    def test_frozen_reference_values(self, args, expected):
        assert hyp2f1_series(args) == pytest.approx(expected, rel=1e-13)
        assert hyp2f1_euler(args) == pytest.approx(expected, rel=1e-9)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(20260810)
        for _ in range(50):
            a = rng.uniform(0.5, 6.0)
            b = rng.uniform(0.6, 3.5)
            c = b + rng.uniform(0.6, 3.0)
            z = rng.uniform(0.0, 0.9)
            ref = float(scipy.special.hyp2f1(a, b, c, z))
            args = Hyp2F1Args(a, b, c, z)
            assert hyp2f1_series(args) == pytest.approx(ref, rel=1e-10)
            assert hyp2f1_euler(args) == pytest.approx(ref, rel=1e-9)

    def test_euler_series_cross_validation(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            b = rng.uniform(0.3, 4.0)
            args = Hyp2F1Args(
                rng.uniform(0.5, 8.0),
                b,
                b + rng.uniform(0.3, 3.0),
                rng.uniform(0.0, 0.9),
            )
            s = hyp2f1_series(args)
            e = hyp2f1_euler(args)
            assert abs(e - s) / abs(s) <= 1e-9

    def test_terminating_series_negative_a(self):
        # a = -2 terminates the series: 1 - z + z^2/3 at (b, c) = (1, 2)
        args = Hyp2F1Args(-2.0, 1.0, 2.0, 0.5)
        expected = 1.0 - 0.5 + 0.25 / 3.0
        assert hyp2f1_series(args) == pytest.approx(expected, rel=1e-14)
        assert hyp2f1_euler(args) == pytest.approx(expected, rel=1e-11)

    def test_series_z_cap(self):
        with pytest.raises(DomainError):
            hyp2f1_series(Hyp2F1Args(1.0, 1.0, 2.0, 1.0 - 1e-7))

    def test_series_non_convergence(self):
        # a + b - c = 7.5 makes terms grow like n^6.5 z^n; at z = 1 - 1e-6 the
        # partial sums cannot settle within the term budget.
        with pytest.raises(ConvergenceError):
            hyp2f1_series(Hyp2F1Args(8.0, 3.5, 4.0, 1.0 - 1e-6))

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.5, max_value=8.0),
        b=st.floats(min_value=0.6, max_value=4.0),
        extra=st.floats(min_value=0.6, max_value=3.0),
    )
    def test_z_zero_property(self, a, b, extra):
        args = Hyp2F1Args(a, b, b + extra, 0.0)
        assert abs(hyp2f1_series(args) - 1.0) <= 1e-12
        assert abs(hyp2f1_euler(args) - 1.0) <= 1e-12

    def test_euler_integral_monotone_in_z(self):
        # the integrand (1-zt)^(-a) increases pointwise in z for a > 0
        args_base = dict(a_param=2.5, b_param=1.5, c_param=3.0)
        ladder = [euler_integral(Hyp2F1Args(**args_base, z=z)) for z in (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)]
        assert all(x <= y for x, y in zip(ladder, ladder[1:]))
