import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhkit import bounds
from hhkit.bounds import (
    TOL_ACCEPT,
    Interval,
    coeff_C,
    coeff_lambda,
    coeff_mu,
    coeff_nu,
    coeff_rho,
    kernel_oracle_identities,
    lemma_residual,
    verify_bound,
    verify_hh_double,
    verify_II1,
)
from hhkit.errors import CertificationError, DomainError, ParameterError
from hhkit.functions import FunctionSpec, SMParams, eval_fn
from hhkit.quadrature import DEFAULT_QUADSPEC, harmonic_mean_integral, integrate, kernel_K
from hhkit.specfun import Hyp2F1Args, hyp2f1_euler

IV12 = Interval(1.0, 2.0)


def ii1_substitution_means(f: FunctionSpec, iv: Interval) -> tuple[float, float]:
    """The two kernel substitutions of the harmonic mean, int_0^1 f(ab/(tb+(1-t)a)) dt
    and int_0^1 f(ab/(ta+(1-t)b)) dt.  Both equal the harmonic mean integral."""
    a, b = iv.a, iv.b

    def sub1(t):
        return eval_fn(f, a * b / (t * b + (1.0 - t) * a))

    def sub2(t):
        return eval_fn(f, a * b / (t * a + (1.0 - t) * b))

    return integrate(sub1, 0.0, 1.0, DEFAULT_QUADSPEC), integrate(sub2, 0.0, 1.0, DEFAULT_QUADSPEC)


def power(coeff=1.0, exponent=2.0, shift=0.0, lo=0.05, hi=50.0):
    return FunctionSpec.power(coeff, exponent, shift, lo, hi)


class TestInterval:
    def test_z(self):
        assert IV12.z == pytest.approx(0.5, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(1.0, float("inf")), (float("nan"), 2.0), (1.0, float("nan")),
                                      (float("inf"), float("inf"))])
    def test_endpoints_must_be_finite(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            Interval(a, b)


class TestCoeffLambda:
    def test_lambda1_printed_matches_oracle(self):
        cs = coeff_lambda(IV12)
        # independent closed form: 1/(ab) - 2/(b-a)^2 log((a+b)^2/(4ab))
        expected = 0.5 - 2.0 * math.log(9.0 / 8.0)
        assert cs.values[0] == pytest.approx(expected, abs=1e-14)
        assert cs.oracle_values[0] == pytest.approx(expected, abs=1e-11)

    def test_lambda2_printed_matches_oracle(self):
        cs = coeff_lambda(IV12)
        expected = -0.5 + 5.0 * math.log(9.0 / 8.0)
        assert cs.values[1] == pytest.approx(expected, abs=1e-14)
        assert abs(cs.values[1] - cs.oracle_values[1]) <= 1e-10

    def test_lambda3_printed_deviates_from_oracle(self):
        # the printed lambda3 does not satisfy lambda2 + lambda3 = lambda1;
        # the defining integral gives 1/(a(b-a)) - (a+3b)/(b-a)^3 log(...) instead
        cs = coeff_lambda(IV12)
        true_lambda3 = 1.0 - 7.0 * math.log(9.0 / 8.0)
        assert cs.oracle_values[2] == pytest.approx(true_lambda3, abs=1e-11)
        assert abs(cs.values[2] - cs.oracle_values[2]) > 1.0

    def test_oracle_additivity(self):
        # t + (1-t) = 1: the two weighted kernels sum to the plain one
        for iv in (IV12, Interval(0.7, 5.3), Interval(2.0, 3.0)):
            cs = coeff_lambda(iv)
            assert cs.oracle_values[1] + cs.oracle_values[2] == pytest.approx(cs.oracle_values[0], rel=1e-9)


class TestCoeffMu:
    def test_elementary_forms_match_oracle(self):
        for q in (1.5, 2.0, 3.0):
            for iv in (IV12, Interval(1.0, 5.0)):
                cs = coeff_mu(q, iv)
                assert abs(cs.values[0] - cs.oracle_values[0]) <= 1e-10
                assert abs(cs.values[1] - cs.oracle_values[1]) <= 1e-10

    def test_exact_rational_oracle(self):
        # int t (1+t)^-4 dt = 1/12, int (1-t)(1+t)^-4 dt = 5/24 by antiderivative
        cs = coeff_mu(2.0, IV12)
        assert cs.oracle_values[0] == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert cs.oracle_values[1] == pytest.approx(5.0 / 24.0, abs=1e-12)

    def test_hypergeometric_forms_are_swapped(self):
        # printed mu1_hyp agrees with the mu2 oracle and vice versa
        for q in (1.5, 2.0):
            cs = coeff_mu(q, IV12)
            mu1_hyp, mu2_hyp = cs.values[2], cs.values[3]
            o1, o2 = cs.oracle_values[0], cs.oracle_values[1]
            assert abs(mu1_hyp - o2) <= 1e-8 and abs(mu2_hyp - o1) <= 1e-8
            assert abs(mu1_hyp - o1) > 1e-3 and abs(mu2_hyp - o2) > 1e-3

    def test_q_one_limit_of_sum(self):
        # mu1 + mu2 -> int (tb+(1-t)a)^-2 dt = 1/(ab) as q -> 1+
        cs = coeff_mu(1.0 + 1e-9, IV12)
        assert cs.oracle_values[0] + cs.oracle_values[1] == pytest.approx(0.5, rel=1e-6)

    def test_requires_q_above_one(self):
        with pytest.raises(ParameterError):
            coeff_mu(1.0, IV12)


class TestCoeffC:
    def test_c1_printed_matches_oracle(self):
        for s in (0.25, 0.5, 1.0):
            cs = coeff_C(s, IV12)
            assert abs(cs.values[0] - cs.oracle_values[0]) <= 1e-8

    def test_s_one_oracles_reduce_to_lambda(self):
        c = coeff_C(1.0, IV12)
        lam = coeff_lambda(IV12)
        for i in range(3):
            assert c.oracle_values[i] == pytest.approx(lam.oracle_values[i], abs=1e-9)

    def test_printed_c2_matches_the_other_kernel(self):
        # printed C2 evaluates to the (1-t)^s kernel, i.e. the C3 oracle
        for s in (0.25, 0.5, 0.75, 1.0):
            cs = coeff_C(s, IV12)
            assert abs(cs.values[1] - cs.oracle_values[2]) <= 1e-8
            assert abs(cs.values[1] - cs.oracle_values[1]) > 1e-3

    def test_printed_c3_matches_neither_kernel(self):
        for s in (0.25, 0.5, 0.75):
            cs = coeff_C(s, IV12)
            assert abs(cs.values[2] - cs.oracle_values[1]) > 1e-4
            assert abs(cs.values[2] - cs.oracle_values[2]) > 1e-4

    def test_parameter_range(self):
        with pytest.raises(ParameterError):
            coeff_C(0.0, IV12)
        with pytest.raises(ParameterError):
            coeff_C(1.5, IV12)


class TestCoeffRho:
    def test_rho1_printed_matches_oracle(self):
        for s, r in ((0.0, 1.0), (0.5, 1.0), (0.5, 2.0), (1.0, 3.0), (0.25, 1.5)):
            cs = coeff_rho(s, r, IV12)
            assert abs(cs.values[0] - cs.oracle_values[0]) <= 1e-8, (s, r)

    def test_rho2_statement_matches_oracle(self):
        # the three-term statement form agrees with the defining integral; the
        # proof's cancelling form does not
        for s, r in ((0.5, 2.0), (1.0, 1.0), (0.25, 1.5)):
            cs = coeff_rho(s, r, IV12)
            assert abs(cs.values[1] - cs.oracle_values[1]) <= 1e-8
            assert abs(cs.values[2] - cs.oracle_values[2]) > 1e-3

    def test_s_zero_kernels_coincide(self):
        cs = coeff_rho(0.0, 2.0, IV12)
        assert cs.oracle_values[0] == pytest.approx(cs.oracle_values[1], rel=1e-9)

    def test_s_one_r_one_reduces_to_lambda_oracles(self):
        cs = coeff_rho(1.0, 1.0, IV12)
        lam = coeff_lambda(IV12)
        assert cs.oracle_values[0] == pytest.approx(lam.oracle_values[1], abs=1e-9)
        assert cs.oracle_values[1] == pytest.approx(lam.oracle_values[2], abs=1e-9)

    def test_frozen_oracle_values(self):
        # mpmath 30dps: W1/W2 kernels at s=1/2, r=2 on (1,2)
        cs = coeff_rho(0.5, 2.0, IV12)
        assert cs.oracle_values[0] == pytest.approx(0.068101673674573147, abs=1e-10)
        assert cs.oracle_values[1] == pytest.approx(0.148014915381232301, abs=1e-10)


class TestCoeffNu:
    def test_printed_matches_oracle(self):
        for s in (0.0, 0.25, 0.5, 1.0):
            for q in (1.5, 2.0, 3.0):
                cs = coeff_nu(s, q, IV12)
                assert cs.max_abs_dev <= 1e-8, (s, q)

    def test_s_one_equals_mu_oracles(self):
        for q in (1.5, 2.0):
            nu = coeff_nu(1.0, q, IV12)
            mu = coeff_mu(q, IV12)
            assert nu.oracle_values[0] == pytest.approx(mu.oracle_values[0], abs=1e-10)
            assert nu.oracle_values[1] == pytest.approx(mu.oracle_values[1], abs=1e-10)

    def test_s_zero_both_equal_plain_kernel(self):
        # t^0 = (1-t)^0 = 1, and int (tb+(1-t)a)^-2q dt has a closed antiderivative
        a, b, q = 1.0, 2.0, 2.0
        plain = (b ** (1 - 2 * q) - a ** (1 - 2 * q)) / ((1 - 2 * q) * (b - a))
        cs = coeff_nu(0.0, q, IV12)
        assert cs.oracle_values[0] == pytest.approx(plain, rel=1e-10)
        assert cs.oracle_values[1] == pytest.approx(plain, rel=1e-10)


class TestVerifyHHDouble:
    def test_constant_sits_at_equality(self):
        rec = verify_hh_double(FunctionSpec.affine(0.0, 3.0, 0.05, 50.0), IV12)
        assert rec.satisfied
        assert rec.margin == pytest.approx(0.0, abs=1e-10)

    def test_affine(self):
        rec = verify_hh_double(FunctionSpec.affine(1.0, 0.0, 0.05, 50.0), IV12)
        # mean = ab/(b-a) ln(b/a) = 2 ln 2; links: f(4/3) <= mean <= 1.5
        assert rec.satisfied
        mean = 2.0 * math.log(2.0)
        assert rec.margin == pytest.approx(min(mean - 4.0 / 3.0, 1.5 - mean), abs=1e-10)

    def test_square_chain_values(self):
        rec = verify_hh_double(power(), IV12)
        assert rec.satisfied
        assert rec.margin == pytest.approx(min(2.0 - 16.0 / 9.0, 2.5 - 2.0), abs=1e-10)
        assert any(d.startswith("midpoint_value=") for d in rec.diagnostics)

    def test_classical_variant(self):
        rec = verify_hh_double(power(), IV12, harmonic=False)
        # f((a+b)/2) = 2.25 <= 7/3 <= 2.5
        assert rec.theorem == "HH"
        assert rec.satisfied
        assert rec.margin == pytest.approx(min(7.0 / 3.0 - 2.25, 2.5 - 7.0 / 3.0), abs=1e-10)

    def test_uncertified_rejected(self):
        with pytest.raises(CertificationError):
            verify_hh_double(power(-1.0), IV12)


class TestVerifyII1:
    def test_square_closed_forms(self):
        rec = verify_II1(power(), SMParams(1.0, 1.0), IV12)
        assert rec.lhs == pytest.approx(2.0, abs=1e-10)
        assert rec.rhs == pytest.approx(2.5, abs=1e-14)
        assert rec.margin == pytest.approx(0.5, abs=1e-10)
        assert rec.satisfied

    def test_m_one_corollary_rhs(self):
        # rhs = (f(a) + f(b)) / (s + 1)
        for s in (0.25, 0.5, 1.0):
            rec = verify_II1(power(), SMParams(s, 1.0), IV12)
            assert rec.rhs == pytest.approx(5.0 / (s + 1.0), rel=1e-14)

    def test_constant_equality_at_s_one(self):
        f = FunctionSpec.affine(0.0, 4.2, 0.05, 50.0)
        rec = verify_II1(f, SMParams(1.0, 1.0), IV12)
        assert rec.margin == pytest.approx(0.0, abs=1e-10)
        assert rec.satisfied

    def test_m_below_one(self):
        rec = verify_II1(power(), SMParams(0.5, 0.8), IV12)
        assert rec.satisfied
        assert rec.margin > 0.0

    def test_uncertified_rejected(self):
        with pytest.raises(CertificationError):
            verify_II1(power(-1.0), SMParams(1.0, 1.0), IV12)

    def test_domain_error_when_b_over_m_escapes(self):
        f = FunctionSpec.power(1.0, 2.0, 0.0, 0.9, 2.1)
        with pytest.raises(DomainError):
            verify_II1(f, SMParams(1.0, 0.5), IV12)

    def test_substitution_typo_check(self):
        # both kernel substitutions equal the harmonic mean (the source's
        # displayed identity repeats one side; the intended two sides agree)
        f = power(1.0, 3.0)
        m1, m2 = ii1_substitution_means(f, IV12)
        hm = harmonic_mean_integral(f, 1.0, 2.0)
        assert m1 == pytest.approx(hm, rel=1e-10)
        assert m2 == pytest.approx(hm, rel=1e-10)


class TestLemmaResidual:
    def test_reciprocal_exact_cancellation(self):
        assert lemma_residual(FunctionSpec.reciprocal(0.05, 50.0), IV12) <= 1e-12

    @pytest.mark.parametrize(
        "f",
        [
            FunctionSpec.affine(1.0, 0.0, 0.05, 50.0),
            power(1.0, 2.0),
            power(1.0, 3.0),
            FunctionSpec.exponential(0.5, 0.05, 50.0),
            FunctionSpec.spiece(1.0, 1.0, 0.5, 0.5, 0.05, 50.0),
        ],
    )
    @pytest.mark.parametrize("iv", [IV12, Interval(0.8, 4.0), Interval(1.1, 9.9)])
    def test_identity_across_families(self, f, iv):
        assert lemma_residual(f, iv) <= 1e-9


class TestVerifyBound:
    @pytest.mark.parametrize("theorem", ["I1", "I2", "FS1", "FS2", "II2", "II3", "II4"])
    def test_square_satisfies_every_theorem(self, theorem):
        s = 1.0 if theorem in ("I1", "I2") else 0.5
        m = 1.0 if theorem in ("I1", "I2", "FS1", "FS2") else 0.8
        q = 2.0
        rec = verify_bound(theorem, power(), SMParams(s, m, q), IV12)
        assert rec.satisfied
        assert rec.lhs == pytest.approx(0.5, abs=1e-10)  # |2.5 - 2|
        assert rec.margin > 0.0
        assert rec.margin == pytest.approx(rec.rhs - rec.lhs, abs=1e-15)

    def test_ii2_equals_ii3_at_q_one(self):
        a = verify_bound("II2", power(), SMParams(0.5, 0.8, 1.0), IV12)
        b = verify_bound("II3", power(), SMParams(0.5, 0.8, 1.0), IV12)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-12)

    def test_ii3_m_one_reproduces_fs1(self):
        for s in (0.25, 0.5, 1.0):
            for q in (1.0, 2.0):
                a = verify_bound("II3", power(), SMParams(s, 1.0, q), IV12)
                b = verify_bound("FS1", power(), SMParams(s, 1.0, q), IV12) if s > 0 else a
                assert a.rhs == pytest.approx(b.rhs, abs=1e-9)
                assert a.lhs == pytest.approx(b.lhs, abs=1e-12)

    def test_ii4_m_one_reproduces_fs2(self):
        a = verify_bound("II4", power(), SMParams(0.5, 1.0, 2.0), IV12)
        b = verify_bound("FS2", power(), SMParams(0.5, 1.0, 2.0), IV12)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-12)

    def test_s_m_one_reductions_to_i1_i2(self):
        a = verify_bound("II3", power(), SMParams(1.0, 1.0, 2.0), IV12)
        b = verify_bound("I1", power(), SMParams(1.0, 1.0, 2.0), IV12)
        assert a.rhs == pytest.approx(b.rhs, abs=1e-12)
        c = verify_bound("II4", power(), SMParams(1.0, 1.0, 2.0), IV12)
        d = verify_bound("I2", power(), SMParams(1.0, 1.0, 2.0), IV12)
        assert c.rhs == pytest.approx(d.rhs, abs=1e-12)

    def test_ii4_positive_margin_example(self):
        rec = verify_bound("II4", power(), SMParams(1.0, 1.0, 2.0), IV12)
        assert rec.satisfied and rec.margin > 0.0

    def test_literal_ii3_exponents_flagged(self):
        rec = verify_bound("II3", power(), SMParams(0.5, 1.0, 2.0), IV12, use_printed_exponents=True)
        assert any("literal printed exponents" in d for d in rec.diagnostics)
        plain = verify_bound("II3", power(), SMParams(0.5, 1.0, 2.0), IV12)
        assert rec.rhs != pytest.approx(plain.rhs, rel=1e-6)

    def test_parameter_gates(self):
        with pytest.raises(ParameterError):
            verify_bound("II4", power(), SMParams(1.0, 1.0, 1.0), IV12)
        with pytest.raises(ParameterError):
            verify_bound("I1", power(), SMParams(0.5, 1.0, 2.0), IV12)
        with pytest.raises(ParameterError):
            verify_bound("FS1", power(), SMParams(0.5, 0.8, 2.0), IV12)
        with pytest.raises(ParameterError):
            verify_bound("XX", power(), SMParams(0.5, 1.0, 2.0), IV12)

    def test_uncertified_rejected_and_bypass(self):
        f = power(1.0, 0.5)  # |f'|^q harmonically concave
        with pytest.raises(CertificationError):
            verify_bound("II2", f, SMParams(1.0, 1.0, 1.0), IV12)
        rec = verify_bound("II2", f, SMParams(1.0, 1.0, 1.0), IV12, enforce_certification=False)
        assert any("bypassed" in d for d in rec.diagnostics)

    def test_s_zero_accepted_by_drivers(self):
        rec = verify_bound("II2", power(), SMParams(0.0, 1.0, 2.0), IV12)
        assert rec.satisfied

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(min_value=0.1, max_value=1.0),
        m=st.floats(min_value=0.5, max_value=1.0),
        q=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_margin_invariant_property(self, s, m, q):
        rec = verify_bound("II2", power(), SMParams(s, m, q), IV12, grid=16)
        assert rec.margin == rec.rhs - rec.lhs
        assert rec.satisfied == (rec.margin >= -TOL_ACCEPT)


class TestOracleIdentities:
    def test_chain_holds_on_intervals(self):
        for iv in (IV12, Interval(1.0, 5.0), Interval(2.0, 3.0)):
            for name, lhs, rhs in kernel_oracle_identities(iv):
                assert abs(lhs - rhs) <= 1e-9, (name, iv)


class TestF21Cache:
    @pytest.fixture
    def cold_f21(self):
        bounds._f21_cached.cache_clear()
        yield
        bounds._f21_cached.cache_clear()

    def test_int_and_float_arguments_share_one_entry(self, cold_f21):
        z = 0.3
        first = bounds._f21(2, 1, 3, z)
        assert bounds._f21(2.0, 1.0, 3.0, z) == first
        info = bounds._f21_cached.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
        assert first == hyp2f1_euler(Hyp2F1Args(2.0, 1.0, 3.0, z))

    def test_cache_stays_bounded(self, cold_f21, monkeypatch):
        # the bound, not the 2F1, is under test
        monkeypatch.setattr(bounds, "hyp2f1_euler", lambda args: args.z)
        for i in range(bounds.F21_CACHE_SIZE + 64):
            bounds._f21(2.0, 1.0, 3.0, i / 4096.0)
        info = bounds._f21_cached.cache_info()
        assert info.maxsize == bounds.F21_CACHE_SIZE
        assert info.currsize == bounds.F21_CACHE_SIZE


def _reference_substituted_kernel(weight, s, r, a, b, quad=DEFAULT_QUADSPEC):
    """Reference for the mirror map: the four substituted kernels with each
    weight written out in the t -> 1-t orientation."""

    def denom(t):
        return (t * a + (1.0 - t) * b) ** (-2.0 * r)

    if weight == "W1":
        fn = lambda t: np.abs(1.0 - 2.0 * t) * (1.0 - t) ** s * denom(t)
    elif weight == "W2":
        fn = lambda t: np.abs(1.0 - 2.0 * t) * t**s * denom(t)
    elif weight == "N1":
        fn = lambda t: (1.0 - t) ** s * denom(t)
    else:
        fn = lambda t: t**s * denom(t)
    use = quad.with_splits(0.5) if weight in ("W1", "W2") else quad
    return integrate(fn, 0.0, 1.0, use)


class TestSubstitutedKernel:
    def test_mirror_map_is_bit_identical_to_the_written_out_weights(self):
        rng = random.Random(20261018)
        for _ in range(300):
            weight = rng.choice(("W1", "W2", "N1", "N2"))
            s, r = rng.choice((0.0, 1.0, rng.random())), 1.0 + 2.0 * rng.random()
            a = rng.uniform(0.5, 3.0)
            b = a * rng.uniform(1.1, 10.0)
            args = (weight, s, r, a, b)
            assert bounds._substituted_kernel(*args) == _reference_substituted_kernel(*args), args

    def test_substitution_reproduces_the_kernel(self):
        for weight in ("W1", "W2", "N1", "N2"):
            assert bounds._substituted_kernel(weight, 0.5, 1.5, 1.0, 3.0) == pytest.approx(
                kernel_K(weight, 0.5, 1.5, 1.0, 3.0), rel=1e-10)
