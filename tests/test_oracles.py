"""Third oracle: 30-digit mpmath values for the kernel integrals, 2F1 and
both sides of the Lemma identity.

The package's own checks compare quadrature against closed forms and the 2F1
Euler integral against its power series; both sides share double-precision
arithmetic.  mpmath's tanh-sinh quadrature and hypergeometric series at 30
digits share none of it, so agreement here bounds the true error of the
contractual paths.
"""

import pytest

from hhkit.bounds import Interval, _lemma_sides
from hhkit.functions import FunctionSpec
from hhkit.quadrature import KERNEL_WEIGHTS, kernel_K
from hhkit.specfun import Hyp2F1Args, hyp2f1_euler

mp = pytest.importorskip("mpmath")

_MP_WEIGHTS = {
    "W1": lambda t, s: abs(1 - 2 * t) * t**s,
    "W2": lambda t, s: abs(1 - 2 * t) * (1 - t) ** s,
    "N1": lambda t, s: t**s,
    "N2": lambda t, s: (1 - t) ** s,
}


@pytest.fixture(autouse=True)
def thirty_digits():
    with mp.workdps(30):
        yield


@pytest.mark.parametrize("weight", KERNEL_WEIGHTS)
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("r", [1.0, 2.5])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 5.0)])  # ratio 2 and 10
def test_kernel_K_against_mpmath_quad(weight, s, r, a, b):
    wfn = _MP_WEIGHTS[weight]
    s_mp, r_mp = mp.mpf(s), mp.mpf(r)
    ref = mp.quad(lambda t: wfn(t, s_mp) * (t * b + (1 - t) * a) ** (-2 * r_mp), [0, 0.5, 1])
    # kernel_K certifies rel_tol 1e-10 (DEFAULT_QUADSPEC)
    assert abs(kernel_K(weight, s, r, a, b) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("a", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("b", [0.1, 0.5, 2.0])  # b = 0.1: left substitution power 15
@pytest.mark.parametrize("cb", [0.05, 1.0, 2.5])  # c - b = 0.05: right power 30
@pytest.mark.parametrize("z", [0.0, 0.5, 0.9])  # 0.9 = 1 - a/b at interval ratio 10
def test_hyp2f1_euler_against_mpmath(a, b, cb, z):
    ref = mp.hyp2f1(a, b, b + cb, z)
    # the Euler integral is certified to rel 1e-12; the Lanczos Beta adds ~1e-15
    assert abs(hyp2f1_euler(Hyp2F1Args(a, b, b + cb, z)) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 5.0)])
def test_lemma_sides_against_mpmath_quad(p, a, b):
    lhs, rhs = _lemma_sides(FunctionSpec.power(1.0, p, 0.0, a, b), Interval(a, b))
    a_mp, b_mp, p_mp = mp.mpf(a), mp.mpf(b), mp.mpf(p)
    mean = a_mp * b_mp / (b_mp - a_mp) * mp.quad(lambda x: x ** (p_mp - 2), [a_mp, b_mp])
    ref_lhs = (a_mp**p_mp + b_mp**p_mp) / 2 - mean

    def integrand(t):
        denom = t * b_mp + (1 - t) * a_mp
        return (1 - 2 * t) / denom**2 * p_mp * (a_mp * b_mp / denom) ** (p_mp - 1)

    ref_rhs = a_mp * b_mp * (b_mp - a_mp) / 2 * mp.quad(integrand, [0, 0.5, 1])
    # the identity itself, with the kernel denominator read as squared
    assert abs(ref_lhs - ref_rhs) <= mp.mpf("1e-25") * abs(ref_lhs)
    # TIGHT_QUADSPEC certifies rel 5e-14 per integral; the lhs also cancels
    # the trapezoid term against the mean
    assert abs(lhs - ref_lhs) <= 1e-13 * (a**p + b**p + abs(mean))
    assert abs(rhs - ref_rhs) <= 1e-13 * abs(ref_rhs)
