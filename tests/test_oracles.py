"""Third oracle: 30-digit mpmath values for the kernel integrals, 2F1 and
both sides of the Lemma identity.

The package's own checks compare quadrature against closed forms and the 2F1
Euler integral against its power series; both sides share double-precision
arithmetic.  mpmath's tanh-sinh quadrature and hypergeometric series at 30
digits share none of it, so agreement here bounds the true error of the
contractual paths.
"""

import json
import random

import pytest

from hhkit import bounds
from hhkit.bounds import Interval, _lemma_sides, _substituted_value
from hhkit.cli import main
from hhkit.errors import ToleranceNotMetError
from hhkit.functions import FunctionSpec
from hhkit.harness import check_reductions, default_sweep_config, run_sweep
from hhkit.quadrature import KERNEL_WEIGHTS, kernel_K
from hhkit.specfun import Hyp2F1Args, hyp2f1_euler

from conftest import clear_value_caches

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


def _mp_kernel(weight, s, r, a, b):
    """The kernel at 30 digits: tanh-sinh quadrature in t, with breakpoints
    at the kink and at multiples of a / (b - a), where the mass of
    (t b + (1 - t) a)^(-2r) lies once b/a is large."""
    wfn = _MP_WEIGHTS[weight]
    a, b, s, r = mp.mpf(a), mp.mpf(b), mp.mpf(s), mp.mpf(r)
    scale = a / (b - a)
    points = sorted({mp.mpf(0), mp.mpf(0.5), mp.mpf(1), *(scale * 10**k for k in range(-3, 4) if scale * 10**k < 0.5)})
    return mp.quad(lambda t: wfn(t, s) * (t * b + (1 - t) * a) ** (-2 * r), points)


def test_ii4_at_ratio_1e5_reads_satisfied(capsys):
    # At b/a = 1e5 the mass of the N1/N2 kernels lies in t < 1e-4; the
    # kernels now see it, so the rhs is mpmath's and the bound holds.
    code = main(["verify", "--theorem", "II4", "--family", "pow", "--coeff", "1", "--exp", "2", "--shift", "0",
                 "--s", "0.5", "--m", "1", "--q", "2", "--a", "1", "--b", "1e5", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["satisfied"] is True
    # the Holder rhs, with N1 and N2 as Beta times 2F1 at z = -(b - a)/a
    a, b, s, q = mp.mpf(1), mp.mpf(10) ** 5, mp.mpf("0.5"), mp.mpf(2)
    z = (a - b) / a
    n1 = a ** (-2 * q) * mp.beta(s + 1, 1) * mp.hyp2f1(2 * q, s + 1, s + 2, z)
    n2 = a ** (-2 * q) * mp.beta(1, s + 1) * mp.hyp2f1(2 * q, 1, s + 2, z)
    p = q / (q - 1)
    rhs = a * b * (b - a) / 2 * (1 / (p + 1)) ** (1 / p) * (n1 * (2 * a) ** q + n2 * (2 * b) ** q) ** (1 / q)
    assert abs(doc["rhs"] - rhs) <= 1e-8 * rhs
    assert n1 == pytest.approx(_mp_kernel("N1", 0.5, 2.0, 1.0, 1e5), rel=1e-20)


SCAN_S = (0.0, 0.25, 0.5, 0.75, 1.0)
SCAN_R = (1.0, 1.5, 2.0, 3.0)


@pytest.mark.slow
@pytest.mark.parametrize("ratio", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e8])
def test_kernels_at_large_ratios_are_right_or_raise(ratio):
    # 80 kernels at a = 1, both ways round: each value is within 1e-9 of
    # mpmath's, or its integral raises ToleranceNotMetError; never a wrong
    # value.  (The absolute floor of DEFAULT_QUADSPEC, 1e-11, is what is
    # left of the error from ratio 1e5 on.)
    worst = 0.0
    for weight in KERNEL_WEIGHTS:
        for s in SCAN_S:
            for r in SCAN_R:
                ref = _mp_kernel(weight, s, r, 1.0, ratio)
                for route in (kernel_K, _substituted_value):
                    try:
                        value = route(weight, s, r, 1.0, ratio)
                    except ToleranceNotMetError:
                        continue
                    worst = max(worst, float(abs(value - ref) / ref))
    assert worst <= 1e-9


def _served_kernels(monkeypatch, compute):
    """Every kernel key (``K``, or ``S`` for the substituted form) that the
    batches of ``compute()`` served, with its value."""
    served = {}
    serve = bounds._serve

    def record(planned):
        values = serve(planned)
        served.update((key, value) for key, value in values.items() if key[0] in ("K", "S"))
        return values

    clear_value_caches()
    monkeypatch.setattr(bounds, "_serve", record)
    try:
        compute()
    finally:
        monkeypatch.undo()
        clear_value_caches()
    return served


def _audit(served):
    """The worst relative error of the served kernels against mpmath."""
    worst = 0.0
    for (_, weight, s, r, a, b), value in served.items():
        ref = _mp_kernel(weight, s, r, a, b)
        worst = max(worst, float(abs(value - ref) / ref))
    return worst


@pytest.mark.slow
def test_the_default_sweeps_batch_kernels_against_mpmath(monkeypatch):
    served = _served_kernels(monkeypatch, lambda: run_sweep(default_sweep_config()))
    assert len(served) == 513
    assert _audit(served) <= 1e-10


@pytest.mark.slow
def test_adjudicate_grid_batch_kernels_against_mpmath(monkeypatch):
    # every sixth of the 25 intervals of the benchmark's adjudicate-grid
    # workload at seed 1, drawn as that workload draws them: each interval's
    # batch holds 63 kernels and 14 substituted ones
    rng = random.Random("adjudicate-grid:1")
    intervals = []
    for _ in range(25):
        a = rng.uniform(0.5, 3.0)
        intervals.append(Interval(a, a * rng.uniform(1.1, 10.0)))
    sample = intervals[::6]
    served = _served_kernels(monkeypatch, lambda: [check_reductions(iv) for iv in sample])
    assert len(served) == 77 * len(sample)
    assert _audit(served) <= 1e-10
