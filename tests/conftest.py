"""The value caches the tests empty, the fixture that empties them, and the
kernel integrand written out in its log variable."""

import math

import numpy as np
import pytest

from hhkit import bounds, quadrature

# Every cache a kernel or a coefficient set is kept in.
VALUE_CACHES = (quadrature._kernel_K_cached,
                *(getattr(bounds, row.builder) for row in bounds.PRINTED_SETS.values()))


def clear_value_caches() -> None:
    """Empty every cache a mean, a kernel, a coefficient set or a
    certification is kept in, so that each run integrates what it looks up."""
    for cache in VALUE_CACHES:
        cache.cache_clear()
    bounds.clear_certification_cache()


@pytest.fixture
def cold():
    """Empty value caches for the test, emptied again after it."""
    clear_value_caches()
    yield
    clear_value_caches()


# The kernel weights of t, 1 - t and the distance n of a node to the end of
# its half (t on the left, 1 - t on the right), so |1 - 2t| = |1 - 2n|.
_LOG_WEIGHTS = {
    "W1": lambda t, u, n, s: np.abs(1.0 - 2.0 * n) * t**s,
    "W2": lambda t, u, n, s: np.abs(1.0 - 2.0 * n) * u**s,
    "N1": lambda t, u, n, s: t**s,
    "N2": lambda t, u, n, s: u**s,
}


def log_variable_kernel(weight, s, r, p, q):
    """``int_0^1 w(t) (t q + (1 - t) p)^(-2r) dt`` written out in its log
    variable y = p R^v, R = q / p: the integrand over x in [-1, 1] (split at
    0) and the factor its integral is taken times.  x >= 0 maps to
    v = v* x^4, x < 0 to v = 1 - (1 - v*) x^4, with v* the t = 1/2 kink;
    the integrand is scaled by the smaller end a of the interval, where it
    peaks."""
    wfn = _LOG_WEIGHTS[weight]
    a = min(p, q)
    ratio = q / p
    log_ratio = math.log(ratio)
    span = math.expm1(log_ratio)
    v = math.log1p(0.5 * (ratio - 1.0)) / log_ratio
    e = 1.0 - 2.0 * r

    def integrand(x):
        right = x < 0.0
        x2 = x * x
        d = np.where(right, (v - 1.0) * log_ratio, v * log_ratio) * (x2 * x2)
        n = np.expm1(d) * np.where(right, -ratio / span, 1.0 / span)
        t, u = np.where(right, 1.0 - n, n), np.where(right, n, 1.0 - n)
        jacobian = np.where(right, 4.0 * (1.0 - v) * math.exp(e * math.log(q / a)),
                            4.0 * v * math.exp(e * math.log(p / a)))
        return jacobian * x2 * np.abs(x) * wfn(t, u, n, s) * np.exp(e * d)

    return integrand, a ** (-2.0 * r) * (a / p) * (log_ratio / span)
