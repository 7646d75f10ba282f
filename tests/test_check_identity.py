"""Bit identity of the grid check's arithmetic: ``functions._geomspace``
against ``np.geomspace`` at the installed numpy, and the reduced canonical
check against a copy of its body as it was written with ``np.geomspace``,
``harmonic_combine``'s endpoint search and the witness read through
``np.unravel_index``."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hhkit import functions
from hhkit.functions import CHECK_SLACK, harmonic_combine

_SLACK_SCALE = 64.0 * np.finfo(float).eps


def _ulps_above(lo, k):
    hi = lo
    for _ in range(k):
        hi = math.nextafter(hi, math.inf)
    return hi


@st.composite
def _windows(draw):
    """0 < lo < hi within the reduced path's range: ratios a few ulps above 1
    or up to exp(_LOG_RANGE)."""
    lo = math.exp(draw(st.floats(-functions._LOG_RANGE, functions._LOG_RANGE)))
    if draw(st.booleans()):
        return lo, _ulps_above(lo, draw(st.integers(1, 8)))
    span = draw(st.one_of(st.floats(1e-12, 1.0), st.floats(1.0, functions._LOG_RANGE),
                          st.floats(0.99 * functions._LOG_RANGE, functions._LOG_RANGE)))
    hi = lo * math.exp(span)
    return (lo, hi) if lo < hi < math.inf else (lo, _ulps_above(lo, 1))


@settings(max_examples=600, deadline=None)
@given(window=_windows(), n=st.integers(8, 128))
def test_geomspace_is_numpys_bit_for_bit(window, n):
    lo, hi = window
    got = functions._geomspace(lo, hi, n)
    ref = np.geomspace(lo, hi, n)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _reference_reduced_rows(e, sign, s, m, ratio, grid, combiner):
    """``functions._reduced_rows`` as written before its row stage was made
    lean, with its helpers inlined: every float it returns is pinned."""
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid + 1), [0.5]]))
    i, j = np.divmod(np.arange(grid * grid), grid)
    edge = (i == 0) | (i == grid - 1) | (j == 0) | (j == grid - 1)
    xs = np.geomspace(1.0, ratio, grid)
    x, y, t = xs[i[edge], None], xs[j[edge], None], ts[None, :]
    if combiner is harmonic_combine:
        pts = m * x * y / (m * t * y + (1.0 - t) * x)
        tk = np.reshape(t, -1)
        for hit, value in ((tk == 1.0, x * 1.0), (tk == 0.0, m * y)):
            if hit.any():
                pts[..., hit] = value[..., hit] if np.ndim(value) and np.shape(value)[-1] > 1 else value
    else:
        pts = t * x + m * (1.0 - t) * y
    fx, fy, fpts = (sign * v**e for v in (x, y, pts))
    lhs_w = t**s * fx
    rhs_w = m * (1.0 - t) ** s * fy
    shape = np.broadcast_shapes(np.shape(fpts), lhs_w.shape, rhs_w.shape)
    total, margin = np.empty((2,) + shape)
    np.add(lhs_w, rhs_w, out=total)
    np.subtract(fpts, total, out=margin)
    if sign > 0.0:
        total += fpts
    else:
        np.add(np.abs(lhs_w), np.abs(rhs_w), out=total)
        total += np.abs(fpts)
    beyond = ~(margin <= 0.5 * _SLACK_SCALE * total)
    peak = float(np.max(margin, where=beyond, initial=-np.inf))
    np.multiply(_SLACK_SCALE, total, out=total)
    np.maximum(CHECK_SLACK, total, out=total)
    excess = np.subtract(margin, total, out=total)
    index = np.unravel_index(int(np.argmax(excess)), shape)
    witness = tuple(float(np.broadcast_to(v, shape)[index]) for v in (x, y, t))
    return (peak, float(margin[index]), *witness)


_E = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 4.0))
_S = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
_M = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@settings(max_examples=400, deadline=None)
@given(e=_E, sign=st.sampled_from([1.0, -1.0]), s=_S, m=_M, ratio=st.floats(1.0 + 1e-9, 50.0),
       grid=st.sampled_from([8, 24, 48, 64]), harmonic=st.booleans())
def test_reduced_check_is_the_reference_bit_for_bit(e, sign, s, m, ratio, grid, harmonic):
    combiner = harmonic_combine if harmonic else functions._linear_combine
    got = functions._reduced_rows.__wrapped__(e, sign, s, m, ratio, grid, combiner)
    ref = _reference_reduced_rows(e, sign, s, m, ratio, grid, combiner)
    assert np.array(got).tobytes() == np.array(ref).tobytes(), (got, ref)
