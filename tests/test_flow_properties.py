"""Property tests of the spectral-flow count on synthetic eigenvalue ladders.

A ladder ``lam_j(t) = lam_j + v t`` has spacings of at least 1 and is
windowed to the ``k`` values nearest zero.  Each step moves every ``|lam|``
order statistic by at most ``delta = |v| dt``.  The levels up to the smaller
window radius ``R >= 1/2`` are at most ``2k + 1`` points, so the cut's
clearance is at least ``1 / (8k)``.  Sampling with ``delta < 1 / (8k)``
therefore keeps every margin below 1, and the count is exact.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fredlab import flow
from fredlab.flow import spectral_flow

#: Ladder values on each side of the one nearest zero at ``t = 0``; the window
#: (at most 6 values) travels at most 4 spacings, so it never reaches an end.
SIDE = 12


def window(values, k):
    """The ``k`` values nearest zero, ascending."""
    return np.sort(values[np.argsort(np.abs(values))[:k]])


@st.composite
def sampled_ladders(draw):
    """``(windows, start, end)``: the windows of one sampled ladder, and the
    whole ladder at its first and last sample."""
    k = draw(st.integers(2, 6))
    spacings = draw(st.lists(st.floats(1.0, 3.0), min_size=2 * SIDE, max_size=2 * SIDE))
    lams = np.concatenate([[0.0], np.cumsum(spacings)])
    lams -= lams[SIDE] + draw(st.floats(-1.0, 1.0))
    v = draw(st.floats(0.25, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    duration = draw(st.floats(0.5, 2.0))
    steps = math.ceil(8 * k * abs(v) * duration) + draw(st.integers(1, 16))
    windows = [window(lams + v * t, k) for t in np.linspace(0.0, duration, steps + 1)]
    return windows, lams, lams + v * duration


@settings(max_examples=50)
@given(ladder=sampled_ladders())
def test_flow_is_the_net_count_of_signed_zero_crossings(ladder):
    windows, start, end = ladder
    # each value moves monotonically, so it crosses zero at most once
    nonneg_start, nonneg_end = start >= -flow._ZERO_TOL, end >= -flow._ZERO_TOL
    up = int(np.count_nonzero(~nonneg_start & nonneg_end))
    down = int(np.count_nonzero(nonneg_start & ~nonneg_end))
    assert spectral_flow(windows) == up - down


@settings(max_examples=50)
@given(ladder=sampled_ladders())
def test_reversal_negates_the_flow(ladder):
    windows, _, _ = ladder
    assert spectral_flow(windows[::-1]) == -spectral_flow(windows)


@settings(max_examples=50)
@given(ladder=sampled_ladders(), where=st.floats(0.0, 1.0))
def test_flow_is_additive_at_every_cut(ladder, where):
    windows, _, _ = ladder
    total = spectral_flow(windows)
    assert sum(spectral_flow(windows[i : i + 2]) for i in range(len(windows) - 1)) == total
    cut = round(where * (len(windows) - 1))
    assert spectral_flow(windows[: cut + 1]) + spectral_flow(windows[cut:]) == total


@settings(max_examples=50)
@given(ladder=sampled_ladders(), where=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
def test_a_value_beyond_both_window_radii_changes_nothing(ladder, where, sign):
    windows, _, _ = ladder
    j = round(where * (len(windows) - 1))
    far = sign * (1.0 + max(float(np.max(np.abs(w))) for w in windows))
    padded = [*windows[:j], np.sort(np.append(windows[j], far)), *windows[j + 1 :]]
    assert spectral_flow(padded) == spectral_flow(windows)
