"""Property tests of the spectral-flow count on synthetic eigenvalue ladders,
and of its block form against the per-step rule (``sweep_oracles``).

A ladder ``lam_j(t) = lam_j + v t`` has spacings of at least 1 and is
windowed to the ``k`` values nearest zero.  Each step moves every ``|lam|``
order statistic by at most ``delta = |v| dt``.  The levels up to the smaller
window radius ``R >= 1/2`` are at most ``2k + 1`` points, so the cut's
clearance is at least ``1 / (8k)``.  Sampling with ``delta < 1 / (8k)``
therefore keeps every margin below 1, and the count is exact.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracles
from fredlab import flow
from fredlab.errors import InvalidConfig, SamplingTooCoarse
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


def outcome(count, windows):
    """The count, or the type and message of what it raised."""
    try:
        return count(windows)
    except (InvalidConfig, SamplingTooCoarse) as exc:
        return type(exc), str(exc)


#: Windows that are not nonempty 1-D arrays of finite values.
MALFORMED = [
    np.array([]),
    np.eye(2),
    np.array([-1.0, np.nan, 2.0]),
    np.array([np.inf, 0.5]),
    np.array([-np.inf]),
]


@st.composite
def rough_paths(draw):
    """Sampled ladders made ragged, with far values, value jumps and
    malformed windows at drawn positions."""
    windows, _, _ = draw(sampled_ladders())
    windows = list(windows)
    for j in draw(st.lists(st.integers(0, len(windows) - 1), max_size=6)):
        w = windows[j]
        kind = draw(st.sampled_from(["drop", "far", "jump", "malformed"]))
        if kind == "drop" and w.size > 1:
            windows[j] = w[np.argsort(np.abs(w))[:-1]]
        elif kind == "far":
            far = draw(st.sampled_from([-1.0, 1.0])) * (1.0 + float(np.max(np.abs(w))))
            windows[j] = np.sort(np.append(w, far))
        elif kind == "jump":
            windows[j] = w + draw(st.floats(0.1, 2.0))
        elif kind == "malformed":
            windows[j] = draw(st.sampled_from(MALFORMED))
    return windows


@settings(max_examples=150)
@given(windows=rough_paths(), chunk=st.sampled_from([1, 2, 3, 5, 256]))
def test_block_count_is_the_per_step_rule(windows, chunk):
    # the same count, or the same exception from the same step, at any
    # chunk size: the failure may sit at, before or past a block boundary
    want = outcome(sweep_oracles.spectral_flow, windows)
    with mock.patch.object(flow, "_CHUNK", chunk):
        assert outcome(spectral_flow, windows) == want
        assert outcome(spectral_flow, iter(windows)) == want


def long_path(count):
    """``count`` windows of the ladder ``s + k pi`` over one loop: flow +2."""
    s = np.linspace(0.0, 2.0 * np.pi, count)
    values = s[:, None] + np.pi * np.arange(-3, 3)
    return [np.sort(v[np.argsort(np.abs(v))[:5]]) for v in values]


@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
@pytest.mark.parametrize("failure", ["coarse", "malformed"])
def test_failure_at_a_block_boundary_names_its_step(offset, failure):
    # with blocks of 4 new windows, step 3 joins the first block's last
    # window to the second block's first; the failure sits around it
    windows = long_path(64)
    j = 4 + offset
    windows[j] = windows[j] + 1.5 if failure == "coarse" else np.array([np.nan])
    want = outcome(sweep_oracles.spectral_flow, windows)
    assert want[0] is (SamplingTooCoarse if failure == "coarse" else InvalidConfig)
    # the first step that reads window j fails, and says which it is
    assert want[1].startswith(f"step {j - 1}: ")
    with mock.patch.object(flow, "_CHUNK", 4):
        assert outcome(spectral_flow, iter(windows)) == want


def test_a_sweep_is_read_in_bounded_blocks(monkeypatch):
    # a 512-window sweep takes at most ceil(512 / chunk) + 1 blocks, none of
    # more than chunk + 1 windows, however the windows arrive
    blocks, real = [], flow._phillips_block
    monkeypatch.setattr(
        flow, "_phillips_block", lambda start, w: blocks.append(len(w)) or real(start, w)
    )
    assert spectral_flow(iter(long_path(512))) == 2
    assert len(blocks) <= math.ceil(512 / flow._CHUNK) + 1
    assert max(blocks) <= flow._CHUNK + 1
