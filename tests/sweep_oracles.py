"""Per-step and per-angle references for the sweep's block bookkeeping.

:func:`fredlab.flow.spectral_flow` counts a block of Phillips steps with array
operations, and :func:`fredlab.floer._certify` matches a block of angles to
the listed cuts at once.  The loops here do the same one step or one angle
at a time; the tests compare the two.  No report reads them, so they live
beside the tests and are not collected as tests.
"""

import itertools
import math

import numpy as np

from fredlab import floer
from fredlab.errors import InvalidConfig, NoConvergence, SamplingTooCoarse
from fredlab.flow import _ZERO_TOL


def spectral_flow(windows):
    """The Phillips count, one :func:`phillips_step` per pair of windows."""
    steps = itertools.pairwise(map(np.asarray, windows))
    return sum(phillips_step(k, p, q) for k, (p, q) in enumerate(steps))


def phillips_step(k, prev, nxt):
    """``N(nxt) - N(prev)`` at the cut of step ``k`` (see :func:`spectral_flow`)."""
    for w in (prev, nxt):
        if not (w.ndim == 1 and w.size and w.dtype.kind in "iuf" and np.all(np.isfinite(w))):
            raise InvalidConfig(
                f"step {k}: spectral flow needs nonempty 1-D eigenvalue windows of finite "
                f"values, got {w!r}"
            )
    mag0, mag1 = np.sort(np.abs(prev)), np.sort(np.abs(nxt))
    radius = min(mag0[-1], mag1[-1])
    # 0 and the smaller radius are both levels, so one gap at least
    levels = np.sort(np.concatenate([[0.0], mag0[mag0 <= radius], mag1[mag1 <= radius]]))
    i = int(np.argmax(np.diff(levels)))
    cut = 0.5 * (levels[i] + levels[i + 1])
    clearance = cut - levels[i]
    below, below_next = np.searchsorted(mag0, cut), np.searchsorted(mag1, cut)
    if below != below_next:
        raise SamplingTooCoarse(
            f"step {k}: {below} vs {below_next} values below the cut {cut:.3e}"
        )
    ranks = slice(max(below - 1, 0), below + 1)  # the |lam| just below and above the cut
    motion = np.max(np.abs(mag1[ranks] - mag0[ranks]))
    if motion >= clearance:
        margin = motion / clearance if clearance else math.inf
        raise SamplingTooCoarse(
            f"step {k}: margin {margin:.3g}: motion {motion:.3e}, clearance {clearance:.3e}"
        )

    def count(w):
        return int(np.count_nonzero((w >= -_ZERO_TOL) & (w < cut)))

    return count(nxt) - count(prev)


def certify(interior, angles, cols, diag, mus, sizes, cuts):
    """:func:`fredlab.floer._certify`, one angle at a time: each angle matches
    the list of cuts as it stands after the angles before it, and the first
    that fails raises."""
    lo, hi = mus[:, :-1], mus[:, 1:]
    width, t = hi - lo, np.arange(1, mus.shape[1])
    gap_open = (t >= sizes[:, None]) & (
        width > floer._DEGENERACY_RTOL * np.maximum(1.0, mus[:, -1:])
    )
    for a in np.flatnonzero(sizes < mus.shape[1]):
        failed = f"no certified window at angle {float(angles[a])!r}"
        # inside[c, t - 1]: listed cut c lies in the middle half of open gap t
        c = np.array([entry[0] for entry in cuts])[:, None]
        inside = gap_open[a] & (lo[a] + 0.25 * width[a] <= c) & (c <= hi[a] - 0.25 * width[a])
        (serving,) = np.nonzero(inside.any(axis=1))
        if serving.size:
            cut, neg, g = cuts[serving[-1]]
            expected = 1 + np.argmax(inside[serving[-1]])
        else:
            cut, expected = 0.5 * (mus[a, sizes[a] - 1] + mus[a, sizes[a]]), sizes[a]
            try:
                neg, g = floer._interior_inertia(interior, cut)
            except NoConvergence as exc:
                raise NoConvergence(f"{failed}: {exc}") from exc
            cuts.append((cut, neg, g))
        b = cols[2, a] - cut * cols[1, a]
        sigma = diag[2, a] - cut * diag[1, a] - b @ g @ b
        if not (np.isfinite(sigma) and sigma != 0.0):
            raise NoConvergence(f"{failed}: inertia count at {cut:.6g}: Schur form {sigma}")
        if (count := neg + int(sigma < 0.0)) != expected:
            raise NoConvergence(
                f"{failed}: inertia count {count} below the cut: {count - expected} missed"
            )
