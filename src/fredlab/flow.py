"""Spectral flow of a path of selfadjoint Fredholm operators as a Phillips count.

The count reads only eigenvalue windows near zero, one per member of the path,
so it needs numpy alone: experiments that count a flow load no scipy.
"""

import itertools
import math

import numpy as np

from .errors import InvalidConfig, SamplingTooCoarse

#: Below this magnitude (under the physical scale) an eigenvalue sits at zero.
_ZERO_TOL = 1e-9

#: Windows read per block; a block shares its last window with the next, so a
#: sweep holds at most ``_CHUNK + 1`` windows at a time.
_CHUNK = 256


def spectral_flow(windows):
    """Signed count of eigenvalues crossing zero along a family (Phillips).

    ``windows`` is any iterable of ascending eigenvalue arrays, such as the
    windows that :meth:`floer.FloerPencil.spectra` yields along a sweep of
    angles; it is consumed once, ``_CHUNK`` windows at a time.  A step adds
    ``N(next) - N(prev)``, where ``N`` counts the values in ``[-_ZERO_TOL, a)``,
    so a crossing counts when a value arrives at zero, not when it leaves.
    The cut ``a`` is the middle of the widest gap of ``{0}`` and the ``|lam|``
    of both windows up to the smaller window radius; half the gap is its
    clearance.  A step raises :class:`SamplingTooCoarse` when the windows hold
    different numbers of values with ``|lam| < a``, or when its margin reaches
    1: the larger motion of the rank-matched ``|lam|`` just below and just
    above ``a``, over the clearance.  A window that is not a nonempty 1-D
    array of finite real values raises :class:`InvalidConfig` in the first
    step that reads it.  The first failing step raises, with its index; an
    error from the iterable itself comes before the steps of its block.  The
    count is a Python ``int`` for any number of windows, 0 for fewer than
    two.
    """
    windows = map(np.asarray, windows)
    total, start, block = 0, 0, []
    while True:
        carried = block[-1:]
        block = carried + list(itertools.islice(windows, _CHUNK))
        total += _phillips_block(start, block)
        if len(block) - len(carried) < _CHUNK:
            return total
        start += len(block) - 1


def _phillips_block(start, windows):
    """The steps between consecutive ``windows``, the first of them step
    ``start`` (see :func:`spectral_flow`): the windows up to the first
    malformed one are counted by :func:`_phillips_steps`, which raises first."""
    if len(windows) < 2:
        return 0
    bad = next(
        (j for j, w in enumerate(windows)
         if not (w.ndim == 1 and w.size and w.dtype.kind in "iuf")),
        len(windows),
    )
    count = 0
    if bad:
        sizes = np.array([w.size for w in windows[:bad]])
        flat = np.concatenate(windows[:bad]).astype(float)
        nonfinite = np.flatnonzero(~np.isfinite(flat))
        if nonfinite.size:
            bad = int(np.searchsorted(np.cumsum(sizes), nonfinite[0], side="right"))
        if bad >= 2:
            count = _phillips_steps(start, flat[: np.sum(sizes[:bad])], sizes[:bad])
    if bad < len(windows):
        raise InvalidConfig(
            f"step {start + max(bad - 1, 0)}: spectral flow needs nonempty 1-D eigenvalue "
            f"windows of finite values, got {windows[bad]!r}"
        )
    return count


def _phillips_steps(start, flat, sizes):
    """``sum N(next) - N(prev)`` over the steps between the windows that
    ``flat`` holds back to back, ``sizes`` values each, as array operations
    over the steps, the first of them step ``start``; raises the first
    step's :class:`SamplingTooCoarse`, naming its index.

    The windows are padded to one length with ``+inf``, which no count reads,
    and the levels past a step's radius become the radius: zero gaps after
    the widest, so the first widest gap is the one of the levels alone.
    """
    n = sizes.size
    values = np.full((n, sizes.max()), np.inf)
    values[np.arange(values.shape[1]) < sizes[:, None]] = flat
    mags = np.sort(np.abs(values), axis=1)
    radius = mags[np.arange(n), sizes - 1]
    radius = np.minimum(radius[:-1], radius[1:])
    levels = np.concatenate([np.zeros((n - 1, 1)), mags[:-1], mags[1:]], axis=1)
    levels = np.sort(np.minimum(levels, radius[:, None]), axis=1)
    steps = np.arange(n - 1)
    i = np.argmax(np.diff(levels, axis=1), axis=1)
    cut = 0.5 * (levels[steps, i] + levels[steps, i + 1])
    clearance = cut - levels[steps, i]
    below = np.count_nonzero(mags[:-1] < cut[:, None], axis=1)
    below_next = np.count_nonzero(mags[1:] < cut[:, None], axis=1)
    # the |lam| just below and just above the cut, matched by rank; a cut
    # that overflowed to inf has none above it
    top = np.minimum(sizes[:-1], sizes[1:]) - 1
    ranks = np.stack([np.maximum(below - 1, 0), np.minimum(below, top)], axis=1)
    moved = np.take_along_axis(mags[1:], ranks, 1) - np.take_along_axis(mags[:-1], ranks, 1)
    motion = np.max(np.abs(moved), axis=1)
    coarse = np.flatnonzero((below != below_next) | (motion >= clearance))
    if coarse.size:
        k = coarse[0]
        if below[k] != below_next[k]:
            raise SamplingTooCoarse(
                f"step {start + k}: {below[k]} vs {below_next[k]} values below the cut "
                f"{cut[k]:.3e}"
            )
        margin = motion[k] / clearance[k] if clearance[k] else math.inf
        raise SamplingTooCoarse(
            f"step {start + k}: margin {margin:.3g}: motion {motion[k]:.3e}, "
            f"clearance {clearance[k]:.3e}"
        )
    nonneg = values >= -_ZERO_TOL
    counted = nonneg[:-1] & (values[:-1] < cut[:, None])
    counted_next = nonneg[1:] & (values[1:] < cut[:, None])
    return int(np.count_nonzero(counted_next) - np.count_nonzero(counted))
