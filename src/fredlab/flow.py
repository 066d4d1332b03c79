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


def spectral_flow(windows):
    """Signed count of eigenvalues crossing zero along a family (Phillips).

    ``windows`` is any iterable of ascending eigenvalue arrays, such as the
    windows that :meth:`floer.FloerPencil.spectra` yields along a sweep of
    angles; it is consumed once.  A step adds
    ``N(next) - N(prev)``, where ``N`` counts the values in ``[-_ZERO_TOL, a)``,
    so a crossing counts when a value arrives at zero, not when it leaves.
    The cut ``a`` is the middle of the widest gap of ``{0}`` and the ``|lam|``
    of both windows up to the smaller window radius; half the gap is its
    clearance.  A step raises :class:`SamplingTooCoarse` when the windows hold
    different numbers of values with ``|lam| < a``, or when its margin reaches
    1: the larger motion of the rank-matched ``|lam|`` just below and just
    above ``a``, over the clearance.  A window that is not a nonempty 1-D
    array of finite real values raises :class:`InvalidConfig`.  The count is
    a Python ``int`` for any number of windows, 0 for fewer than two.
    """
    steps = itertools.pairwise(map(np.asarray, windows))
    return sum(_phillips_step(k, p, q) for k, (p, q) in enumerate(steps))


def _phillips_step(k, prev, nxt):
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
        raise SamplingTooCoarse(f"{below} vs {below_next} values below the cut {cut:.3e}")
    ranks = slice(max(below - 1, 0), below + 1)  # the |lam| just below and above the cut
    motion = np.max(np.abs(mag1[ranks] - mag0[ranks]))
    if motion >= clearance:
        margin = motion / clearance if clearance else math.inf
        raise SamplingTooCoarse(
            f"margin {margin:.3g}: motion {motion:.3e}, clearance {clearance:.3e}"
        )

    def count(w):
        return int(np.count_nonzero((w >= -_ZERO_TOL) & (w < cut)))

    return count(nxt) - count(prev)
