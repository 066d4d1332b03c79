"""The dense reference for the windows of :meth:`fredlab.floer.FloerPencil.spectra`.

The spectra compute each window from one interior set-up, bordered per angle,
and certify it by an inertia count.  :func:`floer_spectrum` solves the whole
squared pencil of one operator with LAPACK instead, so it shares neither the
secular model nor the certificate.  It forms ``n x n`` arrays, so no report
reads it: it lives beside the tests and is not collected as a test.
"""

import scipy.linalg

from fredlab.floer import _cut, _nearest, _request, _window_size


def floer_spectrum(op, k_window):
    """The ``k_window`` eigenvalues nearest zero, ascending, by a dense solve.

    Solves the squared pencil ``K2 x = mu M x``; the smallest ``mu`` are the
    squares of the wanted eigenvalues and carry no contribution from the
    sawtooth branch of the first-order stencil.  One Rayleigh-Ritz step of
    the first-order form on their vectors, cut at the widest gap beyond the
    window (:func:`_cut`), gives the signed values and keeps ``+-lam`` pairs
    together (:func:`_nearest`).  LAPACK selects the subset by index with
    Sturm counts, so it is certified to be the smallest; a degenerate slack
    widens it.
    """
    k_window = _window_size(k_window, op.dim)
    k2, mass = op.square_stiffness.toarray(), op.mass.toarray()
    n_req = _request(k_window, op.dim)
    while True:
        # DiscretizedOperator guarantees finite entries
        mus, vecs = scipy.linalg.eigh(
            k2, mass, subset_by_index=(0, n_req - 1), check_finite=False
        )
        (size,) = _cut(mus[None], k_window, op.dim)
        if size:
            break
        n_req = min(2 * n_req, op.dim)
    v = vecs[:, :size]
    ritz = scipy.linalg.eigh(v.T @ (op.stiffness @ v), v.T @ (op.mass @ v), eigvals_only=True)
    return _nearest(ritz[None], k_window)[0]
