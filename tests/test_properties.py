"""Property tests for the certified spectrum windows.

Every case ends either in a typed :class:`FredlabError` or in a window that
passes the inertia count: the squared-pencil values below a cut, counted by
an unpivoted LDL^T of the interior of ``K2 - c M`` and the sign of its
border's Schur form, are exactly the ones in the block.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fredlab import floer
from fredlab.errors import FredlabError
from fredlab.floer import Coupling, DiscretizedOperator, FloerPencil

from dense_oracle import floer_spectrum

DIM = 24


def _pair_operator(lam, eps, seed):
    # a near-degenerate +-lam pair inside a spread of simple values
    others = [0.3, -0.7, 1.9, -2.6, 3.4, -4.1] + list(5.0 + 0.8 * np.arange(DIM - 8))
    lams = np.array([lam, -lam - eps] + others)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((DIM, DIM)))
    k = q @ np.diag(lams) @ q.T
    k = 0.5 * (k + k.T)
    k2 = k @ k
    return DiscretizedOperator(k, np.eye(DIM), 0.5 * (k2 + k2.T)), lams


def _smooth_operator(amps, s, grid_m=8):
    t = np.linspace(0.0, 1.0, grid_m + 1)
    a = sum(amp * np.cos((k + 1) * np.pi * t) for k, amp in enumerate(amps))
    return FloerPencil(np.asarray(a, dtype=complex), grid_m).at(s)


def _dense_mus(op):
    return scipy.linalg.eigh(op.square_stiffness.toarray(), op.mass.toarray(), eigvals_only=True)


def _certified_or_typed(op, k_window):
    """Block-route window on ``op``'s interior bordered by its last columns:
    one that passed the count equals the dense one; a typed error is the
    other legal end."""
    fields = (op.stiffness, op.mass, op.square_stiffness)
    cols = np.stack([x[:-1, [-1]].toarray()[:, 0] for x in fields])[:, None, :]
    diag = np.array([x[-1, -1] for x in fields])[:, None]
    try:
        interior = floer._interior_pairs(op, np.arange(op.dim - 1), k_window)
        (w,) = floer._bordered_windows(interior, np.zeros(1), cols, diag, k_window, [])
    except FredlabError:
        return
    np.testing.assert_allclose(w, floer_spectrum(op, k_window), rtol=0.0, atol=1e-8)


amplitude = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(
    lam=st.floats(0.1, 4.5),
    eps=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-3]),
    seed=st.integers(0, 2**16),
    k_window=st.integers(1, 9),
)
def test_near_degenerate_pair_is_never_split(lam, eps, seed, k_window):
    op, lams = _pair_operator(lam, eps, seed)
    w = floer_spectrum(op, k_window)
    nearest = np.sort(np.abs(lams))[:k_window]
    np.testing.assert_allclose(np.sort(np.abs(w)), nearest, rtol=0.0, atol=1e-9)
    assert all(np.min(np.abs(lams - x)) <= 1e-9 for x in w)
    _certified_or_typed(op, k_window)


@settings(max_examples=30)
@given(
    amps=st.lists(amplitude, min_size=1, max_size=3),
    s=st.one_of(st.sampled_from([0.0, 2.0 * np.pi]), st.floats(0.0, 2.0 * np.pi)),
    k_window=st.integers(1, 9),
)
def test_coarsest_grid_window_is_certified(amps, s, k_window):
    try:
        op = _smooth_operator(amps, s)
        w = floer_spectrum(op, k_window)
    except FredlabError:
        return
    assert w.shape == (k_window,) and np.all(np.diff(w) >= 0.0)
    _certified_or_typed(op, k_window)


@settings(max_examples=30)
@given(amps=st.lists(amplitude, min_size=1, max_size=3), k_window=st.integers(1, 9))
def test_the_two_ends_of_the_loop_agree(amps, k_window):
    # s = 0 and s = 2 pi put the same boundary line at t = 1
    try:
        w0 = floer_spectrum(_smooth_operator(amps, 0.0), k_window)
        w1 = floer_spectrum(_smooth_operator(amps, 2.0 * np.pi), k_window)
    except FredlabError:
        return
    np.testing.assert_allclose(w0, w1, rtol=0.0, atol=1e-9)


@settings(max_examples=30)
@given(
    amps=st.lists(amplitude, min_size=1, max_size=3),
    s=st.floats(0.0, 2.0 * np.pi),
    slot=st.integers(0, 14),
    frac=st.floats(0.05, 0.95),
)
def test_inertia_count_matches_the_dense_count(amps, s, slot, frac):
    op = _smooth_operator(amps, s)
    mus = _dense_mus(op)
    cut = mus[slot] + frac * (mus[slot + 1] - mus[slot])
    # the interior count and the sign of the border's Schur form (Haynsworth)
    shifted = (op.square_stiffness - cut * op.mass).toarray()
    interior = floer._interior_pairs(op, np.arange(op.dim - 1), 1)
    try:
        neg, g = floer._interior_inertia(interior, cut)
    except FredlabError:
        return
    b = shifted[:-1, -1]
    sigma = shifted[-1, -1] - b @ g @ b
    assert neg + int(sigma < 0.0) == np.count_nonzero(mus < cut)


@settings(max_examples=60)
@given(
    amps=st.lists(amplitude, min_size=1, max_size=3),
    coupling=st.sampled_from(list(Coupling)),
    grid_m=st.integers(8, 16),
    s=st.one_of(
        st.sampled_from([0.0, np.pi / 2.0, np.pi, 2.0 * np.pi]), st.floats(0.0, 2.0 * np.pi)
    ),
    k_frac=st.floats(0.0, 1.0),
)
def test_pencil_window_equals_the_dense_window(amps, coupling, grid_m, s, k_frac):
    # k_window runs from 1 to dim: the top windows take the root above the
    # last interior eigenvalue.  A window the pencil cannot certify raises;
    # no derandomized example here does
    t = np.linspace(0.0, 1.0, grid_m + 1)
    a = sum(amp * np.cos((k + 1) * np.pi * t) for k, amp in enumerate(amps))
    if coupling is Coupling.LINEAR_IMAGINARY:
        a = 1j * np.imag(a)
    k_window = 1 + round(k_frac * (2 * grid_m - 1))
    try:
        pencil = FloerPencil(np.asarray(a, dtype=complex), grid_m, coupling)
        (w,) = pencil.spectra([s], k_window)
        dense = floer_spectrum(pencil.at(s), k_window)
    except FredlabError:
        return
    np.testing.assert_allclose(w, dense, rtol=0.0, atol=1e-9)
