"""Metrics and functional calculus on finite selfadjoint operators.

Implements the bounded transform ``A -> A(1+A^2)^{-1/2}``, the gap and Riesz
distances from the eigenbases of a pair, distances of scalar
functions applied to a pair of operators, a certified relative-bound
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import linalg
from .errors import AmbientMismatch, DimensionMismatch, InvalidSpec, NoConvergence


@dataclass(frozen=True, eq=False)
class SelfAdjointOperator:
    """A symmetric matrix, and the holder of its symmetric eigendecomposition.

    The constructor checks the input once with :func:`linalg.require_symmetric`
    and stores its symmetric part ``(m + m^T) / 2``, halved before the sum
    where the sum would overflow, so no entry overflows and an exactly
    symmetric input is kept bit for bit.  The spectral decomposition and the
    spectrum are each computed once on first use and cached on the instance;
    an operator built from its eigenpairs (:meth:`_from_eigenpairs`) holds
    them from the start.  The values are immutable afterwards, so sharing
    across threads is safe.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.require_symmetric(self.matrix, "operator matrix")
        with np.errstate(over="ignore"):
            sym = m + m.T
        sym *= 0.5
        big = np.isinf(sym)  # the sum overflowed: halve before adding
        sym[big] = 0.5 * m[big] + 0.5 * m.T[big]
        object.__setattr__(self, "matrix", sym)

    @classmethod
    def _from_eigenpairs(cls, w, q, matrix=None):
        """The operator ``Q diag(w) Q^T``, formed and checked as the constructor
        does, with ``(w, Q)`` sorted ascending (stable) as its decomposition;
        a caller that holds the product already passes it as ``matrix``.

        ``q`` must be orthogonal to working precision, as the Q factor of
        LAPACK's Householder QR is and ``eigh``'s vectors are: the pair is then
        exact for a matrix within rounding of the stored one, which is also
        what ``eigh`` guarantees.
        """
        op = cls((q * w) @ q.T if matrix is None else matrix)
        order = np.argsort(w, kind="stable")
        dec = linalg.SpectralDecomposition(w[order], q[:, order])
        object.__setattr__(op, "decomposition", dec)
        return op

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def decomposition(self):
        """Ascending eigenvalues and orthonormal eigenvectors of :attr:`matrix`."""
        try:
            w, q = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
            raise NoConvergence(str(exc)) from exc
        return linalg.SpectralDecomposition(w, q)

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues, values only: the last bits may differ from ``decomposition``'s."""
        return np.linalg.eigvalsh(self.matrix)

    def apply(self, f):
        """``f`` evaluated on this operator through its eigendecomposition."""
        return linalg.apply_scalar_function(self.decomposition, f)


def _check_same_dim(a0, a1):
    if a0.dim != a1.dim:
        raise DimensionMismatch(f"operator dims {a0.dim} != {a1.dim}")


def bounded_transform_scalar(lam):
    """The scalar bounded transform ``x / sqrt(1 + x^2)``; ``x`` is clipped to
    ``+-1e150``, where it is already ``+-1``, so ``x * x`` cannot overflow."""
    x = np.clip(lam, -1e150, 1e150)
    return x / np.sqrt(1.0 + x * x)


#: Half-width of the ramp probe: 0 below ``-RAMP_WIDTH``, 1 above ``+RAMP_WIDTH``.
RAMP_WIDTH = 0.5


@dataclass(frozen=True)
class ScalarFunction:
    """A named scalar test function used to compare operators through calculus.

    ``fn`` takes an array of eigenvalues and returns an array of the same
    shape, or a scalar (see :func:`linalg.apply_scalar_function`).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, lam):
        return self.fn(lam)


P0 = ScalarFunction("P0", lambda lam: 1.0)
P_PLUS = ScalarFunction("Pplus", lambda lam: 1.0 / (lam + 1j))
P_MINUS = ScalarFunction("Pminus", lambda lam: 1.0 / (lam - 1j))
RIESZ_R = ScalarFunction("r", bounded_transform_scalar)
ALPHA_RAMP = ScalarFunction(
    "alpha_ramp", lambda lam: np.clip((lam + RAMP_WIDTH) / (2.0 * RAMP_WIDTH), 0.0, 1.0)
)

#: Default probe set: the bounded generators plus the two strictly finer ones.
DEFAULT_PROBES = (P0, P_PLUS, P_MINUS, RIESZ_R, ALPHA_RAMP)


@dataclass(frozen=True)
class MetricReport:
    """Computed distances for one pair of operators."""

    gamma: float
    rho: float
    generator_distances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.gamma, self.rho, *self.generator_distances.values()]
        arr = np.asarray(vals, dtype=float)
        if not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
            raise ValueError("metric report entries must be finite and nonnegative")


def riesz_map(a):
    """Bounded transform ``A (1 + A^2)^{-1/2}``: a symmetric strict contraction."""
    return a.apply(bounded_transform_scalar)


def riesz_inverse(t):
    """Inverse of the bounded transform: ``T (1 - T^2)^{-1/2}`` for ``|T| < 1``."""
    back = SelfAdjointOperator(t).apply(lambda m: m / np.sqrt(1.0 - m * m))
    return SelfAdjointOperator(back)


def _sorts_after(x0, x1):
    """``x0.tobytes() > x1.tobytes()`` for float arrays of one shape, without
    the copies: the first entry whose bits differ decides."""
    differ = x0.view(np.int64) != x1.view(np.int64)
    i = np.unravel_index(np.argmax(differ), differ.shape)
    return x0[i].tobytes() > x1[i].tobytes()


def _eigenbasis_norm(a0, a1, kernel):
    """``|W o K|`` with ``W = Q0^T Q1`` in the eigenbases ``A_k = Q_k diag(l_k) Q_k^T``.

    ``kernel(w, l0, l1)`` multiplies ``w`` in place by ``K_ij(l0_i, l1_j)``.
    The pair is taken in a fixed order, so the value is bitwise symmetric
    whenever ``|K|`` is, and equal matrices give exactly 0.
    """
    _check_same_dim(a0, a1)
    if np.array_equal(a0.matrix, a1.matrix):
        return 0.0
    if _sorts_after(a0.matrix, a1.matrix):
        a0, a1 = a1, a0
    d0, d1 = a0.decomposition, a1.decomposition
    f = d0.eigenvectors.T @ d1.eigenvectors
    kernel(f, d0.eigenvalues, d1.eigenvalues)
    return linalg.operator_norm(f)


def _riesz_kernel(w, l0, l1):
    w *= bounded_transform_scalar(l0)[:, None] - bounded_transform_scalar(l1)[None, :]


def riesz_metric(a0, a1):
    """Operator-norm distance of the bounded transforms; always below 2.

    It is ``|W o (r(l0_i) - r(l1_j))|``; the ``r`` probe is its oracle.
    """
    return _eigenbasis_norm(a0, a1, _riesz_kernel)


def resolvents_at_i(a):
    """The pair ``((i + A)^{-1}, (i - A)^{-1})`` via spectral calculus."""
    plus = a.apply(P_PLUS)
    # for real symmetric A, (i - A)^{-1} = -conj((i + A)^{-1})
    return plus, -plus.conj()


def _resolvent_kernel(w, l0, l1):
    # half the difference: halving is exact, and l1 - l0 overflows past ~9e307
    w *= 0.5 * l1[None, :] - 0.5 * l0[:, None]
    # one hypot at a time: their product overflows once |l| passes ~1e154
    w /= np.hypot(1.0, l0)[:, None]
    w /= np.hypot(1.0, l1)[None, :]


def gap_metric(a0, a1):
    """Sum of the operator-norm differences of the two resolvents at ``+-i``.

    For real symmetric ``A`` the ``-i`` branch is minus the conjugate of the
    ``+i`` branch, and up to diagonal phases ``(i+A0)^{-1} - (i+A1)^{-1}`` is
    ``W o (l1_j - l0_i) / (|l0_i + i| |l1_j + i|)`` in the eigenbases, so the
    sum is twice that norm; the kernel halves ``l1_j - l0_i``, so it is four
    times the norm taken.  :func:`resolvents_at_i` is its oracle.
    """
    return 4.0 * _eigenbasis_norm(a0, a1, _resolvent_kernel)


def subspace_gap(s1, s2):
    """Operator norm of the difference of the orthogonal projections."""
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(f"ambient dims {s1.ambient_dim} != {s2.ambient_dim}")
    return linalg.operator_norm(
        linalg.projection_from_basis(s1) - linalg.projection_from_basis(s2)
    )


def _same_values(v, u):
    return all(np.array_equal(x, y) for x, y in zip(v, u))


def generator_distance_profile(a0, a1, fns=DEFAULT_PROBES):
    """Distances ``|f(A0) - f(A1)|`` for each probe, bundled with the gap and
    Riesz distances of the pair; two probes of one name are an :class:`InvalidSpec`.

    Each distinct difference is normed once.  A probe whose values on both
    spectra equal an earlier probe's, or are their conjugates, reads that
    probe's distance: for real symmetric ``A``, ``conj(f)(A) = conj(f(A))``,
    and conjugation keeps the operator norm (``Pminus`` is ``Pplus``'s).
    """
    _check_same_dim(a0, a1)
    dists, normed = {}, []  # normed: (values on both spectra, distance)
    for f in fns:
        if f.name in dists:
            raise InvalidSpec(f"two probes are named {f.name!r}")
        vals = [linalg._function_values(a.decomposition, f) for a in (a0, a1)]
        conj = [np.conj(v) for v in vals]
        for u, dist in normed:
            if _same_values(vals, u) or _same_values(conj, u):
                break
        else:
            dist = linalg.operator_norm(
                linalg._spectral_product(a0.decomposition, vals[0])
                - linalg._spectral_product(a1.decomposition, vals[1])
            )
            normed.append((vals, dist))
        dists[f.name] = dist
    return MetricReport(
        gamma=gap_metric(a0, a1),
        rho=riesz_metric(a0, a1),
        generator_distances=dists,
    )


def relative_bound_surrogate(a, s):
    """Certified constant ``c`` with ``|S u| <= c (|A u| + |u|)`` for all u.

    Returns ``|S (|A| + 1)^{-1}|``; this bounds the relative size of the
    perturbation ``S`` against ``A`` because ``|(|A|+1) u| <= |A u| + |u|``.
    """
    s = linalg.require_symmetric(s, "perturbation")
    if s.shape[0] != a.dim:
        raise DimensionMismatch(f"operator dim {a.dim} != perturbation dim {s.shape[0]}")
    damp = a.apply(lambda lam: 1.0 / (1.0 + abs(lam)))
    return linalg.operator_norm(s @ damp)

