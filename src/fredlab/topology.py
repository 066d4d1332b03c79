"""Metrics and functional calculus on finite selfadjoint operators.

Implements the bounded transform ``A -> A(1+A^2)^{-1/2}``, the resolvent-based
gap distance, the Riesz distance, distances of scalar functions applied to a
pair of operators, a certified relative-bound estimate, and the
metadata-driven component classification of Fredholm selfadjoint operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import linalg
from .errors import DimensionMismatch


class EssentialSpectrumSigns(Enum):
    """Declared knowledge about the essential spectrum of the untruncated operator."""

    NONE = "none"
    PLUS_ONLY = "plus_only"
    MINUS_ONLY = "minus_only"
    BOTH = "both"


@dataclass(frozen=True)
class TailDescriptor:
    """Analytic annotation a finite truncation cannot recover on its own."""

    ess_spectrum_signs: EssentialSpectrumSigns = EssentialSpectrumSigns.NONE


@dataclass(frozen=True, eq=False)
class SelfAdjointOperator:
    """A symmetric matrix, optionally annotated with tail metadata.

    The spectral decomposition is computed once on first use and cached on the
    instance; the value is immutable afterwards, so sharing across threads is
    safe.
    """

    matrix: np.ndarray
    tail: TailDescriptor | None = None

    def __post_init__(self):
        m = linalg.require_symmetric(self.matrix, "operator matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def decomposition(self):
        return linalg.sym_eig(self.matrix)

    def apply(self, f):
        """``f`` evaluated on this operator through its eigendecomposition."""
        return linalg.apply_scalar_function(self.decomposition, f)


def _check_same_dim(a0, a1):
    if a0.dim != a1.dim:
        raise DimensionMismatch(f"operator dims {a0.dim} != {a1.dim}")


def bounded_transform_scalar(lam):
    """The scalar bounded transform ``x / sqrt(1 + x^2)``."""
    return lam / np.sqrt(1.0 + lam * lam)


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
    delta_graphs: float
    generator_distances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.gamma, self.rho, self.delta_graphs, *self.generator_distances.values()]
        arr = np.asarray(vals, dtype=float)
        if not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
            raise ValueError("metric report entries must be finite and nonnegative")


def riesz_map(a):
    """Bounded transform ``A (1 + A^2)^{-1/2}``: a symmetric strict contraction."""
    return a.apply(bounded_transform_scalar)


def riesz_inverse(t):
    """Inverse of the bounded transform: ``T (1 - T^2)^{-1/2}`` for ``|T| < 1``."""
    dec = linalg.sym_eig(t)
    top = float(np.max(np.abs(dec.eigenvalues))) if dec.dim else 0.0
    if top >= 1.0:
        raise ValueError(f"matrix norm {top} is not below 1")
    back = linalg.apply_scalar_function(dec, lambda m: m / np.sqrt(1.0 - m * m))
    return SelfAdjointOperator(0.5 * (back + back.T))


def riesz_metric(a0, a1):
    """Operator-norm distance of the bounded transforms; always below 2."""
    _check_same_dim(a0, a1)
    return linalg.symmetric_norm(riesz_map(a0) - riesz_map(a1))


def resolvents_at_i(a):
    """The pair ``((i + A)^{-1}, (i - A)^{-1})`` via spectral calculus."""
    plus = a.apply(P_PLUS)
    # for real symmetric A, (i - A)^{-1} = -conj((i + A)^{-1})
    return plus, -plus.conj()


def gap_metric(a0, a1):
    """Sum of the operator-norm differences of the two resolvents at ``+-i``.

    The ``-i`` branch is minus the conjugate of the ``+i`` branch (see
    :func:`resolvents_at_i`), so both norms are equal and the sum is twice one.
    """
    _check_same_dim(a0, a1)
    return 2.0 * linalg.operator_norm(a0.apply(P_PLUS) - a1.apply(P_PLUS))


def subspace_gap(s1, s2):
    """Operator norm of the difference of the orthogonal projections."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient dims {s1.ambient_dim} != {s2.ambient_dim}")
    return linalg.symmetric_norm(
        linalg.projection_from_basis(s1) - linalg.projection_from_basis(s2)
    )


def generator_distance_profile(a0, a1, fns=DEFAULT_PROBES):
    """Distances ``|f(A0) - f(A1)|`` for each probe, bundled with gap, Riesz
    and graph distances of the pair."""
    from .lagrangian import graph_subspace  # lagrangian imports this module

    _check_same_dim(a0, a1)
    dists = {}
    for f in fns:
        dists[f.name] = linalg.operator_norm(a0.apply(f) - a1.apply(f))
    return MetricReport(
        gamma=gap_metric(a0, a1),
        rho=riesz_metric(a0, a1),
        delta_graphs=subspace_gap(graph_subspace(a0), graph_subspace(a1)),
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


class ComponentLabel(Enum):
    F_PLUS = "F_plus"
    F_MINUS = "F_minus"
    F_ZERO = "F_0"
    UNKNOWN = "unknown"


def classify_component(a):
    """Connected component of the Fredholm-selfadjoint space, from tail metadata.

    A finite truncation alone cannot see essential spectrum, so operators
    without metadata are classified as UNKNOWN rather than guessed at.
    """
    if a.tail is None:
        return ComponentLabel.UNKNOWN
    signs = a.tail.ess_spectrum_signs
    if signs is EssentialSpectrumSigns.PLUS_ONLY:
        return ComponentLabel.F_PLUS
    if signs is EssentialSpectrumSigns.MINUS_ONLY:
        return ComponentLabel.F_MINUS
    if signs is EssentialSpectrumSigns.BOTH:
        return ComponentLabel.F_ZERO
    return ComponentLabel.UNKNOWN
