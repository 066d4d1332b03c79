"""Explicit operator families used throughout the test and experiment suites.

Provides the sign-flip diagonal family (gap-convergent but Riesz-divergent),
schedules of relatively bounded perturbations, and seeded random operators
with prescribed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, require_integer
from .topology import SelfAdjointOperator, relative_bound_surrogate


@dataclass(frozen=True)
class FugledeSpec:
    """Truncation of the flipped-diagonal family.

    ``n == 0`` selects the reference operator diag(1..dim); ``n >= 1`` flips
    the n-th diagonal entry to ``-n``.  ``dim >= 2n`` keeps the flipped entry
    well inside the truncation window.
    """

    n: int
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_integer(self.n, "flip index", 0))
        object.__setattr__(self, "dim", require_integer(self.dim, "truncation dimension", 1))
        if self.n >= 1 and self.dim < 2 * self.n:
            raise InvalidSpec(f"need dim >= 2n, got dim={self.dim}, n={self.n}")


def fuglede_operator(spec):
    """Diagonal operator diag(1, .., N) with entry ``spec.n`` flipped to ``-n``,
    which keeps its eigenpairs, the entries and the unit vectors; the matrix
    is formed as a diagonal, with no product."""
    diag = np.arange(1.0, spec.dim + 1.0)
    if spec.n >= 1:
        diag[spec.n - 1] = -float(spec.n)
    return SelfAdjointOperator._from_eigenpairs(diag, np.eye(spec.dim), np.diag(diag))


class FugledeExpected(NamedTuple):
    resolvent_branch: float
    rho: float
    alpha_dist: float


def fuglede_expected(n):
    """Closed-form distances between the flipped operator and the reference.

    Each resolvent branch at ``+-i`` differs by ``2n / (1 + n^2)``, the
    bounded transforms by ``2n / sqrt(1 + n^2)``, and any ramp that separates
    the signs sees a distance of exactly 1.
    """
    n = require_integer(n, "flip index", 1)
    return FugledeExpected(
        resolvent_branch=2.0 * n / (1.0 + n * n),
        rho=float(2.0 * n / np.sqrt(1.0 + n * n)),
        alpha_dist=1.0,
    )


def generator(seed):
    """The random generator of ``seed``, an integer of at least 0; every seeded
    function of the library draws from one of these."""
    return np.random.default_rng(require_integer(seed, "seed", 0))


@dataclass(frozen=True, eq=False)
class PerturbationSchedule:
    """Perturbations ``S_k = (c_k / size) * direction`` of a base operator, with
    ``size`` the certified relative bound of the symmetric ``direction`` against
    ``base``, taken once; so ``S_k`` has relative bound exactly ``c_k``.  The
    targets ``c_k`` must be a sequence of finite, nonnegative and non-increasing
    numbers (``InvalidSpec``)."""

    base: SelfAdjointOperator
    direction: np.ndarray
    bound_targets: tuple
    size: float = field(init=False)

    def __post_init__(self):
        targets = np.asarray(self.bound_targets)
        if targets.ndim != 1 or targets.dtype.kind not in "iuf":
            raise InvalidSpec(
                f"bound targets must be a sequence of numbers, got {self.bound_targets!r}"
            )
        targets = tuple(map(float, targets))
        if not all(0.0 <= c < np.inf for c in targets):
            raise InvalidSpec(f"bound targets must be finite and nonnegative, got {targets}")
        if any(b < a for a, b in zip(targets[1:], targets[:-1])):
            raise InvalidSpec("bound targets must be non-increasing")
        object.__setattr__(self, "bound_targets", targets)
        object.__setattr__(self, "size", relative_bound_surrogate(self.base, self.direction))

    def delta(self, k):
        """The k-th perturbation ``S_k``; zero for a zero target or direction."""
        c = self.bound_targets[k]
        return (c / self.size if c and self.size else 0.0) * self.direction

    def perturbed(self, k):
        """The k-th perturbed operator ``base + S_k``."""
        return SelfAdjointOperator(self.base.matrix + self.delta(k))


def perturbation_family(base, seed, schedule):
    """Schedule of one random symmetric direction, drawn from ``seed``, scaled
    so the certified relative bound of the k-th perturbation is ``schedule[k]``
    exactly; this makes the induced metric distances decrease along the
    schedule rather than merely trend down."""
    direction = generator(seed).standard_normal((base.dim, base.dim))
    return PerturbationSchedule(base, 0.5 * (direction + direction.T), schedule)


def _haar_conjugate(w, rng):
    # Q diag(w) Q^T with Q the orthogonal factor of a Gaussian matrix; the
    # operator keeps (w, Q) as its decomposition
    q, _ = np.linalg.qr(rng.standard_normal((w.size, w.size)))
    return SelfAdjointOperator._from_eigenpairs(w, q)


def random_selfadjoint(dim, seed, spectrum_range=(-1.0, 1.0)):
    """Seeded random operator ``Q diag(w) Q^T`` with ``w`` uniform in the range,
    two numbers whose ends and width must be finite (``InvalidSpec``)."""
    dim = require_integer(dim, "dimension", 1)
    ends = np.asarray(spectrum_range)
    if ends.shape != (2,) or ends.dtype.kind not in "iuf":
        raise InvalidSpec(f"spectrum range must be two numbers, got {spectrum_range!r}")
    lo, hi = map(float, ends)
    if not np.isfinite(hi - lo):  # a NaN or infinite end, or a width past the float range
        raise InvalidSpec(f"spectrum range ({lo}, {hi}) needs finite ends and width")
    if hi < lo:
        raise InvalidSpec("empty spectrum range")
    rng = generator(seed)
    return _haar_conjugate(rng.uniform(lo, hi, size=dim), rng)


def random_with_spectrum(eigenvalues, seed):
    """Seeded random operator with exactly the given eigenvalues, a non-empty
    1-D array of finite values (``InvalidSpec``)."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidSpec(f"need a non-empty 1-D spectrum, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidSpec(f"spectrum has non-finite eigenvalues {w[~np.isfinite(w)]}")
    return _haar_conjugate(w, generator(seed))
