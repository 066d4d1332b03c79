"""Explicit operator families used throughout the test and experiment suites.

Provides the sign-flip diagonal family (gap-convergent but Riesz-divergent),
schedules of relatively bounded perturbations, and seeded random operators
with prescribed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Diagonal operator diag(1, .., N) with entry ``spec.n`` flipped to ``-n``."""
    diag = np.arange(1.0, spec.dim + 1.0)
    if spec.n >= 1:
        diag[spec.n - 1] = -float(spec.n)
    return SelfAdjointOperator(np.diag(diag))


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
    if n < 1:
        raise InvalidSpec("closed forms hold for flip index n >= 1")
    return FugledeExpected(
        resolvent_branch=2.0 * n / (1.0 + n * n),
        rho=2.0 * n / np.sqrt(1.0 + n * n),
        alpha_dist=1.0,
    )


@dataclass(frozen=True, eq=False)
class PerturbationSchedule:
    """A base operator with symmetric perturbations of certified relative size."""

    base: SelfAdjointOperator
    deltas: tuple
    bound_targets: tuple

    def __post_init__(self):
        if len(self.deltas) != len(self.bound_targets):
            raise InvalidSpec("one perturbation per bound target required")
        for s, c in zip(self.deltas, self.bound_targets):
            got = relative_bound_surrogate(self.base, s)
            if got > c + 1e-10:
                raise InvalidSpec(f"perturbation exceeds its bound: {got} > {c}")

    def perturbed(self, k):
        """The k-th perturbed operator ``base + S_k``."""
        return SelfAdjointOperator(self.base.matrix + self.deltas[k])


def perturbation_family(base, seed, schedule):
    """Random symmetric perturbations scaled to prescribed relative bounds.

    A single symmetric direction is drawn from ``seed`` and rescaled so the
    certified relative bound of the k-th perturbation equals ``schedule[k]``
    exactly; this makes the induced metric distances decrease along the
    schedule rather than merely trend down.
    """
    targets = tuple(float(c) for c in schedule)
    if any(c < 0 for c in targets):
        raise InvalidSpec("bound targets must be nonnegative")
    if any(b < a for a, b in zip(targets[1:], targets[:-1])):
        raise InvalidSpec("bound targets must be non-increasing")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((base.dim, base.dim))
    direction = 0.5 * (direction + direction.T)
    size = relative_bound_surrogate(base, direction)
    deltas = []
    for c in targets:
        if c == 0.0 or size == 0.0:
            deltas.append(np.zeros((base.dim, base.dim)))
        else:
            deltas.append((c / size) * direction)
    return PerturbationSchedule(base=base, deltas=tuple(deltas), bound_targets=targets)


def random_selfadjoint(dim, seed, spectrum_range=(-1.0, 1.0)):
    """Seeded random operator ``Q diag(w) Q^T`` with ``w`` uniform in the range."""
    dim = require_integer(dim, "dimension", 1)
    lo, hi = float(spectrum_range[0]), float(spectrum_range[1])
    if hi < lo:
        raise InvalidSpec("empty spectrum range")
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return SelfAdjointOperator((q * w) @ q.T)


def random_with_spectrum(eigenvalues, seed):
    """Seeded random operator with exactly the given eigenvalues."""
    w = np.asarray(eigenvalues, dtype=float)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((w.size, w.size)))
    return SelfAdjointOperator((q * w) @ q.T)
