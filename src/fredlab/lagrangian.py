"""Graphs of symmetric operators as Lagrangian subspaces of the doubled space.

The doubling ``R^n (+) R^n`` carries the complex structure ``J = [[0,-I],[I,0]]``;
a subspace is Lagrangian when ``J`` maps it onto its orthogonal complement.
Graphs ``{(x, Ax)}`` of symmetric matrices are exactly such subspaces, and the
pair ``(R^n (+) 0, graph)`` is the finite shadow of a Fredholm pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, topology
from .errors import AmbientMismatch, NonSquare, require_integer
from .linalg import Subspace
from .topology import SelfAdjointOperator

#: Residual below which the Lagrangian condition J P J^T = I - P is accepted.
LAGRANGIAN_TOL = 1e-10


@dataclass(frozen=True)
class SymplecticDoubling:
    """The doubled space R^{2N} with its standard complex structure."""

    half_dim: int

    def __post_init__(self):
        object.__setattr__(self, "half_dim", require_integer(self.half_dim, "half dimension", 1))

    @property
    def ambient_dim(self):
        return 2 * self.half_dim

    def complex_structure(self):
        n = self.half_dim
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = -np.eye(n)
        j[n:, :n] = np.eye(n)
        return j

    def horizontal(self):
        """The subspace R^N (+) 0."""
        basis = np.zeros((2 * self.half_dim, self.half_dim))
        basis[: self.half_dim] = np.eye(self.half_dim)
        return Subspace(self.ambient_dim, basis)


def graph_subspace(a):
    """Graph ``{(x, Ax)}`` as a subspace, built by orthonormalizing ``[I; A]``."""
    n = a.dim
    stacked = np.vstack([np.eye(n), a.matrix])
    q, r = np.linalg.qr(stacked)
    # fix the sign convention so the basis is deterministic
    q = q * np.sign(np.diag(r))
    return Subspace(2 * n, q)


def graph_projection_formula(a):
    """Projection onto the graph from the resolvent-style block formula.

    Independent of the QR construction and of spectral calculus: the blocks
    ``(1+A^2)^{-1}``, ``(1+A^2)^{-1} A``, ``A (1+A^2)^{-1}`` and
    ``A (1+A^2)^{-1} A`` are computed with plain linear solves.
    """
    m = a.matrix
    n = a.dim
    g = np.linalg.solve(np.eye(n) + m @ m, np.eye(n))
    return np.block([[g, g @ m], [m @ g, m @ g @ m]])


def lagrangian_residual(s, doubling):
    """``|J P J^T - (I - P)|`` for the projection ``P`` onto ``s``; zero exactly
    when ``s`` is Lagrangian, and 1 when its dimension is not half the ambient.
    ``J P J^T`` is the block rotation ``[[P22, -P21], [-P12, P11]]``."""
    if s.ambient_dim != doubling.ambient_dim:
        raise AmbientMismatch(
            f"subspace lives in R^{s.ambient_dim}, doubling in R^{doubling.ambient_dim}"
        )
    p = linalg.projection_from_basis(s)
    n = doubling.half_dim
    jpj = np.block([[p[n:, n:], -p[n:, :n]], [-p[:n, n:], p[:n, :n]]])
    return linalg.operator_norm(jpj - (np.eye(s.ambient_dim) - p))


def is_lagrangian(s, doubling):
    """Whether ``J`` carries ``s`` onto its orthogonal complement."""
    return bool(lagrangian_residual(s, doubling) <= LAGRANGIAN_TOL)


def suspension(l):
    """Odd selfadjoint operator ``[[0, L^T], [L, 0]]`` encoding a square matrix.

    Anticommutes with the grading ``diag(I, -I)`` by construction; its
    spectrum is the symmetrized set of singular values of ``L``.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise NonSquare(f"suspension needs a square matrix, got shape {l.shape}")
    n = l.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = l.T
    out[n:, :n] = l
    return SelfAdjointOperator(out)


def kato_consistency(a0, a1):
    """Graph distance and gap distance of a pair, for joint-convergence checks."""
    # first, so that operators of unequal dims raise DimensionMismatch
    gamma = topology.gap_metric(a0, a1)
    return topology.subspace_gap(graph_subspace(a0), graph_subspace(a1)), gamma
