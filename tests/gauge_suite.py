"""Gauge operators between the domains of the boundary-value family.

Acceptance criterion 9 checks that the boundary gauge ``Q P + (I - Q)(I - P)``,
spread over a collar near ``t = 1`` by a cutoff, carries the constrained grid
functions at one boundary angle exactly onto those at another, with an H^1
norm bounded independently of the grid.  No report row reads these operators,
so they live beside the tests that check them and are not collected as tests.
"""

from dataclasses import dataclass

import numpy as np

from fredlab import linalg
from fredlab.errors import FredlabError, InvalidConfig
from fredlab.floer import _element_count, _element_sum, _node_dofs


class GaugeSingular(FredlabError):
    """Two projectors are too far apart for the gauge operator to be invertible."""


def gauge_hat_U(p, q):
    """Invertible interpolation ``Q P + (I - Q)(I - P)`` between projectors.

    Maps ``ker P`` onto ``ker Q`` (and ``ran P`` onto ``ran Q``); requires
    ``|Q - P| < 1`` for invertibility.
    """
    pm, qm = p.matrix, q.matrix
    if linalg.operator_norm(qm - pm) >= 1.0:
        raise GaugeSingular("projectors too far apart: |Q - P| >= 1")
    eye = np.eye(4)
    return qm @ pm + (eye - qm) @ (eye - pm)


@dataclass(frozen=True, eq=False)
class CutoffProfile:
    """Monotone grid samples of a collar cutoff: 0 up to 1/4, 1 from 3/4 on."""

    eta: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eta, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise InvalidConfig("cutoff must be sampled on at least two nodes")
        if np.any(np.diff(e) < 0.0):
            raise InvalidConfig("cutoff must be nondecreasing")
        t = np.linspace(0.0, 1.0, e.size)
        if np.any(e[t <= 0.25] != 0.0) or np.any(e[t >= 0.75] != 1.0):
            raise InvalidConfig("cutoff must be 0 on [0, 1/4] and 1 on [3/4, 1]")
        object.__setattr__(self, "eta", e)

    @classmethod
    def smoothstep(cls, grid_m):
        t = np.linspace(0.0, 1.0, _element_count(grid_m) + 1)
        x = np.clip((t - 0.25) / 0.5, 0.0, 1.0)
        return cls(x * x * (3.0 - 2.0 * x))


def cutoff_gauge_U(hat_u, eta):
    """Gauge on grid functions: identity away from ``t = 1``, endpoint block near it.

    Acts node by node as ``(1 - eta) I + eta G`` where ``G`` is the
    endpoint-1 block of ``hat_u`` extended constantly along the collar.
    """
    hat_u = np.asarray(hat_u, dtype=float)
    if hat_u.shape != (4, 4):
        raise InvalidConfig("gauge must be a 4x4 boundary operator")
    g = hat_u[2:4, 2:4]
    out = np.zeros((2 * eta.eta.size, 2 * eta.eta.size))
    for j, e in enumerate(eta.eta):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (1.0 - e) * np.eye(2) + e * g
    return out


def _h1_gram(grid_m):
    h = 1.0 / grid_m
    mass = h * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    stiff = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    n = 2 * (grid_m + 1)
    blocks = np.broadcast_to(np.kron(mass + stiff, np.eye(2)), (grid_m, 4, 4))
    return _element_sum(blocks, np.arange(n), np.ones(n)).toarray()


def h1_operator_norm(x):
    """Operator norm of a nodal map (two components per node) in the discrete H^1 inner product."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2 or x.shape[0] < 4:
        raise InvalidConfig(f"need a square nodal map of even size >= 4, got shape {x.shape}")
    gram = _h1_gram(x.shape[0] // 2 - 1)
    chol = np.linalg.cholesky(gram)
    conj = chol.T @ x @ np.linalg.solve(chol.T, np.eye(chol.shape[0]))
    return linalg.operator_norm(conj)


def domain_subspace(pencil, s):
    """Constrained grid functions at boundary angle ``s``, as a subspace."""
    dof, weight = _node_dofs(pencil.grid_m, s)
    basis = np.zeros((dof.size, int(dof[-1]) + 1))
    basis[np.arange(dof.size), dof] = weight
    return linalg.Subspace(dof.size, basis)
