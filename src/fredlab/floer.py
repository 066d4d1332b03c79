"""One-dimensional family of selfadjoint first-order boundary value problems.

The model operator on ``[0, 1]`` acts on R^2-valued functions as
``A u = J u' + C(t) u`` with ``J = [[0,-1],[1,0]]`` and a symmetric
zeroth-order term ``C(t) = -J S(t)`` built from a complex coefficient
``a(t)``.  The domain constrains ``u(0)`` to the real line and ``u(1)`` to
the line of angle ``-s``, so sweeping ``s`` rotates the boundary condition.

The module discretizes the family with piecewise-linear elements, computes
spectra and spectral flow, provides a grid-free shooting oracle, and realizes
the boundary-projector distance together with the gauge operators that
transport one domain onto another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import linalg, topology
from .lagrangian import kato_consistency
from .errors import (
    GaugeSingular,
    InvalidConfig,
    MassNotPositiveDefinite,
    NoConvergence,
    NoRootBracketed,
    NotSymmetric,
    SamplingTooCoarse,
)
from .topology import (
    EssentialSpectrumSigns,
    MetricReport,
    SelfAdjointOperator,
    TailDescriptor,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

_TAIL_BOTH = TailDescriptor(EssentialSpectrumSigns.BOTH)

#: 3-point Gauss-Legendre rule on [0, 1]; exact through degree 5.
_GAUSS_XI = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class Coupling(Enum):
    """How the complex coefficient multiplies the unknown.

    ANTILINEAR couples through conjugation, ``u -> a * conj(u)``, which is
    symmetric for every ``a``.  LINEAR_IMAGINARY is the plain complex product
    ``u -> a * u``; it is symmetric only for purely imaginary ``a`` and is
    rejected otherwise.
    """

    ANTILINEAR = "antilinear"
    LINEAR_IMAGINARY = "linear_imaginary"


@dataclass(frozen=True, eq=False)
class FloerConfig:
    """One member of the boundary-value family.

    ``a_samples`` holds the complex coefficient at the ``grid_m + 1`` uniform
    nodes of ``[0, 1]``; ``s`` is the boundary angle at ``t = 1``.
    """

    a_samples: np.ndarray
    s: float
    grid_m: int
    coupling: Coupling = Coupling.ANTILINEAR

    def __post_init__(self):
        if self.grid_m < 8:
            raise InvalidConfig(f"need at least 8 elements, got {self.grid_m}")
        if not (0.0 <= self.s <= 2.0 * np.pi):
            raise InvalidConfig(f"boundary angle {self.s} outside [0, 2*pi]")
        a = np.asarray(self.a_samples, dtype=complex)
        if a.shape != (self.grid_m + 1,):
            raise InvalidConfig(
                f"need {self.grid_m + 1} coefficient samples, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidConfig("coefficient samples contain NaN or Inf")
        if self.coupling is Coupling.LINEAR_IMAGINARY:
            scale = max(1.0, float(np.max(np.abs(a))))
            if float(np.max(np.abs(a.real))) > 1e-12 * scale:
                raise InvalidConfig(
                    "linear coupling is symmetric only for purely imaginary a"
                )
        object.__setattr__(self, "a_samples", a)

    @classmethod
    def zero(cls, s, grid_m, coupling=Coupling.ANTILINEAR):
        return cls(np.zeros(grid_m + 1, dtype=complex), s, grid_m, coupling)

    @classmethod
    def constant(cls, a, s, grid_m, coupling=Coupling.ANTILINEAR):
        return cls(np.full(grid_m + 1, complex(a)), s, grid_m, coupling)

    def with_angle(self, s):
        return replace(self, s=s)

    @property
    def nodes(self):
        return np.linspace(0.0, 1.0, self.grid_m + 1)


def coefficient_matrices(cfg):
    """Per-node 2x2 matrices ``B`` of the zeroth-order ODE term ``u' = B u``.

    Antilinear coupling encodes ``a = p + iq`` as the symmetric trace-free
    ``[[p, q], [q, -p]]``; the linear coupling with ``a = iq`` gives the skew
    matrix ``q*J^T``.
    """
    p = cfg.a_samples.real
    q = cfg.a_samples.imag
    out = np.empty((cfg.grid_m + 1, 2, 2))
    if cfg.coupling is Coupling.ANTILINEAR:
        out[:, 0, 0] = p
        out[:, 0, 1] = q
        out[:, 1, 0] = q
        out[:, 1, 1] = -p
    else:
        out[:, 0, 0] = 0.0
        out[:, 0, 1] = q
        out[:, 1, 0] = -q
        out[:, 1, 1] = 0.0
    return out


def boundary_lines(s):
    """Unit vectors of the admissible boundary lines at ``t = 0`` and ``t = 1``."""
    v0 = np.array([1.0, 0.0])
    v1 = np.array([np.cos(s), -np.sin(s)])
    return v0, v1


def _block_tridiagonal(diag, upper, lower):
    """Sparse matrix from per-node 2x2 diagonal blocks and per-edge couplings."""
    idx = np.arange(diag.shape[0])
    block_rows = np.concatenate([idx, idx[:-1], idx[1:]])
    block_cols = np.concatenate([idx, idx[1:], idx[:-1]])
    local = np.arange(2)
    rows, cols = np.broadcast_arrays(
        2 * block_rows[:, None, None] + local[:, None],
        2 * block_cols[:, None, None] + local,
    )
    values = np.concatenate([diag, upper, lower])
    size = 2 * idx.size
    return scipy.sparse.csc_array(
        (values.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size)
    )


def _constraint_map(grid_m, s):
    # Columns: the allowed direction at node 0, the full interior nodes, the
    # allowed direction at node M.  All columns are orthonormal.
    n_free = 2 * grid_m
    v0, v1 = boundary_lines(s)
    rows = np.arange(2 * grid_m + 2)
    cols = np.concatenate([[0, 0], np.arange(1, n_free - 1), [n_free - 1, n_free - 1]])
    values = np.concatenate([v0, np.ones(n_free - 2), v1])
    return scipy.sparse.csc_array((values, (rows, cols)), shape=(rows.size, n_free))


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Constrained matrices of one boundary value problem.

    ``stiffness`` is the symmetrized first-order form, ``mass`` the element
    mass matrix, and ``square_stiffness`` the exact quadratic form of the
    squared operator; central first-order stencils carry a spurious sawtooth
    branch through the near-zero spectrum, so eigenvalues are extracted from
    the square, which is free of it.  All three are banded and stored as
    ``scipy.sparse.csc_array``; dense input is converted.
    """

    stiffness: scipy.sparse.csc_array
    mass: scipy.sparse.csc_array
    square_stiffness: scipy.sparse.csc_array
    dof_map: str

    def __post_init__(self):
        fields = (self.stiffness, self.mass, self.square_stiffness)
        shape = np.shape(self.stiffness)
        if len(shape) != 2 or shape[0] != shape[1] or any(np.shape(x) != shape for x in fields):
            raise InvalidConfig("stiffness, mass and square must be square and congruent")
        k, m, k2 = (scipy.sparse.csc_array(x, dtype=float) for x in fields)
        for x in (k, k2):
            if abs(x - x.T).max() > 1e-12 * max(1.0, abs(x).max()):
                raise NotSymmetric("stiffness is not symmetric")
        _, upper = scipy.sparse.linalg.spbandwidth(m)
        band = [np.pad(m.diagonal(d), (d, 0)) for d in range(upper, -1, -1)]
        try:
            scipy.linalg.cholesky_banded(band)
        except np.linalg.LinAlgError as exc:
            raise MassNotPositiveDefinite(str(exc)) from exc
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "square_stiffness", k2)

    @property
    def dim(self):
        return self.stiffness.shape[0]


def assemble_floer_operator(cfg):
    """Piecewise-linear element discretization of ``J u' + C(t) u``.

    The first-order part uses the symmetrized weak form, whose boundary
    correction vanishes on the admissible boundary lines, so the assembled
    stiffness is symmetric to machine precision.  One scalar coordinate is
    eliminated at each endpoint in the rotated frame of its boundary line.
    """
    m_el = cfg.grid_m
    h = 1.0 / m_el
    n_nodes = m_el + 1
    c_nodes = -np.einsum("ij,njk->nik", J2, coefficient_matrices(cfg))
    cl, cr = c_nodes[:-1], c_nodes[1:]

    # symmetrized first-order term (+J/2 above the node diagonal, -J/2 below)
    # plus the zeroth-order term with C interpolated linearly per element
    diag = np.zeros((n_nodes, 2, 2))
    diag[:-1] += h * (cl / 4.0 + cr / 12.0)
    diag[1:] += h * (cl / 12.0 + cr / 4.0)
    off = h * (cl + cr) / 12.0
    k_full = _block_tridiagonal(
        diag, off + 0.5 * J2, np.transpose(off, (0, 2, 1)) - 0.5 * J2
    )

    mass_diag = np.zeros((n_nodes, 2, 2))
    mass_diag[:-1] += (h / 3.0) * np.eye(2)
    mass_diag[1:] += (h / 3.0) * np.eye(2)
    mass_off = np.broadcast_to((h / 6.0) * np.eye(2), (m_el, 2, 2))
    m_full = _block_tridiagonal(mass_diag, mass_off, mass_off)

    # exact element integrals of <A u_h, A v_h>: degree-4 integrand
    elem2 = np.zeros((m_el, 4, 4))
    for xi, wgt in zip(_GAUSS_XI, _GAUSS_W):
        c_here = (1.0 - xi) * cl + xi * cr
        basis = np.concatenate(
            [(-1.0 / h) * J2 + (1.0 - xi) * c_here, (1.0 / h) * J2 + xi * c_here],
            axis=2,
        )
        elem2 += (wgt * h) * np.einsum("eij,eik->ejk", basis, basis)
    diag2 = np.zeros((n_nodes, 2, 2))
    diag2[:-1] += elem2[:, 0:2, 0:2]
    diag2[1:] += elem2[:, 2:4, 2:4]
    k2_full = _block_tridiagonal(diag2, elem2[:, 0:2, 2:4], elem2[:, 2:4, 0:2])

    r = _constraint_map(m_el, cfg.s)
    v0, v1 = boundary_lines(cfg.s)
    dof_map = (
        f"node 0 along ({v0[0]:+.6f},{v0[1]:+.6f}); "
        f"nodes 1..{m_el - 1} unconstrained; "
        f"node {m_el} along ({v1[0]:+.6f},{v1[1]:+.6f})"
    )
    return DiscretizedOperator(
        stiffness=r.T @ k_full @ r,
        mass=r.T @ m_full @ r,
        square_stiffness=r.T @ k2_full @ r,
        dof_map=dof_map,
    )


def _mu_clusters(mus, k_window, scale):
    """Index ranges of near-degenerate values covering the first k_window slots."""
    clusters = []
    covered = 0
    start = 0
    while start < mus.size and covered < k_window:
        stop = start + 1
        while stop < mus.size and mus[stop] - mus[stop - 1] <= 1e-5 * scale:
            stop += 1
        clusters.append((start, stop))
        covered += stop - start
        start = stop
    return clusters


#: Above this size (and with room for ARPACK's six values of slack beyond the
#: window) the smallest squared eigenvalues come from a sparse shift-invert solve.
_DENSE_CUTOFF = 200


def _sign_clusters(op, vectors, clusters, k_window):
    # vectors are mass-orthonormal columns in original coordinates
    out = []
    for start, stop in clusters:
        block = vectors[:, start:stop]
        small_k = block.T @ (op.stiffness @ block)
        small_m = block.T @ (op.mass @ block)
        out.extend(scipy.linalg.eigh(small_k, small_m, eigvals_only=True))
    nearest = sorted(out, key=lambda lam: (abs(lam), lam))[:k_window]
    return np.sort(np.asarray(nearest))


def _spectrum_dense(op, k_window):
    k2, mass = op.square_stiffness.toarray(), op.mass.toarray()
    mus = scipy.linalg.eigh(k2, mass, eigvals_only=True)
    clusters = _mu_clusters(mus, k_window, max(1.0, float(mus[k_window - 1])))
    _, vecs = scipy.linalg.eigh(k2, mass, subset_by_index=(0, clusters[-1][1] - 1))
    return _sign_clusters(op, vecs, clusters, k_window)


def _spectrum_shift_invert(op, k_window):
    # the constrained matrices are banded, so factoring K2 + eps*M is cheap;
    # a fixed start vector keeps the result deterministic
    n_req = k_window + 6
    v0 = np.linspace(1.0, 2.0, op.dim)
    mus, vecs = scipy.sparse.linalg.eigsh(
        op.square_stiffness, k=n_req, M=op.mass, sigma=-1e-6, which="LM", v0=v0
    )
    order = np.argsort(mus)
    mus, vecs = mus[order], vecs[:, order]
    clusters = _mu_clusters(mus, k_window, max(1.0, float(mus[k_window - 1])))
    if sum(b - a for a, b in clusters) < k_window or clusters[-1][1] == n_req:
        # retrieved window may cut through a degenerate cluster
        raise NoConvergence("shift-invert window inconclusive")
    return _sign_clusters(op, vecs, clusters, k_window)


def floer_spectrum(op, k_window):
    """The ``k_window`` eigenvalues nearest zero, ascending.

    Solves the squared pencil ``K2 x = mu M x``; the smallest ``mu`` are the
    squares of the wanted eigenvalues and carry no contribution from the
    sawtooth branch of the first-order stencil.  Signs (and near-degenerate
    ``+-lam`` pairs) are resolved by diagonalizing the first-order form on
    each ``mu`` cluster; a cluster is never split, since that would mix the
    two branches of a pair.
    """
    k_window = int(k_window)
    if k_window < 1 or k_window > op.dim:
        raise InvalidConfig(f"window size {k_window} outside 1..{op.dim}")
    if op.dim > _DENSE_CUTOFF and k_window + 6 < op.dim:
        try:
            return _spectrum_shift_invert(op, k_window)
        except (NoConvergence, scipy.sparse.linalg.ArpackError):
            pass
    return _spectrum_dense(op, k_window)


def mass_normalized(op):
    """The pencil as a single symmetric matrix ``M^{-1/2} K M^{-1/2}``.

    All boundary angles share one coordinate space, so these matrices can be
    compared with the operator metrics directly.  The tail is marked as
    two-sided: the underlying first-order operator is unbounded both ways.
    """
    dec = linalg.sym_eig(op.mass.toarray())
    if np.min(dec.eigenvalues) <= 0.0:
        raise MassNotPositiveDefinite("mass matrix has a nonpositive eigenvalue")
    root_inv = linalg.apply_scalar_function(dec, lambda mu: 1.0 / np.sqrt(mu))
    a = root_inv @ op.stiffness.toarray() @ root_inv
    return SelfAdjointOperator(0.5 * (a + a.T), tail=_TAIL_BOTH)


def _transfer_matrices(cfg, lams, n_steps):
    """End values ``u(1)`` of ``u' = (B(t) - lam J) u``, ``u(0) = (1, 0)``.

    Fourth-order Runge-Kutta on a fixed grid aligned with the coefficient
    samples, vectorized over the batch of spectral parameters ``lams``.
    """
    b_nodes = coefficient_matrices(cfg)

    def b_at(t):
        # piecewise-linear interpolation of the sampled coefficient
        x = min(max(t, 0.0), 1.0) * cfg.grid_m
        k = min(int(x), cfg.grid_m - 1)
        w = x - k
        return (1.0 - w) * b_nodes[k] + w * b_nodes[k + 1]

    lams = np.asarray(lams, dtype=float)
    u = np.zeros((2, lams.size))
    u[0] = 1.0
    dt = 1.0 / n_steps

    def rhs(t, y):
        by = b_at(t) @ y
        return by - lams * (J2 @ y)

    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * dt, u + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, u + 0.5 * dt * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return u


def shooting_eigenvalues(cfg, search_interval, refine_tol=1e-10, scan_step=0.05):
    """Grid-free eigenvalue oracle by shooting from ``t = 0``.

    ``lam`` is an eigenvalue exactly when the end value ``u(1)`` of the
    integrated system is parallel to the admissible line at ``t = 1``; the
    mismatch is the component along the line's unit normal, and its sign
    changes are refined by bisection.  An empty result is legal.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise NoRootBracketed(f"malformed search interval ({lo}, {hi})")
    steps_per_element = max(1, math.ceil(1024 / cfg.grid_m))
    n_steps = steps_per_element * cfg.grid_m
    _, v1 = boundary_lines(cfg.s)
    normal = np.array([-v1[1], v1[0]])

    def mismatch(lams):
        ends = _transfer_matrices(cfg, lams, n_steps)
        return normal @ ends

    n_scan = max(8, math.ceil((hi - lo) / scan_step))
    grid = np.linspace(lo, hi, n_scan + 1)
    vals = mismatch(grid)

    roots = [float(g) for g, v in zip(grid, vals) if v == 0.0]
    sign_change = vals[:-1] * vals[1:] < 0.0
    a = grid[:-1][sign_change]
    b = grid[1:][sign_change]
    fa = vals[:-1][sign_change]
    while a.size and np.max(b - a) > refine_tol:
        mid = 0.5 * (a + b)
        fm = mismatch(mid)
        go_left = fa * fm <= 0.0
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
        fa = np.where(go_left, fa, fm)
    roots.extend(0.5 * (a + b))
    return np.array(sorted(set(np.round(roots, 12))))


def spectral_flow(family, k_window, zero_tol=1e-9):
    """Signed count of pencil eigenvalues crossing zero along a family.

    Crossings are counted upward minus downward with the half-open
    convention: an eigenvalue sitting at zero counts when it arrives there,
    not when it leaves.  ``zero_tol`` decides when a computed eigenvalue sits
    at zero; it must stay below the physical eigenvalue scale.  Consecutive
    windows are aligned by value, allowing the window to slide by at most one
    branch per step; larger motion raises :class:`SamplingTooCoarse`.
    """
    windows = [np.asarray(floer_spectrum(op, k_window), dtype=float) for op in family]
    flow = 0
    for prev, nxt in zip(windows, windows[1:]):
        best = None
        for offset in (0, -1, 1):
            pairs = [
                (prev[i], nxt[i + offset])
                for i in range(len(prev))
                if 0 <= i + offset < len(nxt)
            ]
            if not pairs:
                continue
            motion = max(abs(q - p) for p, q in pairs)
            if best is None or motion < best[0]:
                best = (motion, pairs)
        motion, pairs = best
        gaps = np.diff(prev)
        if gaps.size and motion >= 0.5 * float(np.min(gaps)):
            raise SamplingTooCoarse(
                f"eigenvalue motion {motion:.3e} exceeds half the window gap "
                f"{float(np.min(gaps)):.3e}"
            )
        for p, q in pairs:
            at_or_above_prev = p >= -zero_tol
            at_or_above_next = q >= -zero_tol
            if not at_or_above_prev and at_or_above_next:
                flow += 1
            elif at_or_above_prev and not at_or_above_next:
                flow -= 1
    return flow


@dataclass(frozen=True, eq=False)
class BoundaryProjector:
    """Rank-2 orthogonal projector on the boundary values ``(u(0), u(1))``."""

    matrix: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        if p.shape != (4, 4):
            raise InvalidConfig(f"boundary projector must be 4x4, got {p.shape}")
        if linalg.symmetry_defect(p) > 1e-12:
            raise NotSymmetric("boundary projector is not symmetric")
        if linalg.operator_norm(p @ p - p) > 1e-12:
            raise InvalidConfig("boundary projector is not idempotent")
        if abs(np.trace(p) - 2.0) > 1e-8:
            raise InvalidConfig("boundary projector must have rank 2")
        object.__setattr__(self, "matrix", p)


def boundary_projector(s):
    """Projector whose kernel is the pair of admissible boundary lines.

    The domain constraint reads ``P (u(0), u(1)) = 0``, so the projector maps
    onto the orthogonal complements of the allowed lines at both endpoints.
    """
    v0, v1 = boundary_lines(s)
    n0 = np.array([-v0[1], v0[0]])
    n1 = np.array([-v1[1], v1[0]])
    p = np.zeros((4, 4))
    p[0:2, 0:2] = np.outer(n0, n0)
    p[2:4, 2:4] = np.outer(n1, n1)
    return BoundaryProjector(p)


def boundary_coefficient_operator(cfg):
    """The symmetric zeroth-order coefficient frozen at the two endpoints."""
    a0, a1 = cfg.a_samples[0], cfg.a_samples[-1]
    out = np.zeros((4, 4))
    for k, a in enumerate((a0, a1)):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
            [a.real, a.imag],
            [a.imag, -a.real],
        ]
    return out


def nu_metric(p, q, d0_boundary):
    """Projector distance plus the commutator defect with the boundary operator."""
    d0 = np.asarray(d0_boundary, dtype=float)
    diff = p.matrix - q.matrix
    return linalg.operator_norm(diff) + linalg.operator_norm(diff @ d0 - d0 @ diff)


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
        t = np.linspace(0.0, 1.0, grid_m + 1)
        x = np.clip((t - 0.25) / 0.5, 0.0, 1.0)
        return cls(x * x * (3.0 - 2.0 * x))


def cutoff_gauge_U(hat_u, eta, grid_m):
    """Gauge on grid functions: identity away from ``t = 1``, endpoint block near it.

    Acts node by node as ``(1 - eta) I + eta G`` where ``G`` is the
    endpoint-1 block of ``hat_u`` extended constantly along the collar.
    """
    hat_u = np.asarray(hat_u, dtype=float)
    if hat_u.shape != (4, 4):
        raise InvalidConfig("gauge must be a 4x4 boundary operator")
    if eta.eta.size != grid_m + 1:
        raise InvalidConfig("cutoff sampling does not match the grid")
    g = hat_u[2:4, 2:4]
    out = np.zeros((2 * (grid_m + 1), 2 * (grid_m + 1)))
    for j, e in enumerate(eta.eta):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (1.0 - e) * np.eye(2) + e * g
    return out


def _h1_gram(grid_m):
    h = 1.0 / grid_m
    n = grid_m + 1
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for k in range(grid_m):
        sl = slice(k, k + 2)
        mass[sl, sl] += h * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        stiff[sl, sl] += (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.kron(mass + stiff, np.eye(2))


def h1_operator_norm(x, grid_m):
    """Operator norm of a nodal map in the discrete H^1 inner product."""
    gram = _h1_gram(grid_m)
    chol = np.linalg.cholesky(gram)
    conj = chol.T @ x @ np.linalg.solve(chol.T, np.eye(chol.shape[0]))
    return linalg.operator_norm(conj)


def domain_subspace(cfg):
    """Constrained grid functions of one boundary value problem, as a subspace."""
    r = _constraint_map(cfg.grid_m, cfg.s).toarray()
    return linalg.Subspace(r.shape[0], r)


def rho_continuity_profile(cfg_base, s_samples):
    """Metric moduli between neighbouring members of the family.

    Assembles each angle on the shared grid, mass-normalizes, and reports the
    gap, Riesz and graph distances for every consecutive pair of samples.
    """
    operators = [
        mass_normalized(assemble_floer_operator(cfg_base.with_angle(float(s))))
        for s in s_samples
    ]
    reports = []
    for a0, a1 in zip(operators, operators[1:]):
        delta, gamma = kato_consistency(a0, a1)
        reports.append(
            MetricReport(
                gamma=gamma,
                rho=topology.riesz_metric(a0, a1),
                delta_graphs=delta,
                generator_distances={},
            )
        )
    return reports
