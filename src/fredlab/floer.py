"""One-dimensional family of selfadjoint first-order boundary value problems.

The model operator on ``[0, 1]`` acts on R^2-valued functions as
``A u = J u' + C(t) u`` with ``J = [[0,-1],[1,0]]`` and a symmetric
zeroth-order term ``C(t) = -J S(t)`` built from a complex coefficient
``a(t)``.  The domain constrains ``u(0)`` to the real line and ``u(1)`` to
the line of angle ``-s``, so sweeping ``s`` rotates the boundary condition.

The module discretizes the family with piecewise-linear elements, computes
the spectra near zero, provides a grid-free shooting oracle, and realizes the
boundary-projector distance and the metric moduli between neighbouring
members; ``flow`` counts the spectral flow of the windows.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy  # submodules load on first use

from . import linalg, topology
from .errors import (
    InvalidConfig,
    MassNotPositiveDefinite,
    NoConvergence,
    NoRootBracketed,
    NotSymmetric,
    SamplingTooCoarse,
    require_integer,
)
from .topology import SelfAdjointOperator

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

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


def _element_count(grid_m):
    return require_integer(grid_m, "grid", 8)


def coefficient_matrices(pencil):
    """Per-node 2x2 matrices ``B`` of the zeroth-order ODE term ``u' = B u``.

    Antilinear coupling encodes ``a = p + iq`` as the symmetric trace-free
    ``[[p, q], [q, -p]]``; the linear coupling with ``a = iq`` gives the skew
    matrix ``q*J^T``.
    """
    return _coupling_matrices(pencil.a_samples, pencil.coupling)


def _coupling_matrices(a, coupling):
    """The 2x2 matrix of each sample of ``a`` under ``coupling``."""
    p, q = a.real, a.imag
    out = np.empty(a.shape + (2, 2))
    if coupling is Coupling.ANTILINEAR:
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
    """Unit vectors of the boundary lines at ``t = 0`` and ``t = 1``, ``v1`` along
    the last axis for an array of angles ``s``; each must lie in ``[0, 2 pi]``."""
    s = np.asarray(s, dtype=float)
    outside = ~((s >= 0.0) & (s <= 2.0 * np.pi))
    if outside.any():
        raise InvalidConfig(f"boundary angle {s[outside][0]} outside [0, 2*pi]")
    return np.array([1.0, 0.0]), np.stack([np.cos(s), -np.sin(s)], axis=-1)


def _node_dofs(grid_m, s):
    """Node dof table: coordinate ``i = 2 n + c`` (component ``c`` of node ``n``)
    of a constrained grid function is ``weight[i] * x[dof[i]]``.  Both components
    of an end node map to one dof, weighted by that end's boundary line; each
    interior coordinate is its own dof with weight 1."""
    n_free = 2 * grid_m
    v0, v1 = boundary_lines(s)
    dof = np.concatenate([[0, 0], np.arange(1, n_free - 1), [n_free - 1, n_free - 1]])
    return dof, np.concatenate([v0, np.ones(n_free - 2), v1])


def _element_sum(blocks, dof, weight):
    """Sum per-element 4x4 blocks on nodes ``(e, e + 1)`` through a dof table
    into one CSC matrix; entries that cancel exactly are dropped."""
    coords = 2 * np.arange(blocks.shape[0])[:, None] + np.arange(4)
    d, w = dof[coords], weight[coords]
    rows, cols = np.broadcast_arrays(d[:, :, None], d[:, None, :])
    values = (blocks * w[:, :, None]) * w[:, None, :]
    size = int(dof[-1]) + 1
    x = scipy.sparse.coo_array((values.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size))
    x = x.tocsc()
    x.eliminate_zeros()
    return x.copy()  # frees the COO-sized buffers the pruned arrays still view


def _upper_band(x):
    """Upper band storage of a CSC matrix, the layout ``cholesky_banded`` reads:
    entry ``(i, j)``, ``i <= j``, sits at row ``width + i - j`` of column ``j``."""
    n = x.shape[0]
    col = np.repeat(np.arange(n), np.diff(x.indptr))
    offset = col - x.indices
    upper = offset >= 0
    width = int(np.max(offset, initial=0))
    flat = (width - offset[upper]) * n + col[upper]
    return np.bincount(flat, weights=x.data[upper], minlength=(width + 1) * n).reshape(-1, n)


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Constrained matrices of one boundary value problem.

    ``stiffness`` is the symmetrized first-order form, ``mass`` the element
    mass matrix, and ``square_stiffness`` the exact quadratic form of the
    squared operator; central first-order stencils carry a spurious sawtooth
    branch through the near-zero spectrum, so eigenvalues are extracted from
    the square, which is free of it.  All three are banded and stored as
    ``scipy.sparse.csc_array``; dense input is converted.  ``mass_factor`` is
    the upper band Cholesky factor ``U`` of the mass, ``M = U^T U``, in the
    layout of :func:`_upper_band`: taken once, where the mass is checked
    positive definite, and the only factorization of the mass.
    """

    stiffness: scipy.sparse.csc_array
    mass: scipy.sparse.csc_array
    square_stiffness: scipy.sparse.csc_array
    mass_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fields = (self.stiffness, self.mass, self.square_stiffness)
        shape = np.shape(self.stiffness)
        if len(shape) != 2 or shape[0] != shape[1] or any(np.shape(x) != shape for x in fields):
            raise InvalidConfig("stiffness, mass and square must be square and congruent")
        k, m, k2 = (scipy.sparse.csc_array(x, dtype=float) for x in fields)
        if not all(np.all(np.isfinite(x.data)) for x in (k, m, k2)):
            raise InvalidConfig("stiffness, mass or square holds NaN or Inf")
        for name, x in (("stiffness", k), ("mass", m), ("square_stiffness", k2)):
            scale = max(1.0, float(np.max(np.abs(x.data), initial=0.0)))
            if abs(x - x.T).max() > linalg.SYMMETRY_TOL * scale:
                raise NotSymmetric(f"{name} is not symmetric")
        try:
            factor = scipy.linalg.cholesky_banded(_upper_band(m))
        except np.linalg.LinAlgError as exc:
            raise MassNotPositiveDefinite(str(exc)) from exc
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "square_stiffness", k2)
        object.__setattr__(self, "mass_factor", factor)

    @property
    def dim(self):
        return self.stiffness.shape[0]


def _element_blocks(pencil):
    """Per-element 4x4 blocks of ``K``, ``M`` and ``K2``, stacked.

    The first-order part uses the symmetrized weak form, whose boundary
    correction vanishes on the admissible boundary lines, so the assembled
    stiffness is symmetric to machine precision.
    """
    m_el = pencil.grid_m
    h = 1.0 / m_el
    c_nodes = -np.einsum("ij,njk->nik", J2, coefficient_matrices(pencil))
    cl, cr = c_nodes[:-1], c_nodes[1:]

    # symmetrized first-order term (+J/2 above the node diagonal, -J/2 below)
    # plus the zeroth-order term with C interpolated linearly per element
    off = h * (cl + cr) / 12.0
    k_e = np.block(
        [
            [h * (cl / 4.0 + cr / 12.0), off + 0.5 * J2],
            [np.transpose(off, (0, 2, 1)) - 0.5 * J2, h * (cl / 12.0 + cr / 4.0)],
        ]
    )
    m_e = np.broadcast_to((h / 6.0) * np.kron([[2.0, 1.0], [1.0, 2.0]], np.eye(2)), k_e.shape)

    # exact element integrals of <A u_h, A v_h>: degree-4 integrand
    k2_e = np.zeros((m_el, 4, 4))
    for xi, wgt in zip(_GAUSS_XI, _GAUSS_W):
        c_here = (1.0 - xi) * cl + xi * cr
        basis = np.concatenate(
            [(-1.0 / h) * J2 + (1.0 - xi) * c_here, (1.0 / h) * J2 + xi * c_here],
            axis=2,
        )
        k2_e += (wgt * h) * np.einsum("eij,eik->ejk", basis, basis)
    return np.stack([k_e, m_e, k2_e])


#: Angles per block of :meth:`FloerPencil.spectra`.  A Rayleigh-Ritz step
#: holds its vectors as coefficients on the interior's reduced basis, about
#: ``11 x 45`` values per angle at every grid, so a block forms no
#: dof-length array and its size bounds only the batched secular solve.
_BLOCK_ANGLES = 64


@dataclass(frozen=True, eq=False)
class FloerPencil:
    """Piecewise-linear element discretization of ``J u' + C(t) u`` for one
    coefficient, ``a_samples`` at the :attr:`nodes`, at every boundary angle.

    The element blocks (all the quadrature) are built once, on first use.  The
    angle enters only through the weights of the last dof, so every per-angle
    computation reads it from :meth:`border`, that dof's column in closed
    form: :meth:`spectra` and the neighbour profile build no operator per
    angle.  :meth:`at` sums the blocks into a full operator, which a run
    builds once, at angle 0, as :attr:`base`, for the fixed interior.  The dof
    table keeps one scalar coordinate at each endpoint, along its boundary line.
    A coefficient near the float limit overflows the element sums; the NaN or
    Inf entries raise :class:`InvalidConfig` in :class:`DiscretizedOperator`.
    """

    a_samples: np.ndarray
    grid_m: int
    coupling: Coupling = Coupling.ANTILINEAR

    def __post_init__(self):
        grid_m = _element_count(self.grid_m)
        try:
            coupling = Coupling(self.coupling)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"need a Coupling: {exc}") from None
        a = np.asarray(self.a_samples, dtype=complex)
        if a.shape != (grid_m + 1,):
            raise InvalidConfig(f"need {grid_m + 1} coefficient samples, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidConfig("coefficient samples contain NaN or Inf")
        if coupling is Coupling.LINEAR_IMAGINARY:
            scale = max(1.0, float(np.max(np.abs(a))))
            if float(np.max(np.abs(a.real))) > 1e-12 * scale:
                raise InvalidConfig(
                    "linear coupling is symmetric only for purely imaginary a"
                )
        object.__setattr__(self, "a_samples", a)
        object.__setattr__(self, "grid_m", grid_m)
        object.__setattr__(self, "coupling", coupling)

    @classmethod
    def zero(cls, grid_m, coupling=Coupling.ANTILINEAR):
        return cls(np.zeros(_element_count(grid_m) + 1, dtype=complex), grid_m, coupling)

    @classmethod
    def constant(cls, a, grid_m, coupling=Coupling.ANTILINEAR):
        return cls(np.full(_element_count(grid_m) + 1, complex(a)), grid_m, coupling)

    @property
    def nodes(self):
        return np.linspace(0.0, 1.0, self.grid_m + 1)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def blocks(self):
        """The element blocks (see :func:`_element_blocks`), on first use."""
        return _element_blocks(self)

    @np.errstate(over="ignore", invalid="ignore")
    def at(self, s):
        """The discretized operator at boundary angle ``s``: the element blocks
        weighted by the dof table at ``s`` and summed."""
        dof, weight = _node_dofs(self.grid_m, s)
        return DiscretizedOperator(*(_element_sum(x, dof, weight) for x in self.blocks))

    @property
    def border_rows(self):
        """The interior dofs that the last dof's border reaches: the two of
        the last element's left node."""
        dof, _ = _node_dofs(self.grid_m, 0.0)
        return dof[2 * self.grid_m - 2 : 2 * self.grid_m]

    def border(self, s):
        """The last column of ``K``, ``M`` and ``K2`` (``x`` = 0, 1, 2) at the
        angles ``s``, each checked to lie in ``[0, 2 pi]``: ``cols[x]`` on
        :attr:`border_rows` and the corner ``diag[x]``, the angles' axes after
        ``x``.  With ``X`` the last element's block and ``v1 = (cos s, -sin
        s)`` they are ``X[0:2, 2:4] v1`` and ``v1^T X[2:4, 2:4] v1``, bitwise
        the entries that :meth:`at` sums."""
        _, v1 = boundary_lines(s)
        last = self.blocks[:, -1]
        with np.errstate(over="ignore", invalid="ignore"):
            cols = np.einsum("xij,...j->x...i", last[:, :2, 2:], v1)
            diag = np.einsum("...i,xij,...j->x...", v1, last[:, 2:, 2:], v1)
        return cols, diag

    @cached_property
    def base(self):
        """The operator at angle 0, assembled and checked once, on first use."""
        return self.at(0.0)

    def spectra(self, angles, k_window):
        """The ``k_window`` eigenvalues nearest zero at each of ``angles``,
        each window ascending, yielded in input order.

        The windows come ``_BLOCK_ANGLES`` angles at a time from
        :func:`_bordered_windows`, on one :func:`_interior_pairs` of
        :attr:`base` for ``k_window``, set up when the first block arrives, so
        ``angles`` may be any iterable and is read one block ahead.  The call
        keeps one list of the interior factorizations it has made, one per
        cut (see :func:`_certify`), so a cut factored in one block certifies
        the angles of later blocks too; the interior and the list end with
        the call, and the pencil keeps neither.  An angle whose window cannot
        be certified raises :class:`NoConvergence`, naming the angle.
        """
        k_window = _window_size(k_window, self.base.dim)
        angles = iter(angles)
        interior, cuts = None, []
        while (s := np.fromiter(itertools.islice(angles, _BLOCK_ANGLES), dtype=float)).size:
            if interior is None:
                interior = _interior_pairs(self.base, self.border_rows, k_window)
            yield from _bordered_windows(interior, s, *self.border(s), k_window, cuts)


#: Relative spacing below which two squared eigenvalues count as degenerate.
_DEGENERACY_RTOL = 1e-5

#: Roundoff bound on ``|lam|`` of a ``+-lam`` pair (they agree to about 1e-14).
_MIRROR_RTOL = 1e-10


def _cut(mus, k_window, dim):
    """Ritz block size for each row of ``mus``, the smallest squared eigenvalues
    of one operator, ascending.

    The block ends in the widest gap of ``mus[k_window - 1:]``, so no ``+-lam``
    pair is split, or at the spectrum's end if all of it is at hand and no gap
    is open; 0 means that the row needs more values.
    """
    gaps = np.diff(mus[:, k_window - 1 :], axis=1)
    widest = np.argmax(gaps, axis=1) if gaps.shape[1] else 0
    gap_open = np.max(gaps, axis=1, initial=0.0) > _DEGENERACY_RTOL * np.maximum(1.0, mus[:, -1])
    return np.where(gap_open, k_window + widest, dim if mus.shape[1] == dim else 0)


def _nearest(ritz, k_window):
    """The ``k_window`` values nearest zero of each row of ``ritz``, ascending.

    Where ``|lam|`` ties at the window's edge within ``_MIRROR_RTOL`` the
    negative value is kept, so roundoff never picks the sign of a mirror pair.
    """
    mag = np.abs(ritz)
    edge = np.sort(mag, axis=1)[:, k_window - 1 : k_window]
    tied = np.abs(mag - edge) <= _MIRROR_RTOL * np.maximum(1.0, edge)
    order = np.lexsort((ritz, np.where(tied, edge, mag)), axis=1)
    return np.sort(np.take_along_axis(ritz, order[:, :k_window], axis=1), axis=1)


def _window_size(k_window, dim):
    k_window = require_integer(k_window, "window size", 1)
    if k_window > dim:
        raise InvalidConfig(f"need window size <= {dim}, got {k_window}")
    return k_window


class _Interior(NamedTuple):
    """An operator cut at its last dof, for windows that read ``n_req``
    squared values, and the ``rows`` of the interior that its border reaches.

    ``lam`` are the poles, the Ritz values of ``K2`` and ``M`` on all other
    dofs over the reduced basis ``W`` of :func:`_interior_pairs`, ascending,
    and ``near`` the ``rows`` of their ``M``-orthonormal Ritz vectors ``Y``:
    45 or 46 at windows of 5 (21 or 22 near pairs and 12 x 2 remainder
    columns at grids 48 to 1600, for ``a = 0`` and ``const:1.5,-0.7``).  The
    lowest are the near poles of :func:`_near_pairs`.  Every Ritz vector of a
    window lies, on the interior, in the span of ``Y``, so ``gram_k`` holds
    ``Y^T K Y`` of the interior block (``Y^T M Y = I``), a Ritz step reads
    the vectors through their coefficients on ``Y`` alone (see
    :func:`_grams`), and the interior keeps no dof-length vector.  The
    interior blocks of ``M`` and ``K2`` follow.
    """

    n_req: int
    lam: np.ndarray
    near: np.ndarray
    mass: scipy.sparse.csc_array
    square_stiffness: scipy.sparse.csc_array
    rows: np.ndarray
    gram_k: np.ndarray


def _factor(shifted, what):
    """One unpivoted ``LDL^T`` of a sparse symmetric matrix, SuperLU's in its
    symmetric mode; an exactly zero pivot or a row swap raises
    :class:`NoConvergence`, naming ``what`` was factored."""
    options = {"SymmetricMode": True}
    try:
        lu = scipy.sparse.linalg.splu(shifted, "NATURAL", diag_pivot_thresh=0.0, options=options)
    except RuntimeError as exc:  # an exactly zero pivot
        raise NoConvergence(f"{what} failed: {exc}") from exc
    if np.any(lu.perm_r != np.arange(shifted.shape[0])):
        raise NoConvergence(f"{what} needed row pivoting")
    return lu


def _negative_count(lu):
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _unit_columns(n, rows):
    unit = np.zeros((n, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    return unit


def _interior_inertia(interior, cut):
    """Negative inertia of ``T = K2 - cut M`` on the interior and ``G =
    (T^-1)[rows][:, rows]``, from one unpivoted ``LDL^T`` of ``T``.

    Bordered by ``[b; d]`` at the last dof, ``K2 - cut M`` then has ``neg(T) +
    [sigma < 0]`` squared eigenvalues below ``cut`` (Sylvester; Haynsworth,
    Linear Algebra Appl. 1, 1968), with the Schur form ``sigma = d - b^T G b``
    its last pivot.  Only the sparse blocks are read, not the Ritz pairs, so
    the count does not depend on the secular model it certifies.
    """
    lu = _factor(interior.square_stiffness - cut * interior.mass, f"inertia count at {cut:.6g}")
    unit = _unit_columns(interior.mass.shape[0], interior.rows)
    return _negative_count(lu), lu.solve(unit)[interior.rows]


#: Near poles lie below this multiple of ``R``, the top of every bracket of a
#: secular solve, so the far ones lie past ``4 R`` and their remainder is
#: analytic well beyond ``[-R/4, R]``.  At ``R = lam_10`` (windows of 5) that
#: is 21-22 near poles at grids 96, 400 and 800, for ``a = 0`` and
#: ``const:1.5,-0.7``.
_NEAR_RATIO = 4.0

#: Passes of block inverse iteration before :func:`_inverse_iteration` gives
#: up; 17 to 22 reach and confirm the rounding floor at grids 96 to 1600.
_MAX_PASSES = 100


def _request(k_window, dim):
    """The squared values a window of ``k_window`` reads: six more for slack,
    at most ``dim``."""
    return min(k_window + 6, dim)


def _near_pairs(k2, mass, n_req):
    """The near poles of the pencil ``(k2, mass)``, below ``_NEAR_RATIO R``
    with ``R`` its ``n_req``-th eigenvalue (infinite past the last), their
    ``M``-orthonormal vectors, and ``R``.

    By Cauchy interlacing the operator bordered by one dof has its
    ``n_req`` smallest squared values at or below ``R``, so ``R`` tops every
    bracket that a window reads.  The pairs come from block inverse iteration
    (:func:`_inverse_iteration`) on one ``LDL^T`` of ``k2 + mass``.  The block
    starts at ``4 n_req`` columns, about twice the near poles where the poles
    grow like squares (the slowest near pair then converges by about ``1/4``
    per pass), and doubles while they fill more than half of it; a block of
    every dof is exact.  One ``LDL^T`` of ``k2 - _NEAR_RATIO R mass``
    certifies the count of near poles; a count that differs doubles the block
    too, and raises :class:`NoConvergence` once the block holds every dof.
    """
    n = mass.shape[0]
    shift = _factor(k2 + mass, "interior shift")
    size = min(4 * n_req, n)
    while True:
        lam, v = _inverse_iteration(k2, mass, shift, size, n_req)
        top = lam[n_req - 1] if n_req <= n else np.inf
        near = int(np.count_nonzero(lam < _NEAR_RATIO * top))
        if size < n and 2 * near > size:
            size = min(2 * size, n)
            continue
        if near == n or near == _negative_count(
            _factor(k2 - _NEAR_RATIO * top * mass, "near-pole count")
        ):
            return lam[:near], v[:, :near], top
        if size == n:
            raise NoConvergence(f"{near} near poles fail their count at {_NEAR_RATIO * top:.6g}")
        size = min(2 * size, n)


def _inverse_iteration(k2, mass, shift, size, n_req):
    """Ritz pairs ``(lam, V)`` of ``(k2, mass)`` on ``size`` columns,
    ascending and ``M``-orthonormal, from the ``LDL^T`` ``shift`` of ``k2 +
    mass``.

    Each pass solves for ``Y = shift^-1 M V (lam + 1)``, which keeps the
    columns near unit size, and a Rayleigh-Ritz step on ``Y`` gives the next
    pairs.  The columns start from a fixed seed, so the pairs are the same
    at every call.  The iteration stops once the largest relative residual
    ``|K2 v - lam M v| / ((lam + 1) |M v|)`` of the pairs below
    ``_NEAR_RATIO`` times the ``n_req``-th falls by less than a tenth in a
    pass: the residuals have reached their rounding floor, 2e-12 to 6e-11
    at grids 96 to 1600.
    """
    n = mass.shape[0]
    mv = mass @ np.random.default_rng(0).standard_normal((n, size))
    lam, worst = np.zeros(size), np.inf
    for _ in range(_MAX_PASSES):
        y = shift.solve(mv * (lam + 1.0))
        ky, my = k2 @ y, mass @ y
        try:
            lower_inv = np.linalg.inv(np.linalg.cholesky(y.T @ my))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"inverse iteration lost its block: {exc}") from exc
        lam, z = np.linalg.eigh(lower_inv @ (y.T @ ky) @ lower_inv.T)
        z = lower_inv.T @ z
        kv, mv = ky @ z, my @ z
        top = lam[n_req - 1] if n_req <= n else np.inf
        near = max(1, int(np.count_nonzero(lam < _NEAR_RATIO * top)))
        residual = np.linalg.norm(kv[:, :near] - mv[:, :near] * lam[:near], axis=0)
        residual = np.max(residual / ((lam[:near] + 1.0) * np.linalg.norm(mv[:, :near], axis=0)))
        if residual > 0.9 * worst:
            return lam, y @ z
        worst = residual
    raise NoConvergence(f"inverse iteration stalled at a residual of {worst:.3e}")


#: Chebyshev nodes of the far remainder.  At 12 its ``rows`` block is within
#: 2e-15 to 1.1e-14 relative of direct solves between the nodes (grids 48,
#: 400 and 800, ``a = 0`` and ``const:1.5,-0.7``); 8 nodes give 1e-11 to
#: 5e-10, and 16 no better than 12.
_FAR_NODES = 12

#: Relative error of the remainder's ``rows`` block, against direct solves
#: between the nodes, above which the nodes double.
_FAR_RTOL = 1e-13


def _far_remainder(k2, mass, rows, near, span):
    """Chebyshev coefficients on ``span`` of the far remainder ``X_far(mu) =
    P (K2 - mu M)^-1 P^T E``, with ``E`` the unit columns of ``rows`` and
    ``P = I - V V^T M`` the ``M``-orthogonal projector past the near vectors
    ``V``: one ``rows x dofs`` block of ``X_far^T`` per degree.

    With exact near pairs ``X_far`` is the sum over the far poles, ``v
    v[rows]^T / (lam - mu)``, analytic where no far pole lies; projecting on
    both sides keeps an error ``eps`` of the near vectors to ``eps^2``.  Each
    node costs one ``LDL^T`` and a solve on ``P^T E``.  Two direct solves
    between the nodes, next to the top of the span and at its middle, check
    the ``rows`` block against :data:`_FAR_RTOL`; a miss doubles the nodes,
    and a third miss raises :class:`NoConvergence`.
    """
    cheb = np.polynomial.chebyshev
    rhs = _unit_columns(mass.shape[0], rows)
    rhs -= mass @ (near @ near[rows].T)
    lo, hi = span

    def direct(x):
        y = _factor(k2 - (lo + 0.5 * (hi - lo) * (x + 1.0)) * mass, "far remainder").solve(rhs)
        return (y - near @ (near.T @ (mass @ y))).T

    for nodes in _FAR_NODES * np.array([1, 2, 4]):
        x = cheb.chebpts1(nodes)
        values = np.array([direct(xi) for xi in x])
        coef = (2.0 / nodes) * (cheb.chebvander(x, nodes - 1).T @ values.reshape(nodes, -1))
        coef[0] *= 0.5
        coef = coef.reshape(values.shape)
        checks = [np.cos(np.pi / nodes), 0.0]
        fitted = np.tensordot(cheb.chebvander(np.array(checks), nodes - 1), coef, axes=1)
        wanted = [direct(xi)[:, rows] for xi in checks]
        if all(
            np.max(np.abs(got[:, rows] - want)) <= _FAR_RTOL * np.max(np.abs(want))
            for got, want in zip(fitted, wanted)
        ):
            return coef
    raise NoConvergence(f"the far remainder misses {_FAR_RTOL:g} at {nodes} nodes")


def _interior_pairs(op, rows, k_window):
    """The :class:`_Interior` of ``op``, whose border reaches ``rows``, for
    windows of ``k_window`` values.

    The reduced basis ``W`` holds the near vectors of :func:`_near_pairs`
    and, where poles remain past them, the columns of the remainder of
    :func:`_far_remainder` on ``[-R/4, R]``, which holds every bracket of a
    secular solve, root 0's below 0 too.  The exact interior part of a
    window's vector is ``(K2 - mu M)^-1 (mu e - b)``: its near part lies in
    the span of the near vectors and, through the Chebyshev interpolant, its
    far part in the span of the remainder's columns.  So the Ritz pairs on
    ``W`` (:func:`_ritz_pairs`) stand for the whole interior, the far poles
    among them.  The interior mass is not factored again: its upper band
    Cholesky factor, which the Ritz step reads, is the leading block of
    ``op.mass_factor``.  No ``n x n`` array is formed.
    """
    n_req = _request(k_window, op.dim)
    mass, k2 = op.mass[:-1, :-1], op.square_stiffness[:-1, :-1]
    n, rows = mass.shape[0], np.asarray(rows)
    lam, near, top = _near_pairs(k2, mass, n_req)
    basis = near
    if lam.size < n:
        far = _far_remainder(k2, mass, rows, near, (-0.25 * top, top))
        basis = np.concatenate([near, far.reshape(-1, n).T], axis=1)
    lam, y = _ritz_pairs(k2, op.mass_factor[:, :-1], basis)
    gram_k = y.T @ (op.stiffness[:-1, :-1] @ y)
    return _Interior(n_req, lam, y[rows], mass, k2, rows, gram_k)


def _ritz_pairs(k2, band, basis):
    """Ritz pairs of ``(k2, M)`` on the span of ``basis``: ascending values
    and ``M``-orthonormal vectors, with ``M = U^T U`` and ``band`` the upper
    band Cholesky factor ``U`` (see :class:`DiscretizedOperator`).

    The span is made ``M``-orthonormal as ``Z = U^-1 Q``, from a Householder
    QR of ``U basis``; ``Q`` stays orthonormal where the columns are nearly
    dependent, as the remainder's high degrees are, and no Gram of ``basis``
    is formed.  The two triangles of ``Z^T K2 Z`` are averaged, which halves
    the rounding that the far directions bring to the lowest values.  The
    QR is numpy's: in a sweep on a 2 vCPU host at two BLAS threads scipy's
    took 0.4 to 4.5 ms a call, and numpy's 0.3 ms.  The ``eigh`` is scipy's
    MRRR: at grid 400 its lowest values lie within 6e-13 relative of the
    near pairs, against 1.4e-12 by numpy's divide and conquer, and its
    vectors of the modes that do not reach the border keep couplings that
    deflate.
    """
    width, n = band.shape[0] - 1, band.shape[1]
    upper = scipy.sparse.dia_array((band, np.arange(width, -1, -1)), shape=(n, n))
    q, _ = np.linalg.qr(upper @ basis)
    z = scipy.linalg.solve_banded((0, width), band, q, check_finite=False)
    ritz = z.T @ (k2 @ z)
    lam, u = scipy.linalg.eigh(0.5 * (ritz + ritz.T), check_finite=False)
    return lam, z @ u


def _secular_roots(poles, weights, alpha, beta, count):
    """The ``count`` smallest roots of ``w(mu) = alpha - beta mu + sum_j
    weights_j / (mu - poles_j)`` at each angle, with ``diff[a, k, j] = mu[a,
    k] - poles_j``.

    The angles (the leading axis of ``weights``, ``alpha`` and ``beta``) share
    the ``poles``.  These ascend and ``weights`` are positive, and ``-w'`` is
    the squared ``M``-norm of the root's vector, so ``w`` decreases strictly
    between poles and root ``k`` is the one between poles ``k - 1`` and
    ``k``.  Each root is sought as an offset ``tau`` from its nearer pole, so
    ``diff`` carries no cancellation, by fixed-weight steps as in LAPACK's
    ``dlaed4``: the model keeps that pole with its own weight, ``alpha - beta
    mu`` at its value and slope, and matches ``w'`` with one more pole at the
    bracket's far end (past an end pole, with a slope).  A step that leaves
    the bracket bisects it, and a root stops once ``|w|`` is within the
    rounding bound of its evaluation; its offset then stays while the other
    roots go on.  An end root's bracket is bounded from ``alpha`` and
    ``beta``.
    """
    m, n_ang = poles.size, alpha.size
    if m == 0:
        return (alpha / beta)[:, None], np.zeros((n_ang, 1, 0))
    if np.any(np.diff(poles) <= 0.0):
        raise NoConvergence("two coupled interior eigenvalues coincide")
    k = np.arange(count)
    left, right = np.maximum(k - 1, 0), np.minimum(k, m - 1)
    both = (k > 0) & (k < m)
    alpha, beta = alpha[:, None], beta[:, None]
    # between two poles the sign of w at the middle picks the nearer one
    origin = np.repeat(np.where(k < m, right, left)[None], n_ang, axis=0)
    mid = 0.5 * (poles[left[both]] + poles[right[both]])
    w_mid = alpha - beta * mid + np.sum(weights[:, None] / (mid[:, None] - poles), axis=2)
    origin[:, both] = np.where(w_mid < 0.0, left[both], right[both])
    from_right = origin == k
    p_o = poles[origin]
    delta = poles - p_o[:, :, None]
    far_end = np.where(from_right, poles[left] - p_o, poles[right] - p_o)
    others = np.where(np.arange(m) == origin[:, :, None], 0.0, weights[:, None, :])
    z_o = np.take_along_axis(weights, origin, axis=1)
    c0 = alpha - beta * p_o
    # past an end pole |alpha - beta p| / beta + sqrt(Z / beta) bounds the root,
    # because each term of the sum is at most Z / |mu - p| there
    end = np.abs(c0) / beta + np.sqrt(np.sum(weights, axis=1, keepdims=True) / beta)
    reach = np.where(both, 0.5 * np.abs(far_end), end)
    lo = np.where(from_right, -reach, 0.0)
    hi = np.where(from_right, 0.0, reach)
    tau = 0.5 * (lo + hi)
    if m > 1:
        # an end root starts at most one neighbouring gap from its pole
        tau[:, 0] = np.maximum(tau[:, 0], poles[0] - poles[1])
        if count > m:
            tau[:, m] = np.minimum(tau[:, m], poles[-1] - poles[-2])
    eps = np.finfo(float).eps
    done = np.zeros(tau.shape, dtype=bool)
    for _ in range(64):
        d = tau[:, :, None] - delta
        t, t_o = others / d, z_o / tau
        w = c0 - beta * tau + t_o + np.sum(t, axis=2)
        terms = np.abs(c0) + beta * np.abs(tau) + np.abs(t_o) + np.sum(np.abs(t), axis=2)
        lo, hi = np.where(w > 0.0, tau, lo), np.where(w < 0.0, tau, hi)
        rest = np.sum(t / d, axis=2) + beta
        d_far = np.where(both, tau - far_end, 1.0)
        z_far = np.where(both, rest * d_far * d_far, 0.0)
        c = w - t_o - z_far / d_far
        # the model's root: c (eta + tau) (eta + d_far) + z_o (eta + d_far) +
        # z_far (eta + tau) = 0 between poles, (c - rest eta) (eta + tau) + z_o = 0
        # past an end pole
        qa = np.where(both, c, -rest)
        qb = np.where(both, c * (tau + d_far) + z_o + z_far, c - rest * tau)
        qc = tau * d_far * w
        with np.errstate(divide="ignore", invalid="ignore"):
            root = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
            nxt = tau + np.stack([qc / root, root / qa])
            inside = (nxt > lo) & (nxt < hi)
        nxt = np.where(inside[0], nxt[0], np.where(inside[1], nxt[1], 0.5 * (lo + hi)))
        done |= (np.abs(w) <= 8.0 * eps * terms) | (nxt == tau)
        if done.all():
            return p_o + tau, tau[:, :, None] - delta
        tau = np.where(done, tau, nxt)
    raise NoConvergence(f"{np.count_nonzero(~done)} secular roots did not converge")


def _bordered_pairs(interior, r, f, alpha, beta, coupled):
    """The ``n_req`` smallest squared eigenpairs at a group of angles that
    share the mask ``coupled`` of poles: ascending ``mus``, and the interior
    parts ``x = Y coef`` of the M-orthonormal vectors, as their coefficients
    ``coef`` on the interior's Ritz vectors ``Y``, and their last entries
    ``t``, one row each.

    A root ``mu`` of a coupled mode has the vector ``[Y (r / (mu - lam) -
    f); 1]``, and each decoupled mode the exact pair ``(lam_i, [Y e_i;
    0])``.  The ``n_req`` smallest of the roots and the deflated values are
    the smallest eigenvalues of the pencil compressed to ``Y`` and the last
    dof; no dof-length vector is formed.
    """
    lam, n_req = interior.lam, interior.n_req
    on, off = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    mus, diff = _secular_roots(lam[on], r[:, on] ** 2, alpha, beta, min(n_req, on.size + 1))
    n_ang, n_roots = mus.shape
    u = r[:, None, on] / diff
    norm = np.sqrt(np.sum(u * u, axis=2) + beta[:, None])
    kept = off[:n_req]
    coef = np.zeros((n_ang, n_roots + kept.size, lam.size))
    coef[:, :n_roots] = -f[:, None, :]
    coef[:, :n_roots, on] += u
    coef[:, :n_roots] /= norm[:, :, None]
    coef[:, n_roots + np.arange(kept.size), kept] = 1.0
    t = np.concatenate([1.0 / norm, np.zeros((n_ang, kept.size))], axis=1)
    mus = np.concatenate([mus, np.broadcast_to(lam[kept], (n_ang, kept.size))], axis=1)
    order = np.argsort(mus, axis=1, kind="stable")[:, :n_req]
    coef = np.take_along_axis(coef, order[:, :, None], axis=1)
    return np.take_along_axis(mus, order, axis=1), coef, np.take_along_axis(t, order, axis=1)


def _grams(interior, cols, diag, coef, t):
    """Gram matrices of ``K`` and ``M`` on the vectors ``[Y coef; t]``, per
    angle, with ``Y`` the interior's Ritz vectors: ``coef (Y^T X Y) coef^T``
    for the interior block ``X``, from :attr:`_Interior.gram_k` for ``K`` and
    ``coef coef^T`` for ``M`` (``Y`` is ``M``-orthonormal), and the border on
    ``Y[rows] coef`` and ``t``."""
    edge, coef_t = coef @ interior.near.T, coef.transpose(0, 2, 1)
    tt = t[:, :, None] * t[:, None, :]
    out = []
    for inner, col, d in zip((coef @ interior.gram_k @ coef_t, coef @ coef_t), cols, diag):
        cross = (edge @ col[:, :, None]) * t[:, None, :]
        out.append(inner + cross + cross.transpose(0, 2, 1) + d[:, None, None] * tt)
    return out


def _uncertified(angle, cause):
    """The error of an angle whose window could not be certified."""
    return NoConvergence(f"no certified window at angle {float(angle)!r}: {cause}")


def _bordered_windows(interior, angles, cols, diag, k_window, cuts):
    """The ``k_window`` eigenvalues nearest zero at a block of ``angles``, one
    ascending row each, from the Ritz pairs of ``interior``, made for
    ``k_window``.

    ``cols`` and ``diag`` are :meth:`FloerPencil.border` at the angles.  With
    ``Y`` the interior's Ritz vectors, the border ``[b; c]`` of ``K2`` and
    ``[e; d]`` of ``M`` enters as ``g = Y^T b`` and ``f = Y^T e``.
    Eliminating ``f`` leaves an arrowhead pencil on the poles: with ``r = g -
    lam f``, ``beta = d - f^T f`` and ``alpha = c - 2 r^T f - sum lam_i
    f_i^2``, the squared eigenvalues are the roots of ``alpha - beta mu + sum
    r_i^2 / (mu - lam_i)``, one between each two poles (see
    :func:`_bordered_pairs`).  A coupling ``r_i`` at rounding level
    deflates.  Angles with one mask of coupled modes share a secular solve of
    ``k_window + 6`` roots, and their block sizes (:func:`_cut`) need an open
    gap among those squared values.  One Rayleigh-Ritz step per block size,
    batched, gives the signed window (:func:`_nearest`), and an inertia count
    at a cut past its block certifies that no value was missed (see
    :func:`_certify`: one interior ``LDL^T`` per cut, taken from or appended
    to the caller's list ``cuts``, and the sign of each border's Schur form).
    A group whose secular solve fails, or that holds an angle with no open
    gap, raises :class:`NoConvergence` naming its first such angle, and so
    does a window that fails its certificate.
    """
    lam = interior.lam
    dim = interior.mass.shape[0] + 1
    if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(diag))):
        raise InvalidConfig("border of stiffness, mass or square holds NaN or Inf")
    g, f = cols[2] @ interior.near, cols[1] @ interior.near
    r = g - lam * f
    beta = diag[1] - np.sum(f * f, axis=1)
    alpha = diag[2] - 2.0 * np.sum(r * f, axis=1) - (f * f) @ lam
    # rounding level of the arrowhead [[lam, r / sqrt(beta)], [., alpha / beta]]
    scale = np.maximum(
        np.max(np.abs(lam)),
        np.maximum(np.abs(alpha) / beta, np.linalg.norm(r, axis=1) / np.sqrt(beta)),
    )
    coupled = np.abs(r) > 8.0 * np.finfo(float).eps * np.sqrt(beta)[:, None] * scale[:, None]
    groups = {}
    for i, mask in enumerate(coupled):
        groups.setdefault(mask.tobytes(), []).append(i)
    windows = np.empty((alpha.size, k_window))
    for idx in map(np.array, groups.values()):
        try:
            mus, coef, t = _bordered_pairs(
                interior, r[idx], f[idx], alpha[idx], beta[idx], coupled[idx[0]]
            )
        except NoConvergence as exc:
            raise _uncertified(angles[idx[0]], exc) from exc
        sizes = _cut(mus, k_window, dim)
        if not np.all(sizes):
            cause = f"no open gap among the {interior.n_req} smallest squared values"
            raise _uncertified(angles[idx[np.argmin(sizes)]], cause)
        gram_k, gram_m = _grams(interior, cols[:2, idx], diag[:2, idx], coef, t)
        for size in np.unique(sizes):
            sel = np.flatnonzero(sizes == size)
            lower_inv = np.linalg.inv(np.linalg.cholesky(gram_m[sel, :size, :size]))
            reduced = lower_inv @ gram_k[sel, :size, :size] @ lower_inv.transpose(0, 2, 1)
            windows[idx[sel]] = _nearest(np.linalg.eigvalsh(reduced), k_window)
        _certify(interior, angles[idx], cols[:, idx], diag[:, idx], mus, sizes, cuts)
    return windows


def _certify(interior, angles, cols, diag, mus, sizes, cuts):
    """Check the windows at ``angles`` by inertia counts at the cuts listed in
    ``cuts``, ``(cut, neg, G)`` from :func:`_interior_inertia`, oldest first.

    Row ``a`` of ``mus`` holds the squared values of angle ``a``, ascending, and
    ``sizes[a]`` its block size; a block of the whole row has nothing to
    check.  A cut counts for an angle if it lies in the middle half of an
    open gap ``(mus[a, t - 1], mus[a, t])`` with ``t`` at least the block
    size; the angle then has ``t`` values below it.  Each angle takes the
    newest listed cut that counts for it, or else factors the middle of its
    own cut gap and appends it to ``cuts``.  The angles are matched to the
    list at once; the first that no cut serves factors its cut, and the
    angles after it are matched again, so each angle sees the list as the
    angles before it left it.  A failed factorization raises
    :class:`NoConvergence` naming its angle; once every angle is matched, so
    does the first angle whose count differs or whose border's Schur form is
    zero or not finite.
    """
    lo, hi = mus[:, :-1], mus[:, 1:]
    width, t = hi - lo, np.arange(1, mus.shape[1])
    gap_open = (t >= sizes[:, None]) & (width > _DEGENERACY_RTOL * np.maximum(1.0, mus[:, -1:]))
    low, high = lo + 0.25 * width, hi - 0.25 * width
    taken, expected = np.full(sizes.size, -1), np.zeros(sizes.size, dtype=int)
    todo = np.flatnonzero(sizes < mus.shape[1])
    while todo.size:
        # inside[a, c, t - 1]: listed cut c lies in the middle half of open gap t
        c = np.array([entry[0] for entry in cuts])[:, None]
        inside = gap_open[todo, None] & (low[todo, None] <= c) & (c <= high[todo, None])
        newest = np.max(np.where(inside.any(axis=2), np.arange(len(cuts)), -1), axis=1, initial=-1)
        stop = np.argmin(newest) if np.any(newest < 0) else todo.size
        served = todo[:stop]
        taken[served] = newest[:stop]
        expected[served] = 1 + np.argmax(inside[np.arange(stop), newest[:stop]], axis=1)
        if stop < todo.size:
            a = todo[stop]
            cut = 0.5 * (mus[a, sizes[a] - 1] + mus[a, sizes[a]])
            try:
                cuts.append((cut, *_interior_inertia(interior, cut)))
            except NoConvergence as exc:
                raise _uncertified(angles[a], exc) from exc
            taken[a], expected[a] = len(cuts) - 1, sizes[a]
        todo = todo[stop + 1 :]
    sigma, count = np.ones(sizes.size), expected.copy()
    for i in np.unique(taken[taken >= 0]):
        cut, neg, g = cuts[i]
        (sel,) = np.nonzero(taken == i)
        b = cols[2, sel] - cut * cols[1, sel]
        sigma[sel] = diag[2, sel] - cut * diag[1, sel] - np.einsum("ai,ij,aj->a", b, g, b)
        count[sel] = neg + (sigma[sel] < 0.0)
    singular = ~np.isfinite(sigma) | (sigma == 0.0)
    bad = np.flatnonzero(singular | (count != expected))
    if bad.size:
        a = bad[0]
        raise _uncertified(
            angles[a],
            f"inertia count at {cuts[taken[a]][0]:.6g}: Schur form {sigma[a]}" if singular[a] else
            f"inertia count {count[a]} below the cut: {count[a] - expected[a]} missed",
        )


def mass_normalized(op):
    """The pencil as a single symmetric matrix ``M^{-1/2} K M^{-1/2}``.

    All boundary angles share one coordinate space, so these matrices can be
    compared with the operator metrics directly.  This is the dense route,
    one eigendecomposition of ``M`` per operator; it is the oracle of
    :func:`_mass_normalized_operators`, which :func:`rho_continuity_profile`
    uses.
    """
    root_inv = _inverse_root(op.mass.toarray())
    return SelfAdjointOperator(root_inv @ op.stiffness.toarray() @ root_inv)


def _inverse_root(m):
    """``m^{-1/2}`` of a positive definite matrix, by one eigendecomposition."""
    return SelfAdjointOperator(m).apply(lambda mu: 1.0 / np.sqrt(mu))


#: Decay of ``(M_int + tau)^-1``, ``tau >= 0``, per node off the diagonal: each
#: component of the P1 mass is a chain with ``h/6`` beside a diagonal of
#: ``2h/3`` (``h/3`` at ``t = 0``), so eliminating along it from either end
#: gives ratios of at most ``1/2``, then ``(1/6) / (2/3 - 1/12) = 2/7``.
_RESOLVENT_DECAY = 2.0 / 7.0


def _border_node_count():
    """The least ``d`` with ``(d + 2) (2/7)^d <= eps / 4`` (see
    :func:`_mass_normalized_operators`)."""
    d = 1
    while (d + 2) * _RESOLVENT_DECAY**d > np.finfo(float).eps / 4.0:
        d += 1
    return d


_BORDER_NODES = _border_node_count()


def _border_block(n, nodes=_BORDER_NODES):
    """The last of ``n`` dofs and those of the ``nodes`` nodes before it: by
    default the block where the operators of :func:`_mass_normalized_operators`
    differ from one angle to the next, and at twice as many nodes the window
    whose product gives that block."""
    return slice(max(n - 2 * nodes - 1, 0), n)


def _mass_normalized_operators(pencil, angles):
    """Yield ``A(s) = M(s)^{-1/2} K(s) M(s)^{-1/2}`` at each of ``angles``, from
    one eigendecomposition of the interior mass and one of a window's mass
    per angle; :func:`mass_normalized` is the dense oracle.

    ``K(s)`` and ``M(s)`` move only in their last row and column, so ``R K R``
    with ``R = diag(M_int^{-1/2}, 0)`` is the same at every angle.  The Schur
    complement on the last dof writes ``(M + tau)^-1``, ``tau >= 0``, as
    ``diag((M_int + tau)^-1, 0)`` plus a term that falls by
    :data:`_RESOLVENT_DECAY` per node from the border.  So ``M^{-1/2} - R``, an
    integral of such terms, and ``A(s) - R K R`` are below ``(d + 2) (2/7)^d``
    of their largest entries ``d`` nodes from the border, under ``eps / 4`` at
    ``d`` = :data:`_BORDER_NODES` = 33.  Outside :func:`_border_block` every
    operator is the symmetric part of ``R K R``; on it, the block of the
    window's own ``R_W K_W R_W``, the window being the block and
    :data:`_BORDER_NODES` nodes more, whose cut changes ``R_W = M_W^{-1/2}``
    by a term that falls by the same ratio from the cut.  Each operator
    starts from a copy of the one before: no third ``n x n`` matrix is held,
    and the operator at an angle depends on that angle alone, bit for bit.
    The angle enters through :meth:`FloerPencil.border` alone, so the pencil
    is assembled once.
    """
    op = pencil.base
    n = op.dim
    block, window = _border_block(n), _border_block(n, 2 * _BORDER_NODES)
    # K and M on the window; window_product writes the border of each angle into them
    k_w, m_w = (x[window, window].toarray() for x in (op.stiffness, op.mass))
    edge, inner = pencil.border_rows - window.start, slice(block.start - window.start, None)
    root_int = _inverse_root(op.mass[:-1, :-1].toarray())
    a = np.zeros((n, n))
    np.matmul(root_int, op.stiffness[:-1, :-1] @ root_int, out=a[:-1, :-1])
    del root_int

    def window_product(s):
        """The block of ``R_W K_W R_W`` at angle ``s``.  Its temporaries end
        with the call: small arrays kept across a pair land in the freed ``n
        x n`` blocks that the next eigensolve would reuse, and raise the peak
        RSS."""
        for x, col, corner in zip((k_w, m_w), *pencil.border(s)):
            x[edge, -1] = x[-1, edge] = col
            x[-1, -1] = corner
        root = _inverse_root(m_w)[inner]
        return root @ k_w @ root.T

    for s in angles:
        a[block, block] = window_product(s)
        out = SelfAdjointOperator(a)
        del a  # the caller holds two operators across a pair, and no third n x n
        yield out
        a = out.matrix.copy()


#: Gauss points of the two-point Magnus step, as fractions of the step.
_MAGNUS_XI = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])

#: Entries of each array in one block of the transfer-matrix scan (64 KiB of
#: float64).  Smaller blocks ran slower; larger ones no faster, and their
#: temporaries raised the peak resident set.
_SCAN_ENTRIES = 1 << 13


@np.errstate(over="ignore", invalid="ignore")
def _magnus_steps(pencil, n_steps):
    """The ``n_steps`` equal steps of :func:`_end_angles`, which do not depend
    on ``lam``, so a call of :func:`shooting_eigenvalues` builds them once:
    ``(n_steps, Omega0, Omega1, c0, |(c1, c2)|)``, each ``Omega`` as the
    entries ``(x, y, z)`` of ``[[x, y], [z, -x]]`` per step, and the angle
    rates at the nodes, which the turn bound reads.

    With ``u = r (cos theta, sin theta)`` the angle of ``u' = (B(t) - lam J)
    u`` obeys ``theta' = c0 - lam + c1 cos(2 theta) + c2 sin(2 theta)``.  Each
    step has the two-point Gauss Magnus exponent (fourth order), from ``B1``,
    ``B2`` at its Gauss points: ``Omega0 = h/2 (B1 + B2) + k [B2, B1]`` and
    ``Omega1 = -h J - k [B2 - B1, J]`` with ``k = sqrt(3)/12 h^2``.  The
    coefficient bound keeps ``h |(c1, c2)|`` at most 1.39 and raises
    :class:`SamplingTooCoarse` past it.
    """
    b = coefficient_matrices(pencil)
    c0, c1, c2 = (
        0.5 * x
        for x in (b[:, 1, 0] - b[:, 0, 1], b[:, 1, 0] + b[:, 0, 1], b[:, 1, 1] - b[:, 0, 0])
    )
    h = 1.0 / n_steps
    spread = np.hypot(c1, c2)
    # theta relaxes to its equilibria at rate 2 |(c1, c2)|; a coefficient that
    # relaxes it within 1/2.785 of a step is refused, not trusted
    if 2.0 * h * float(np.max(spread)) > 2.785:
        raise SamplingTooCoarse(f"{n_steps} steps cannot resolve a coefficient this large")
    t = (np.arange(n_steps)[:, None] + _MAGNUS_XI) * h
    (x1, x2), (y1, y2), (z1, z2) = (
        np.interp(t, pencil.nodes, b[:, i, j]).T for i, j in ((0, 0), (0, 1), (1, 0))
    )
    # B is trace-free, [[x, y], [z, -x]], and so is every term of Omega; the
    # commutator of two such is [[yZ - Yz, 2(xY - yX)], [2(zX - xZ), Yz - yZ]]
    k = np.sqrt(3.0) / 12.0 * h * h
    omega0 = (
        0.5 * h * (x1 + x2) + k * (y2 * z1 - y1 * z2),
        0.5 * h * (y1 + y2) + 2.0 * k * (x2 * y1 - y2 * x1),
        0.5 * h * (z1 + z2) + 2.0 * k * (z2 * x1 - x2 * z1),
    )
    dx = x2 - x1
    omega1 = (-k * (y2 - y1 + z2 - z1), h + 2.0 * k * dx, -h + 2.0 * k * dx)
    return n_steps, omega0, omega1, c0, spread


@np.errstate(over="ignore", invalid="ignore")
def _end_angles(steps, lams):
    """Prufer angle ``theta(1)`` of ``u' = (B(t) - lam J) u``, ``u(0) = (1,
    0)``, over the :func:`_magnus_steps` ``steps``.

    For each block of the spectral parameters ``lams``, one scan of the step
    propagators gives ``u(1)`` and every ``u_k`` on the way, and ``theta(1)``
    sums the wrapped angle increments of the ``u_k``.  The turn bound keeps
    ``h max(|c0 - lam| + |(c1, c2)|)``, over the nodes and the range of
    ``lams``, below ``pi`` and raises :class:`SamplingTooCoarse` past it: it
    bounds how far one step turns ``u``, and a turn past ``pi`` would slip
    through the wrapped increments unnoticed.  A coefficient near the float
    limit overflows the exponents; that raises :class:`InvalidConfig` once the
    angle is found not finite, before the turn bound is checked.
    """
    n_steps, omega0, omega1, c0, spread = steps
    h = 1.0 / n_steps
    lams = np.asarray(lams, dtype=float)
    rows = max(1, _SCAN_ENTRIES // n_steps)
    theta = np.empty(lams.size)
    for i in range(0, lams.size, rows):
        ux, uy = _prefix_columns(_propagators(omega0, omega1, lams[i : i + rows, None]))
        # phi jumps by 2 pi where u = P_k (1, 0) crosses the branch cut; while
        # no step turns u by pi, each jump is the rounded step of phi
        phi = np.arctan2(uy, ux)
        wraps = np.rint(np.diff(phi, prepend=0.0) / (2.0 * np.pi)).sum(axis=1)
        theta[i : i + rows] = phi[:, -1] - 2.0 * np.pi * wraps
    if not np.all(np.isfinite(theta)):
        raise InvalidConfig("coefficient too large: the Prufer angle is not finite")
    if lams.size:
        lo, hi = lams.min(), lams.max()
        rate = np.maximum(np.abs(c0 - lo), np.abs(c0 - hi)) + spread
        turn = h * float(np.max(rate))
        if turn >= np.pi:
            raise SamplingTooCoarse(
                f"{n_steps} steps may turn u by {turn:.3f} >= pi in one step "
                f"for lam in [{lo:.6g}, {hi:.6g}]"
            )
    return theta


def _propagators(omega0, omega1, lam):
    """Entries ``(m00, m01, m10, m11)`` of ``E = exp(Omega0 + lam Omega1)``.

    ``Omega`` is trace-free, so ``Omega^2 = d I`` and ``exp Omega = C(d) I +
    S(d) Omega`` with ``C = cosh(sqrt d)`` and ``S = sinh(sqrt d) / sqrt d``
    (cos and sin for ``d < 0``).  Both are entire in ``d``; their Taylor
    series, cut where the largest ``|d|`` has converged to ``1e-17``, need no
    branch and no transcendental call.
    """
    x, y, z = (w0 + lam * w1 for w0, w1 in zip(omega0, omega1))
    d = x * x + y * z
    reach = np.max(np.abs(d))
    terms = next((k for k in range(1, 20) if reach**k <= 1e-17 * math.factorial(2 * k)), 20)
    c = s = 1.0
    for k in range(terms, 0, -1):
        c = 1.0 + d * (c / ((2 * k - 1) * 2 * k))
        s = 1.0 + d * (s / (2 * k * (2 * k + 1)))
    return c + s * x, s * y, s * z, c - s * x


def _prefix_columns(e):
    """First columns of the prefix products ``P_k = E_k ... E_0``, rescaled.

    ``e`` holds the entries ``(m00, m01, m10, m11)`` of the factors, one
    array each with the steps along its last axis.  The pair products
    ``E_{2j+1} E_{2j}`` recurse to the odd ``k``, and one matrix-vector
    product per pair gives the even ones: ``n`` products of each kind in
    ``log2 n`` levels.  Every product is divided by its largest entry; the
    angle ignores positive scaling, and ``exp(int |B|)`` stays in range.
    """
    n = e[0].shape[-1]
    if n == 1:
        return e[0], e[2]
    a0, a1, a2, a3 = (m[:, 1::2] for m in e)
    b0, b1, b2, b3 = (m[:, : n - n % 2 : 2] for m in e)
    odd = _prefix_columns(_rescaled(
        a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3
    ))
    m0, m1, m2, m3 = (m[:, 2::2] for m in e)
    vx, vy = (v[:, : (n - 1) // 2] for v in odd)
    even = _rescaled(m0 * vx + m1 * vy, m2 * vx + m3 * vy)
    u = np.empty((2, *e[0].shape))
    u[:, :, 0] = e[0][:, 0], e[2][:, 0]
    u[:, :, 1::2] = odd
    u[:, :, 2::2] = even
    return u


def _rescaled(*entries):
    """``entries`` divided by their largest magnitude, elementwise."""
    scale = np.abs(entries[0])
    for q in entries[1:]:
        np.maximum(scale, np.abs(q), out=scale)
    return [q / scale for q in entries]


def shooting_eigenvalues(pencil, queries):
    """Grid-free eigenvalue oracle by shooting from ``t = 0``.

    ``pencil`` gives the coefficient.  Each query ``(s, (lo, hi))`` asks for the
    eigenvalues in ``[lo, hi]`` at boundary angle ``s``.  ``lam`` is one
    exactly when ``F(lam) = theta(1; lam) + s`` is a multiple of ``pi``, with
    ``theta`` the Prufer angle of ``u``, which does not depend on ``s``.
    ``F`` decreases strictly, so the multiples between ``F(hi)`` and ``F(lo)``
    count the roots in ``[lo, hi]`` exactly; the roots of all queries are
    refined at once by Illinois steps to a bracket of ``1e-12``, and each root
    is the secant point of its last bracket.  Returns one ascending root
    array per query; an empty one is legal.
    """
    queries = np.array([(s, lo, hi) for s, (lo, hi) in queries], dtype=float).reshape(-1, 3)
    for s, lo, hi in queries:
        if not (np.all(np.isfinite((s, lo, hi))) and lo < hi):
            raise NoRootBracketed(f"malformed query: angle {s}, interval ({lo}, {hi})")
    s, lo, hi = queries.T
    steps = _magnus_steps(pencil, max(1, math.ceil(1024 / pencil.grid_m)) * pencil.grid_m)
    f_lo, f_hi = _end_angles(steps, np.concatenate([lo, hi])).reshape(2, -1) + s
    multiples = [
        np.arange(math.ceil(fh / np.pi), math.floor(fl / np.pi) + 1) for fl, fh in zip(f_lo, f_hi)
    ]
    # one bracket per root, each tagged with the query it answers
    owner = np.repeat(np.arange(s.size), [k.size for k in multiples])
    targets = np.pi * np.concatenate([np.zeros(0), *multiples])
    # F - target is >= 0 at a and <= 0 at b; an exact zero closes the bracket
    ga, gb = f_lo[owner] - targets, f_hi[owner] - targets
    a = np.where(gb == 0.0, hi[owner], lo[owner])
    b = np.where(ga == 0.0, lo[owner], hi[owner])
    side = np.zeros(targets.size)  # +1 if the last step moved b, -1 if a
    for _ in range(100):
        act = np.flatnonzero(b - a > 1e-12)
        if not act.size:
            # unlike the bracket's midpoint, its secant point does not move
            # with the ends of the query
            with np.errstate(divide="ignore", invalid="ignore"):
                roots = b - gb * (b - a) / (gb - ga)
            roots = np.where((ga != gb) & (a <= roots) & (roots <= b), roots, 0.5 * (a + b))
            return [np.sort(roots[owner == q]) for q in range(s.size)]
        x = np.clip(b[act] - gb[act] * (b[act] - a[act]) / (gb[act] - ga[act]), a[act], b[act])
        gx = _end_angles(steps, x) + s[owner[act]] - targets[act]
        to_a, to_b = gx >= 0.0, gx <= 0.0
        # Illinois: halve the value at an end kept twice in a row
        ga[act[~to_a & (side[act] > 0)]] *= 0.5
        gb[act[~to_b & (side[act] < 0)]] *= 0.5
        a[act[to_a]], ga[act[to_a]] = x[to_a], gx[to_a]
        b[act[to_b]], gb[act[to_b]] = x[to_b], gx[to_b]
        side[act] = np.where(to_b, 1.0, -1.0)
    raise NoConvergence(f"shooting left a bracket of width {float(np.max(b - a)):.3e}")


@dataclass(frozen=True, eq=False)
class BoundaryProjector:
    """Rank-2 orthogonal projector on the boundary values ``(u(0), u(1))``."""

    matrix: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        if p.shape != (4, 4):
            raise InvalidConfig(f"boundary projector must be 4x4, got {p.shape}")
        if linalg.symmetry_defect(p) > linalg.SYMMETRY_TOL:
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
    ``s`` is one angle; an array of them raises :class:`InvalidConfig`.
    """
    if np.ndim(s) != 0:
        raise InvalidConfig(f"boundary projector needs one angle, got shape {np.shape(s)}")
    v0, v1 = boundary_lines(s)
    n0 = np.array([-v0[1], v0[0]])
    n1 = np.array([-v1[1], v1[0]])
    p = np.zeros((4, 4))
    p[0:2, 0:2] = np.outer(n0, n0)
    p[2:4, 2:4] = np.outer(n1, n1)
    return BoundaryProjector(p)


def boundary_coefficient_operator(pencil):
    """``diag(B0, B1)`` on ``(u(0), u(1))``: the end nodes of
    :func:`coefficient_matrices` under the pencil's coupling (``B`` of
    ``u' = B u``, not ``C = -J B``), built from the two end samples alone."""
    out = np.zeros((4, 4))
    out[:2, :2], out[2:, 2:] = _coupling_matrices(pencil.a_samples[[0, -1]], pencil.coupling)
    return out


def nu_metric(p, q, d0_boundary):
    """Projector distance plus the commutator defect with the boundary operator."""
    d0 = np.asarray(d0_boundary, dtype=float)
    diff = p.matrix - q.matrix
    return linalg.operator_norm(diff) + linalg.operator_norm(diff @ d0 - d0 @ diff)


class NeighbourMetrics(NamedTuple):
    """Distances between two neighbouring members of the family."""

    nu: float
    rho: float
    gamma: float


def _resolvent_factor(a, block):
    """``R`` of the thin QR of ``(i + A)^{-1}[:, block]``, up to a unitary factor
    on the left, from the eigendecomposition ``A = Q diag(l) Q^T`` that
    :func:`topology.riesz_metric` reads too.  That block of columns is ``Q
    diag((l + i)^-1) Q[block]^T``: the unitary ``Q diag((l + i) / |l + i|)``
    times the real ``diag(|l + i|^-1) Q[block]^T``, whose ``R`` it has."""
    lam, q = a.decomposition.eigenvalues, a.decomposition.eigenvectors
    return np.linalg.qr(q[block].T / np.hypot(1.0, lam)[:, None], mode="r")


#: Lanczos vectors that :func:`_riesz_distance` keeps, ARPACK's default for
#: one eigenvalue; one cycle converges at grids 48 to 800, on 21 products.
_LANCZOS_VECTORS = 20


def _riesz_distance(a0, a1):
    """``|r(A1) - r(A0)|`` with ``r`` = :func:`topology.bounded_transform_scalar`,
    from the cached decompositions ``A_k = Q_k diag(l_k) Q_k^T``.

    It is the largest ``|eigenvalue|`` of the symmetric operator ``x -> Q1
    (r(l1) o Q1^T x) - Q0 (r(l0) o Q0^T x)``, found by implicitly restarted
    Lanczos (ARPACK; Lehoucq, Sorensen and Yang, SIAM 1998) to machine
    tolerance from a fixed seeded start, so a pair gives the same value at
    every call.  Each product is four matrix-vector products with the
    eigenvector matrices, and no ``n x n`` array is formed;
    :func:`topology.riesz_metric` is the dense oracle.  Equal matrices give
    exactly 0, which ARPACK could not start from.  A run that does not
    converge raises :class:`NoConvergence` with the residual of the best Ritz
    pair on the last vectors it applied (see :func:`_ritz_residual`).
    """
    if np.array_equal(a0.matrix, a1.matrix):
        return 0.0
    (q0, r0), (q1, r1) = (
        (d.eigenvectors, topology.bounded_transform_scalar(d.eigenvalues))
        for d in (a0.decomposition, a1.decomposition)
    )
    seen = collections.deque(maxlen=_LANCZOS_VECTORS)

    def apply(x):
        y = q1 @ (r1 * (x @ q1)) - q0 @ (r0 * (x @ q0))
        seen.append((x.copy(), y))
        return y

    n = q0.shape[0]
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        (top,) = scipy.sparse.linalg.eigsh(
            op, k=1, which="LM", tol=0, v0=start, ncv=min(_LANCZOS_VECTORS, n),
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        theta, residual = _ritz_residual(seen)
        raise NoConvergence(
            f"Riesz distance: {exc}; the best Ritz value {theta:.6g} has a residual "
            f"of {residual:.3e}"
        ) from exc
    return abs(float(top))


def _ritz_residual(seen):
    """The Ritz value of largest magnitude on the span of the vectors ``x`` of
    the pairs ``(x, y = A x)`` in ``seen``, and its residual ``|A v - theta
    v|`` for a unit ``v``."""
    x, y = (np.array(v).T for v in zip(*seen))
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    keep = sv > x.shape[0] * np.finfo(float).eps * sv[0]
    basis, image = u[:, keep], (y @ vt[keep].T) / sv[keep]
    theta, z = np.linalg.eigh(basis.T @ image)
    i = np.argmax(np.abs(theta))
    return float(theta[i]), float(np.linalg.norm(image @ z[:, i] - theta[i] * (basis @ z[:, i])))


def rho_continuity_profile(pencil, s_samples):
    """Metric moduli between neighbouring members of the family of ``pencil``.

    For each consecutive pair of angles: the boundary-projector distance
    ``nu`` and the Riesz and gap distances of the two mass-normalized
    operators on the shared grid, which come from
    :func:`_mass_normalized_operators` (no assembly or dense solve of
    ``M(s)``; :func:`mass_normalized` is their oracle).  The Riesz distance
    is :func:`_riesz_distance` on the cached decompositions, by Lanczos with
    no ``n x n`` product; :func:`topology.riesz_metric` is its oracle.
    Neighbours differ only on :func:`_border_block`, by ``delta``, so ``(i +
    A0)^-1 - (i + A1)^-1 = G0 delta G1^T`` with ``G_k = (i + A_k)^{-1}[:,
    block] = Q_k R_k`` (:func:`_resolvent_factor`), and the gap distance, the
    sum of the ``+-i`` branches, is ``2 |R0 delta R1^T|``;
    :func:`topology.gap_metric` is its oracle.  Built one angle at a time, at
    most two operators are alive; fewer than two angles give no rows.
    """
    d0 = boundary_coefficient_operator(pencil)
    samples = [float(s) for s in s_samples]
    block = _border_block(2 * pencil.grid_m)
    operators = _mass_normalized_operators(pencil, samples)
    profile, p0, a0, r0 = [], None, None, None
    # next(operators) builds a1 while a0 is alive: two operators at most
    for s, a1 in zip(samples, operators):
        p1, r1 = boundary_projector(s), _resolvent_factor(a1, block)
        if a0 is not None:
            delta = a1.matrix[block, block] - a0.matrix[block, block]
            profile.append(
                NeighbourMetrics(
                    nu_metric(p0, p1, d0),
                    _riesz_distance(a0, a1),
                    2.0 * linalg.operator_norm(r0 @ delta @ r1.T),
                )
            )
        p0, a0, r0 = p1, a1, r1
    return profile
