"""Dense linear-algebra core: symmetric eigendecompositions, operator norms,
spectral functional calculus and orthonormal subspace algebra.

Matrices are plain ``numpy.ndarray`` objects (real ``float64`` or
``complex128``); the structured values defined here (:class:`Tolerances`,
:class:`SpectralDecomposition`, :class:`Subspace`) are frozen dataclasses and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    EmptyMatrix,
    FunctionUndefinedAtEigenvalue,
    NoConvergence,
    NonSquare,
    NotSymmetric,
)

#: Relative slack below which an input matrix counts as symmetric.
SYMMETRY_TOL = 1e-12

#: Max-norm slack for orthonormality of stored bases and eigenvector matrices.
ORTHONORMALITY_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Relative singular-value cutoff ``rank_tol > 0`` used by rank decisions."""

    rank_tol: float = 1e-8

    def __post_init__(self):
        if not self.rank_tol > 0.0:
            raise ValueError("rank_tol must be strictly positive")


DEFAULT_TOLERANCES = Tolerances()


def _as_matrix(m, name="matrix"):
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise EmptyMatrix(f"{name} has no entries")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def symmetry_defect(a):
    """Relative size of the skew part of ``a``: max|a - a^T| / max(1, max|a|)."""
    a = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    transposed = np.ascontiguousarray(a.T)  # strided access dominates otherwise
    return float(np.max(np.abs(a - transposed))) / scale


def require_symmetric(a, name="matrix", tol=SYMMETRY_TOL):
    """Return ``a`` as a float array, raising unless it is square and symmetric."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name} has shape {a.shape}")
    if np.iscomplexobj(a):
        raise NotSymmetric(f"{name} must be real")
    if symmetry_defect(a) > tol:
        raise NotSymmetric(
            f"{name} deviates from symmetry by {symmetry_defect(a):.3e} (relative)"
        )
    return a


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; the matrix it came
    from is ``Q diag(w) Q^T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.eigenvectors, dtype=float)
        if w.ndim != 1 or q.ndim != 2 or q.shape != (w.size, w.size):
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be ascending")
        defect = np.max(np.abs(q.T @ q - np.eye(w.size)))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvector matrix not orthonormal (defect {defect:.3e})")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", q)

    @property
    def dim(self):
        return self.eigenvalues.size


def sym_eig(a):
    """Eigendecomposition of an (n, n) matrix symmetric to ``SYMMETRY_TOL`` relative.

    Returns a :class:`SpectralDecomposition` with ascending eigenvalues and
    reconstruction residual below ``1e-10 * (1 + |a|)``.
    """
    a = require_symmetric(a, "sym_eig input")
    try:
        w, q = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(w, q)


def operator_norm(m):
    """Largest singular value of a real or complex matrix."""
    m = _as_matrix(m, "operator_norm input")
    try:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc


def symmetric_norm(m):
    """Operator norm of a real symmetric matrix: its largest ``|eigenvalue|``."""
    m = require_symmetric(m, "symmetric_norm input")
    try:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc


def apply_scalar_function(dec, f):
    """Evaluate ``f`` on a spectral decomposition: ``Q f(w) Q^T``.

    ``f`` is called once on the eigenvalue array; a scalar return is broadcast.
    Values may be complex; a non-finite one raises :class:`FunctionUndefinedAtEigenvalue`.
    """
    try:
        with np.errstate(all="ignore"):
            vals = f(dec.eigenvalues)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise FunctionUndefinedAtEigenvalue(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise FunctionUndefinedAtEigenvalue(f"non-finite value at eigenvalue(s) {bad}")
    q = dec.eigenvectors
    return (q * vals) @ q.T


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as a matrix with orthonormal columns.

    ``dim == 0`` is legal and is represented by a ``(n, 0)`` basis.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not sit in R^{self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis contains NaN or Inf entries")
        if b.shape[1] > 0:
            defect = np.max(np.abs(b.T @ b - np.eye(b.shape[1])))
            if defect > ORTHONORMALITY_TOL:
                raise ValueError(f"basis not orthonormal (defect {defect:.3e})")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors, tol=DEFAULT_TOLERANCES):
        """Subspace spanned by the columns of ``vectors`` (rank-trimmed SVD)."""
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("spanning set must be a matrix of column vectors")
        if v.shape[1] == 0:
            return cls(v.shape[0], v)
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        keep = s > tol.rank_tol * (s[0] if s.size else 0.0)
        return cls(v.shape[0], u[:, keep])


def span(*vectors):
    """Subspace spanned by the given 1-D vectors."""
    cols = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    return Subspace.from_spanning(cols)


def projection_from_basis(s):
    """Orthogonal projection ``B B^T`` onto the subspace ``s``."""
    return s.basis @ s.basis.T


def subspace_meet_dims(s1, s2, tol=DEFAULT_TOLERANCES):
    """Intersection dimension and codimension of the sum of two subspaces.

    Returns ``(dim(s1 & s2), ambient - dim(s1 + s2))``.  The intersection
    dimension counts principal-angle cosines within ``tol.rank_tol`` of 1;
    the sum's dimension is the numerical rank of the stacked bases.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(f"ambient dims {s1.ambient_dim} != {s2.ambient_dim}")
    if s1.dim == 0 or s2.dim == 0:
        dim_meet = 0
    else:
        cosines = np.linalg.svd(s1.basis.T @ s2.basis, compute_uv=False)
        dim_meet = int(np.count_nonzero(cosines >= 1.0 - tol.rank_tol))
    stacked = np.hstack([s1.basis, s2.basis])
    if stacked.shape[1] == 0:
        rank = 0
    else:
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.count_nonzero(sv > tol.rank_tol * sv[0])) if sv[0] > 0 else 0
    return dim_meet, s1.ambient_dim - rank
