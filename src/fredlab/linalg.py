"""Dense linear-algebra core: the symmetry check, one operator norm for every
matrix, spectral functional calculus and orthonormal subspace algebra.
The :class:`SpectralDecomposition` values of the dense metric layer are held by
:class:`topology.SelfAdjointOperator`: an ``eigh`` of its matrix, or the
eigenpairs a ``gallery`` operator is built from; :func:`operator_norm` takes its
own ``eigvalsh`` of a Gram matrix, and ``floer`` its own eigensolves of the pencil.

Matrices are plain ``numpy.ndarray`` objects (real ``float64`` or
``complex128``); the structured values defined here
(:class:`SpectralDecomposition`, :class:`Subspace`) are frozen dataclasses and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    EmptyMatrix,
    FunctionUndefinedAtEigenvalue,
    MalformedMatrix,
    NoConvergence,
    NonSquare,
    NotSymmetric,
    require_integer,
)

#: Relative slack below which an input matrix counts as symmetric.
SYMMETRY_TOL = 1e-12

#: Max-norm slack for orthonormality of the basis of a :class:`Subspace`.
ORTHONORMALITY_TOL = 1e-12

#: Relative singular-value cutoff of the rank decisions.
RANK_TOL = 1e-8


def _as_matrix(m, name="matrix"):
    a = np.asarray(m)
    if a.ndim != 2:
        raise MalformedMatrix(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise EmptyMatrix(f"{name} has no entries")
    if not np.all(np.isfinite(a)):
        raise MalformedMatrix(f"{name} contains NaN or Inf entries")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def symmetry_defect(a):
    """Relative size of the skew part of ``a``: max|a - a^T| / max(1, max|a|)."""
    a = np.asarray(a, dtype=float)
    scale = max(1.0, float(a.max()), -float(a.min())) if a.size else 1.0
    skew = a.T.copy()  # a C-ordered copy: strided access dominates otherwise
    np.subtract(a, skew, out=skew)
    np.abs(skew, out=skew)
    return float(skew.max()) / scale


def require_symmetric(a, name="matrix"):
    """Return ``a`` as a float array, raising unless it is square and symmetric."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name} has shape {a.shape}")
    if np.iscomplexobj(a):
        raise NotSymmetric(f"{name} must be real")
    defect = symmetry_defect(a)
    if defect > SYMMETRY_TOL:
        raise NotSymmetric(f"{name} deviates from symmetry by {defect:.3e} (relative)")
    return a


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  Every instance is a
    ``SelfAdjointOperator.decomposition``: LAPACK's ``eigh`` of the matrix, or the
    eigenvalues and Householder-QR factor ``Q`` the matrix was built from as
    ``Q diag(w) Q^T`` (sorted ascending).  Either way LAPACK guarantees the
    vectors orthonormal to working precision.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def operator_norm(m):
    """Largest singular value of a real or complex matrix, ``c sqrt(l)``: ``c`` is
    the largest ``|entry|`` and ``l``, between 1 and the entry count, the top
    eigenvalue of the Gram matrix of ``m / c`` on its smaller side."""
    m = _as_matrix(m, "operator_norm input")
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0.0
    m = m.T if m.shape[0] < m.shape[1] else m
    # gram precedes the scaled copy f, so eigvalsh's copy of gram can reuse f's
    # memory once f is freed; a real f^T f is one syrk call
    gram = np.empty((m.shape[1], m.shape[1]), dtype=m.dtype)
    f = m / scale
    np.matmul(f.conj().T if np.iscomplexobj(f) else f.T, f, out=gram)
    del f
    try:
        top = np.linalg.eigvalsh(gram)[-1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return scale * float(top) ** 0.5


def apply_scalar_function(dec, f):
    """Evaluate ``f`` on a spectral decomposition: ``Q f(w) Q^T``, as the two real
    products ``(Q Re f) Q^T`` and ``(Q Im f) Q^T`` when ``f`` is complex.

    ``f`` is called once on the eigenvalue array; a scalar return ``c`` gives exactly
    ``c I``.  A non-finite value raises :class:`FunctionUndefinedAtEigenvalue`.
    """
    return _spectral_product(dec, _function_values(dec, f))


def _function_values(dec, f):
    """``f`` called once on the eigenvalues of ``dec``, checked finite."""
    try:
        with np.errstate(all="ignore"):
            vals = f(dec.eigenvalues)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise FunctionUndefinedAtEigenvalue(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise FunctionUndefinedAtEigenvalue(f"non-finite value at eigenvalue(s) {bad}")
    return vals


def _spectral_product(dec, vals):
    """``Q diag(vals) Q^T`` for the values of :func:`_function_values`."""
    q = dec.eigenvectors
    if np.ndim(vals) == 0:
        return vals * np.eye(q.shape[0])
    if np.iscomplexobj(vals):  # a complex product would upcast the real Q^T
        out = np.empty(q.shape, dtype=np.complex128)
        out.real = (q * vals.real) @ q.T
        out.imag = (q * vals.imag) @ q.T
        return out
    return (q * vals) @ q.T


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as a matrix with orthonormal columns.

    ``dim == 0`` is legal and is represented by a ``(n, 0)`` basis.  An
    ambient dimension that is not an integer of at least 0 raises
    :class:`InvalidConfig`, and a basis that is not an orthonormal set of
    finite columns in R^n raises :class:`MalformedMatrix`.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        n = require_integer(self.ambient_dim, "ambient dimension", 0)
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != n:
            raise MalformedMatrix(f"basis shape {b.shape} does not sit in R^{n}")
        if b.shape[1] > n:
            raise MalformedMatrix("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(b)):
            raise MalformedMatrix("basis contains NaN or Inf entries")
        if b.shape[1] > 0:
            defect = np.max(np.abs(b.T @ b - np.eye(b.shape[1])))
            if defect > ORTHONORMALITY_TOL:
                raise MalformedMatrix(f"basis not orthonormal (defect {defect:.3e})")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors):
        """Subspace spanned by the columns of ``vectors`` (rank-trimmed SVD);
        a spanning set that is not a matrix of finite entries raises
        :class:`MalformedMatrix`."""
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2:
            raise MalformedMatrix("spanning set must be a matrix of column vectors")
        if not np.all(np.isfinite(v)):
            raise MalformedMatrix("spanning set contains NaN or Inf entries")
        if v.shape[1] == 0:
            return cls(v.shape[0], v)
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        keep = s > RANK_TOL * (s[0] if s.size else 0.0)
        return cls(v.shape[0], u[:, keep])


def projection_from_basis(s):
    """Orthogonal projection ``B B^T`` onto the subspace ``s``."""
    return s.basis @ s.basis.T


def subspace_meet_dims(s1, s2):
    """Intersection dimension and codimension of the sum of two subspaces.

    Returns ``(dim(s1 & s2), ambient - dim(s1 + s2))``.  The intersection
    dimension counts principal-angle cosines within ``RANK_TOL`` of 1 (one SVD),
    and ``dim(s1 + s2)`` is ``dim s1 + dim s2 - dim(s1 & s2)``.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(f"ambient dims {s1.ambient_dim} != {s2.ambient_dim}")
    cosines = np.linalg.svd(s1.basis.T @ s2.basis, compute_uv=False)
    dim_meet = int(np.count_nonzero(cosines >= 1.0 - RANK_TOL))
    return dim_meet, s1.ambient_dim - s1.dim - s2.dim + dim_meet
