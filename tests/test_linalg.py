"""Unit tests for the dense linear-algebra core."""

import numpy as np
import pytest

from fredlab import linalg, topology
from fredlab.errors import (
    AmbientMismatch,
    EmptyMatrix,
    FunctionUndefinedAtEigenvalue,
    NonSquare,
    NotSymmetric,
)
from fredlab.gallery import FugledeSpec, fuglede_operator

RECON_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_identity(self):
        dec = linalg.sym_eig(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_is_sorted(self):
        dec = linalg.sym_eig(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_off_diagonal_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
        dec = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        minus, plus = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
        assert abs(abs(np.dot(minus, [inv_sqrt2, -inv_sqrt2])) - 1.0) < 1e-12
        assert abs(abs(np.dot(plus, [inv_sqrt2, inv_sqrt2])) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 7, 23, 50])
    def test_reconstruction_residual(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_symmetric(rng, n, scale=3.0)
        dec = linalg.sym_eig(a)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        bound = RECON_TOL * (1.0 + linalg.operator_norm(a))
        assert linalg.operator_norm(recon - a) <= bound

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            linalg.sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOperatorNorm:
    def test_zero(self):
        assert linalg.operator_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert linalg.operator_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_nilpotent_block(self):
        # singular values of [[0,1],[0,0]] are 1 and 0
        assert linalg.operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_complex(self):
        m = np.array([[1j, 0.0], [0.0, 0.5]])
        assert linalg.operator_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_and_projection_norm(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 4))
        c = -3.7
        assert linalg.operator_norm(c * m) == pytest.approx(
            abs(c) * linalg.operator_norm(m), rel=1e-10
        )
        s = linalg.Subspace.from_spanning(rng.standard_normal((6, 2)))
        p = linalg.projection_from_basis(s)
        assert linalg.operator_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            linalg.operator_norm(np.zeros((0, 0)))


def fuglede_riesz_difference(n):
    return topology.riesz_map(fuglede_operator(FugledeSpec(n, 4 * n))) - topology.riesz_map(
        fuglede_operator(FugledeSpec(0, 4 * n))
    )


def projection_difference():
    rng = np.random.default_rng(3)
    s1, s2 = (linalg.Subspace.from_spanning(rng.standard_normal((12, 5))) for _ in range(2))
    return linalg.projection_from_basis(s1) - linalg.projection_from_basis(s2)


SYMMETRIC_CASES = {
    "zero": lambda: np.zeros((4, 4)),
    **{
        f"random-{n}": lambda n=n: random_symmetric(np.random.default_rng(n), n, 3.0)
        for n in (1, 5, 40)
    },
    "projections": projection_difference,
    **{f"fuglede-{n}": lambda n=n: fuglede_riesz_difference(n) for n in (1, 4, 16)},
}


class TestSymmetricNorm:
    @pytest.mark.parametrize("case", SYMMETRIC_CASES)
    def test_matches_operator_norm(self, case):
        m = SYMMETRIC_CASES[case]()
        assert linalg.symmetric_norm(m) == pytest.approx(
            linalg.operator_norm(m), rel=1e-12, abs=0.0
        )

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.symmetric_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            linalg.symmetric_norm(np.array([[1j, 0.0], [0.0, 1.0]]))


class TestScalarFunction:
    def test_identity_reconstructs(self):
        rng = np.random.default_rng(17)
        a = random_symmetric(rng, 8)
        dec = linalg.sym_eig(a)
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda x: x), a, atol=1e-12
        )

    def test_square_on_diagonal(self):
        dec = linalg.sym_eig(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda x: x**2),
            np.diag([1.0, 4.0]),
            atol=1e-12,
        )

    def test_bounded_transform_on_diagonal(self):
        dec = linalg.sym_eig(np.diag([0.0, 1.0]))
        out = linalg.apply_scalar_function(dec, lambda x: x / np.sqrt(1.0 + x * x))
        np.testing.assert_allclose(out, np.diag([0.0, 0.7071067811865476]), atol=1e-12)

    def test_real_output_symmetric(self):
        rng = np.random.default_rng(23)
        dec = linalg.sym_eig(random_symmetric(rng, 12))
        out = linalg.apply_scalar_function(dec, np.tanh)
        assert linalg.symmetry_defect(out) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_polynomial_homomorphism(self, seed):
        rng = np.random.default_rng(400 + seed)
        dec = linalg.sym_eig(random_symmetric(rng, 10))
        c = rng.uniform(-1, 1, size=6)
        f = lambda x: c[0] + c[1] * x + c[2] * x * x
        g = lambda x: c[3] + c[4] * x + c[5] * x * x
        fg = linalg.apply_scalar_function(dec, lambda x: f(x) * g(x))
        sep = linalg.apply_scalar_function(dec, f) @ linalg.apply_scalar_function(dec, g)
        assert linalg.operator_norm(fg - sep) <= HOMOMORPHISM_TOL

    def test_undefined_value(self):
        dec = linalg.sym_eig(np.diag([0.0, 1.0]))
        for f in (lambda x: 1.0 / x, lambda x: np.sqrt(x - 1.0)):
            with pytest.raises(FunctionUndefinedAtEigenvalue):
                linalg.apply_scalar_function(dec, f)
        # a scalar return is broadcast over the spectrum
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda lam: 1.0), np.eye(2), atol=1e-15
        )


class TestSubspaces:
    def test_projection_onto_axis(self):
        s = linalg.span([1.0, 0.0])
        np.testing.assert_allclose(
            linalg.projection_from_basis(s), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14
        )

    def test_projection_full_space(self):
        s = linalg.Subspace(2, np.eye(2))
        np.testing.assert_allclose(linalg.projection_from_basis(s), np.eye(2), atol=1e-14)

    def test_projection_diagonal_line(self):
        # outer product of (1,1)/sqrt(2) with itself
        s = linalg.span([1.0, 1.0])
        np.testing.assert_allclose(
            linalg.projection_from_basis(s), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14
        )

    def test_projection_properties(self):
        rng = np.random.default_rng(8)
        s = linalg.Subspace.from_spanning(rng.standard_normal((7, 3)))
        p = linalg.projection_from_basis(s)
        assert linalg.operator_norm(p @ p - p) <= 1e-12
        assert linalg.symmetry_defect(p) <= 1e-12
        assert np.trace(p) == pytest.approx(s.dim, abs=1e-10)

    def test_zero_dimensional(self):
        s = linalg.Subspace(3, np.zeros((3, 0)))
        assert s.dim == 0
        np.testing.assert_allclose(linalg.projection_from_basis(s), np.zeros((3, 3)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            linalg.Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestMeetDims:
    def test_equal_lines(self):
        s = linalg.span([1.0, 0.0])
        assert linalg.subspace_meet_dims(s, s) == (1, 1)

    def test_transverse_lines(self):
        s1 = linalg.span([1.0, 0.0])
        s2 = linalg.span([0.0, 1.0])
        assert linalg.subspace_meet_dims(s1, s2) == (0, 0)

    def test_planes_in_r4(self):
        e = np.eye(4)
        s1 = linalg.span(e[0], e[1])
        s2 = linalg.span(e[1], e[2])
        # union spans e0,e1,e2: rank 3, so one codimension left over
        assert linalg.subspace_meet_dims(s1, s2) == (1, 1)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        s1 = linalg.Subspace.from_spanning(rng.standard_normal((6, 2)))
        s2 = linalg.Subspace.from_spanning(rng.standard_normal((6, 3)))
        assert linalg.subspace_meet_dims(s1, s2) == linalg.subspace_meet_dims(s2, s1)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            linalg.subspace_meet_dims(linalg.span([1.0, 0.0]), linalg.span([1.0, 0.0, 0.0]))


def test_tolerances_validation():
    with pytest.raises(ValueError):
        linalg.Tolerances(rank_tol=0.0)
