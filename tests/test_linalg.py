"""Unit tests for the dense linear-algebra core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredlab import linalg, topology
from fredlab.errors import (
    AmbientMismatch,
    EmptyMatrix,
    FunctionUndefinedAtEigenvalue,
    InvalidConfig,
    MalformedMatrix,
    NonSquare,
    NotSymmetric,
)
from fredlab.gallery import FugledeSpec, fuglede_operator
from fredlab.topology import SelfAdjointOperator

RECON_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9


def span(*vectors):
    """Subspace spanned by the given 1-D vectors."""
    return linalg.Subspace.from_spanning(np.column_stack(vectors).astype(float))


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


class TestSymEig:
    """Symmetric eigendecompositions, whose one route is ``SelfAdjointOperator``."""

    def test_identity(self):
        dec = SelfAdjointOperator(np.eye(3)).decomposition
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_is_sorted(self):
        dec = SelfAdjointOperator(np.diag([3.0, -1.0, 2.0])).decomposition
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_off_diagonal_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
        dec = SelfAdjointOperator(np.array([[0.0, 1.0], [1.0, 0.0]])).decomposition
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        minus, plus = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
        assert abs(abs(np.dot(minus, [inv_sqrt2, -inv_sqrt2])) - 1.0) < 1e-12
        assert abs(abs(np.dot(plus, [inv_sqrt2, inv_sqrt2])) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 7, 23, 50])
    def test_reconstruction_residual(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_symmetric(rng, n, scale=3.0)
        dec = SelfAdjointOperator(a).decomposition
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        bound = RECON_TOL * (1.0 + linalg.operator_norm(a))
        assert linalg.operator_norm(recon - a) <= bound

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            SelfAdjointOperator(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SelfAdjointOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex(self):
        # a Hermitian matrix is not a real symmetric one
        with pytest.raises(NotSymmetric, match="must be real"):
            linalg.require_symmetric(np.array([[1.0, 1j], [-1j, 1.0]]), "hermitian")


class TestSymmetryDefect:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_value_and_input_kept(self, order):
        rng = np.random.default_rng(7)
        a = np.array(rng.standard_normal((6, 6)) * 3.0, order=order)
        before = a.copy()
        want = np.max(np.abs(a - a.T)) / max(1.0, np.max(np.abs(a)))
        assert linalg.symmetry_defect(a) == want
        # the skew part is formed in a copy, never in the caller's array
        assert np.array_equal(a, before)

    def test_scale_is_the_largest_magnitude(self):
        a = np.array([[-4.0, 1.0], [0.0, 2.0]])
        assert linalg.symmetry_defect(a) == 0.25
        assert linalg.symmetry_defect(-a) == 0.25
        # below 1 the scale is 1
        assert linalg.symmetry_defect(0.25 * a) == 0.25


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


def complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


NORM_CASES = {
    **SYMMETRIC_CASES,
    "tall": lambda: np.random.default_rng(1).standard_normal((30, 7)),
    "wide": lambda: np.random.default_rng(2).standard_normal((7, 30)),
    "complex": lambda: complex_matrix(np.random.default_rng(3), 9, 9),
    "complex-tall": lambda: complex_matrix(np.random.default_rng(4), 11, 4),
    "complex-wide": lambda: complex_matrix(np.random.default_rng(5), 4, 11),
    "rank-one": lambda: np.outer(np.arange(1.0, 6.0), np.arange(-3.0, 4.0)),
    "zero-wide": lambda: np.zeros((2, 5)),
    "one-by-one": lambda: np.array([[-2.5]]),
    "complex-one-by-one": lambda: np.array([[3.0 - 4.0j]]),
    **{
        f"random-40-times-{scale:g}": lambda scale=scale: scale
        * random_symmetric(np.random.default_rng(40), 40, 3.0)
        for scale in (1e300, 1e-300)
    },
    **{
        f"complex-wide-times-{scale:g}": lambda scale=scale: scale
        * complex_matrix(np.random.default_rng(6), 5, 12)
        for scale in (1e300, 1e-300)
    },
}


class TestOperatorNormAgainstSvd:
    @pytest.mark.parametrize("case", NORM_CASES)
    def test_matches_largest_singular_value(self, case):
        m = NORM_CASES[case]()
        assert linalg.operator_norm(m) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-14, abs=0.0
        )


class TestSymmetricNorm:
    @pytest.mark.parametrize("case", SYMMETRIC_CASES)
    def test_matches_operator_norm(self, case):
        # the norm of a symmetric matrix is its largest |eigenvalue|
        m = SYMMETRIC_CASES[case]()
        eigenvalues = SelfAdjointOperator(m).decomposition.eigenvalues
        assert linalg.operator_norm(m) == pytest.approx(
            np.max(np.abs(eigenvalues)), rel=1e-12, abs=0.0
        )


class TestScalarFunction:
    def test_identity_reconstructs(self):
        rng = np.random.default_rng(17)
        a = random_symmetric(rng, 8)
        dec = SelfAdjointOperator(a).decomposition
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda x: x), a, atol=1e-12
        )

    def test_square_on_diagonal(self):
        dec = SelfAdjointOperator(np.diag([1.0, 2.0])).decomposition
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda x: x**2),
            np.diag([1.0, 4.0]),
            atol=1e-12,
        )

    def test_bounded_transform_on_diagonal(self):
        dec = SelfAdjointOperator(np.diag([0.0, 1.0])).decomposition
        out = linalg.apply_scalar_function(dec, lambda x: x / np.sqrt(1.0 + x * x))
        np.testing.assert_allclose(out, np.diag([0.0, 0.7071067811865476]), atol=1e-12)

    def test_real_output_symmetric(self):
        rng = np.random.default_rng(23)
        dec = SelfAdjointOperator(random_symmetric(rng, 12)).decomposition
        out = linalg.apply_scalar_function(dec, np.tanh)
        assert linalg.symmetry_defect(out) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_polynomial_homomorphism(self, seed):
        rng = np.random.default_rng(400 + seed)
        dec = SelfAdjointOperator(random_symmetric(rng, 10)).decomposition
        c = rng.uniform(-1, 1, size=6)
        f = lambda x: c[0] + c[1] * x + c[2] * x * x
        g = lambda x: c[3] + c[4] * x + c[5] * x * x
        fg = linalg.apply_scalar_function(dec, lambda x: f(x) * g(x))
        sep = linalg.apply_scalar_function(dec, f) @ linalg.apply_scalar_function(dec, g)
        assert linalg.operator_norm(fg - sep) <= HOMOMORPHISM_TOL

    def test_undefined_value(self):
        dec = SelfAdjointOperator(np.diag([0.0, 1.0])).decomposition
        for f in (lambda x: 1.0 / x, lambda x: np.sqrt(x - 1.0)):
            with pytest.raises(FunctionUndefinedAtEigenvalue):
                linalg.apply_scalar_function(dec, f)
        # a scalar return c gives c I
        np.testing.assert_allclose(
            linalg.apply_scalar_function(dec, lambda lam: 1.0), np.eye(2), atol=1e-15
        )

    @pytest.mark.parametrize("error", [ZeroDivisionError, ValueError, OverflowError])
    def test_raising_function(self, error):
        # f is called on the eigenvalue array, so a scalar-only f raises there
        def f(lam):
            raise error("undefined here")

        dec = SelfAdjointOperator(np.diag([0.0, 1.0])).decomposition
        with pytest.raises(FunctionUndefinedAtEigenvalue, match="undefined here"):
            linalg.apply_scalar_function(dec, f)

    @pytest.mark.parametrize("c", [1.0, -2.5, 0.0, 0.5 - 3j])
    def test_scalar_return_is_exactly_c_times_identity(self, c):
        # Q is not exact here, so Q (c I) Q^T would carry rounding off the diagonal
        rng = np.random.default_rng(26)
        dec = SelfAdjointOperator(random_symmetric(rng, 30)).decomposition
        out = linalg.apply_scalar_function(dec, lambda lam: c)
        assert out.tobytes() == (c * np.eye(30)).tobytes()

    @pytest.mark.parametrize(
        "f",
        [topology.P_PLUS, topology.P_MINUS, lambda x: np.exp(1j * x), lambda x: x + 0j],
        ids=["Pplus", "Pminus", "exp-ix", "x+0j"],
    )
    def test_complex_values_match_the_complex_product(self, f):
        rng = np.random.default_rng(27)
        dec = SelfAdjointOperator(random_symmetric(rng, 60, scale=3.0)).decomposition
        vals, q = f(dec.eigenvalues), dec.eigenvectors
        want = (q * vals) @ q.T.astype(np.complex128)
        got = linalg.apply_scalar_function(dec, f)
        assert got.dtype == np.complex128
        assert linalg.operator_norm(got - want) <= 1e-14 * np.max(np.abs(vals))


class TestSubspaces:
    def test_projection_onto_axis(self):
        s = span([1.0, 0.0])
        np.testing.assert_allclose(
            linalg.projection_from_basis(s), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14
        )

    def test_projection_full_space(self):
        s = linalg.Subspace(2, np.eye(2))
        np.testing.assert_allclose(linalg.projection_from_basis(s), np.eye(2), atol=1e-14)

    def test_projection_diagonal_line(self):
        # outer product of (1,1)/sqrt(2) with itself
        s = span([1.0, 1.0])
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

    @pytest.mark.parametrize(
        "basis, match",
        [
            (np.array([[1.0, 1.0], [0.0, 1.0]]), "not orthonormal"),
            (np.eye(3)[:, :2], r"does not sit in R\^2"),
            (np.ones(2), r"does not sit in R\^2"),
            (np.eye(2, 3), "more basis vectors"),
            (np.array([[np.nan], [0.0]]), "NaN or Inf"),
        ],
        ids=["skew", "ambient", "1-D", "too-many", "nan"],
    )
    def test_malformed_basis_is_a_typed_error(self, basis, match):
        with pytest.raises(MalformedMatrix, match=match):
            linalg.Subspace(2, basis)

    @pytest.mark.parametrize("ambient", [2.5, "2", None, -1])
    def test_ambient_dimension_must_be_a_nonnegative_integer(self, ambient):
        with pytest.raises(InvalidConfig, match="ambient dimension"):
            linalg.Subspace(ambient, np.zeros((2, 0)))

    def test_numpy_integer_ambient_dimension(self):
        s = linalg.Subspace(np.int64(2), np.eye(2))
        assert type(s.ambient_dim) is int and s.ambient_dim == 2

    @pytest.mark.parametrize(
        "vectors, match",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "NaN or Inf"),
            (np.array([[np.inf], [1.0]]), "NaN or Inf"),
            (np.ones(3), "matrix of column vectors"),
        ],
        ids=["nan", "inf", "1-D"],
    )
    def test_malformed_spanning_set_is_a_typed_error(self, vectors, match):
        # a NaN column used to reach the SVD, which failed to converge
        with pytest.raises(MalformedMatrix, match=match):
            linalg.Subspace.from_spanning(vectors)


class TestMeetDims:
    def test_equal_lines(self):
        s = span([1.0, 0.0])
        assert linalg.subspace_meet_dims(s, s) == (1, 1)

    def test_transverse_lines(self):
        s1 = span([1.0, 0.0])
        s2 = span([0.0, 1.0])
        assert linalg.subspace_meet_dims(s1, s2) == (0, 0)

    def test_planes_in_r4(self):
        e = np.eye(4)
        s1 = span(e[0], e[1])
        s2 = span(e[1], e[2])
        # union spans e0,e1,e2: rank 3, so one codimension left over
        assert linalg.subspace_meet_dims(s1, s2) == (1, 1)

    def test_zero_dimensional_subspace(self):
        zero = linalg.Subspace(3, np.zeros((3, 0)))
        assert linalg.subspace_meet_dims(zero, span([1.0, 0.0, 0.0])) == (0, 2)
        assert linalg.subspace_meet_dims(zero, zero) == (0, 3)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        s1 = linalg.Subspace.from_spanning(rng.standard_normal((6, 2)))
        s2 = linalg.Subspace.from_spanning(rng.standard_normal((6, 3)))
        assert linalg.subspace_meet_dims(s1, s2) == linalg.subspace_meet_dims(s2, s1)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            linalg.subspace_meet_dims(span([1.0, 0.0]), span([1.0, 0.0, 0.0]))


def _meeting_pair(ambient, shared, extra1, extra2, seed):
    """Two random subspaces of R^ambient that share ``shared`` directions."""
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((ambient, shared))
    return tuple(
        linalg.Subspace.from_spanning(np.hstack([common, rng.standard_normal((ambient, k))]))
        for k in (extra1, extra2)
    )


@st.composite
def meeting_pairs(draw):
    ambient = draw(st.integers(1, 8))
    shared = draw(st.integers(0, ambient))
    extra1, extra2 = (draw(st.integers(0, ambient - shared)) for _ in range(2))
    seed = draw(st.integers(0, 2**16))
    return _meeting_pair(ambient, shared, extra1, extra2, seed), shared


@settings(max_examples=80)
@given(case=meeting_pairs())
def test_meet_and_codimension_satisfy_the_dimension_identity(case):
    (s1, s2), shared = case
    meet, codim = linalg.subspace_meet_dims(s1, s2)
    assert meet - codim == s1.dim + s2.dim - s1.ambient_dim
    # the shared directions are found, and the sum fits in the ambient space
    assert shared <= meet <= min(s1.dim, s2.dim)
    assert codim >= 0
