"""Tests for graphs, Lagrangian subspaces and the doubled-space correspondence."""

import numpy as np
import pytest

from fredlab import gallery, lagrangian, linalg, topology
from fredlab.errors import AmbientMismatch, DimensionMismatch, InvalidConfig, NonSquare
from fredlab.gallery import FugledeSpec, fuglede_operator
from fredlab.lagrangian import (
    SymplecticDoubling,
    graph_projection_formula,
    graph_subspace,
    is_lagrangian,
    kato_consistency,
    suspension,
)
from fredlab.topology import SelfAdjointOperator

ORACLE_TOL = 1e-10


def sa(m):
    return SelfAdjointOperator(np.asarray(m, dtype=float))


class TestDoubling:
    def test_complex_structure(self):
        j = SymplecticDoubling(3).complex_structure()
        np.testing.assert_array_equal(j.T, -j)
        np.testing.assert_array_equal(j @ j, -np.eye(6))

    def test_horizontal_is_lagrangian(self):
        d = SymplecticDoubling(4)
        assert is_lagrangian(d.horizontal(), d)

    @pytest.mark.parametrize("half_dim", [2.5, 0, -1])
    def test_half_dimension_must_be_a_positive_integer(self, half_dim):
        with pytest.raises(InvalidConfig):
            SymplecticDoubling(half_dim)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_residual_off_half_dimension_is_one(self, dim):
        s = linalg.Subspace(4, np.eye(4)[:, :dim])
        d = SymplecticDoubling(2)
        assert lagrangian.lagrangian_residual(s, d) == pytest.approx(1.0, abs=1e-12)
        assert not is_lagrangian(s, d)

    def test_residual_needs_the_doubling_ambient(self):
        s = linalg.Subspace(4, np.eye(4)[:, :2])
        with pytest.raises(AmbientMismatch):
            lagrangian.lagrangian_residual(s, SymplecticDoubling(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 39])
    def test_residual_is_bitwise_the_dense_product(self, n):
        # the block rotation [[P22, -P21], [-P12, P11]] against J P J^T formed
        # from complex_structure(), on a graph and on non-Lagrangian subspaces
        rng = np.random.default_rng(700 + n)
        d = SymplecticDoubling(n)
        j = d.complex_structure()
        a = rng.standard_normal((n, n))
        spans = (rng.standard_normal((2 * n, k)) for k in (1, n, 2 * n - 1))
        subspaces = [graph_subspace(sa(a + a.T)), *map(linalg.Subspace.from_spanning, spans)]
        for s in subspaces:
            p = linalg.projection_from_basis(s)
            dense = linalg.operator_norm(j @ p @ j.T - (np.eye(2 * n) - p))
            assert lagrangian.lagrangian_residual(s, d) == dense


class TestGraphSubspace:
    def test_zero_operator(self):
        s = graph_subspace(sa(np.zeros((3, 3))))
        p = linalg.projection_from_basis(s)
        expected = np.zeros((6, 6))
        expected[:3, :3] = np.eye(3)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_identity_line(self):
        s = graph_subspace(sa([[1.0]]))
        v = s.basis[:, 0]
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert abs(abs(np.dot(v, [inv_sqrt2, inv_sqrt2])) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_two_constructions_agree(self, seed):
        a = gallery.random_selfadjoint(10, seed=seed, spectrum_range=(-4.0, 4.0))
        p_qr = linalg.projection_from_basis(graph_subspace(a))
        p_formula = graph_projection_formula(a)
        assert linalg.operator_norm(p_qr - p_formula) <= ORACLE_TOL

    def test_graphs_are_lagrangian(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            a = gallery.random_selfadjoint(n, seed=int(rng.integers(1 << 30)))
            assert is_lagrangian(graph_subspace(a), SymplecticDoubling(n))

    def test_non_symmetric_graph_is_not_lagrangian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        stacked = np.vstack([np.eye(2), m])
        q, _ = np.linalg.qr(stacked)
        s = linalg.Subspace(4, q)
        assert not is_lagrangian(s, SymplecticDoubling(2))


class TestFredholmPairs:
    # the kernel of the pair (horizontal, graph(a)) is ker a: the meet
    # dimension that the graph report reads from linalg.subspace_meet_dims
    @staticmethod
    def _kernel_dim(a):
        horizontal = SymplecticDoubling(a.dim).horizontal()
        return linalg.subspace_meet_dims(horizontal, graph_subspace(a))[0]

    def test_invertible_graph_meets_horizontal_trivially(self):
        assert self._kernel_dim(sa(np.diag([1.0, -2.0, 3.0]))) == 0

    def test_kernel_dimension_shows_up(self):
        a = gallery.random_with_spectrum([0.0, 0.0, 1.0, -2.0], seed=5)
        assert self._kernel_dim(a) == 2

    def test_pair_with_itself(self):
        s = graph_subspace(sa(np.diag([1.0, 2.0])))
        assert linalg.subspace_meet_dims(s, s) == (2, 2)

    def test_kernel_count_matches_spectrum(self):
        for seed, zeros in ((7, 0), (8, 1), (9, 3)):
            spectrum = [0.0] * zeros + [0.5 + k for k in range(6 - zeros)]
            a = gallery.random_with_spectrum(spectrum, seed=seed)
            assert self._kernel_dim(a) == zeros


class TestSuspension:
    def test_zero(self):
        s = suspension(np.zeros((2, 2)))
        np.testing.assert_allclose(s.matrix, 0.0)

    def test_identity_spectrum(self):
        s = suspension(np.eye(3))
        np.testing.assert_allclose(
            s.decomposition.eigenvalues, [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0], atol=1e-12
        )

    def test_anticommutes_with_grading(self):
        rng = np.random.default_rng(17)
        l = rng.standard_normal((4, 4))
        s = suspension(l)
        grading = np.diag([1.0] * 4 + [-1.0] * 4)
        np.testing.assert_array_equal(s.matrix @ grading + grading @ s.matrix, 0.0)

    def test_spectrum_is_symmetrized_singular_values(self):
        rng = np.random.default_rng(18)
        l = rng.standard_normal((6, 6))
        w = suspension(l).decomposition.eigenvalues
        sv = np.linalg.svd(l, compute_uv=False)
        expected = np.sort(np.concatenate([sv, -sv]))
        np.testing.assert_allclose(w, expected, atol=1e-10)
        np.testing.assert_allclose(w, -w[::-1], atol=1e-10)

    def test_kernel_dimensions_add(self):
        l = np.zeros((3, 3))
        l[0, 1] = 1.0  # rank 1, so ker L and ker L^T are 2-dimensional each
        w = suspension(l).decomposition.eigenvalues
        assert int(np.count_nonzero(np.abs(w) < 1e-12)) == 4

    def test_rejects_rectangular(self):
        with pytest.raises(NonSquare):
            suspension(np.ones((2, 3)))


class TestKatoConsistency:
    def test_identical(self):
        a = gallery.random_selfadjoint(6, seed=20)
        assert kato_consistency(a, a) == (0.0, 0.0)

    def test_flipped_family_converges_jointly(self):
        deltas, gammas = [], []
        for n in (1, 2, 4, 8, 16):
            a_n = fuglede_operator(FugledeSpec(n, 4 * n))
            a_0 = fuglede_operator(FugledeSpec(0, 4 * n))
            delta, gamma = kato_consistency(a_n, a_0)
            deltas.append(delta)
            gammas.append(gamma)
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        # graph distance of the flipped pair is one resolvent branch: 2n/(1+n^2)
        np.testing.assert_allclose(
            deltas,
            [2.0 * n / (1.0 + n * n) for n in (1, 2, 4, 8, 16)],
            atol=1e-10,
        )
        np.testing.assert_allclose(deltas, [g / 2.0 for g in gammas], rtol=0.0, atol=1e-12)

    def test_operators_of_unequal_dims_are_a_dimension_mismatch(self):
        # the graphs' ambient dims differ too, but the pair is one of operators
        with pytest.raises(DimensionMismatch):
            kato_consistency(sa(np.eye(2)), sa(np.eye(3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_matches_block_formula(self, seed):
        rng = np.random.default_rng(700 + seed)
        a, b = (sa(0.5 * (m + m.T)) for m in rng.standard_normal((2, 9, 9)) * 3.0)
        delta, _ = kato_consistency(a, b)
        oracle = linalg.operator_norm(graph_projection_formula(a) - graph_projection_formula(b))
        assert abs(delta - oracle) <= 1e-10

    # |P_A - P_B| = |(A+i)^{-1} - (B+i)^{-1}| for the graph projections of
    # selfadjoint A, B, and the gap sums two branches of that norm
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21, 40])
    def test_graph_distance_is_half_the_gap_on_random_pairs(self, dim):
        scale = (-4.0, 4.0)
        a0 = gallery.random_selfadjoint(dim, seed=100 + dim, spectrum_range=scale)
        a1 = gallery.random_selfadjoint(dim, seed=200 + dim, spectrum_range=scale)
        delta, gamma = kato_consistency(a0, a1)
        assert abs(delta - gamma / 2.0) <= 1e-12
