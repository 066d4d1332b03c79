"""Tests for operator metrics, functional-calculus distances and classification."""

import numpy as np
import pytest

from fredlab import linalg, topology
from fredlab.errors import DimensionMismatch
from fredlab.lagrangian import graph_projection_formula
from fredlab.topology import (
    ALPHA_RAMP,
    P_MINUS,
    P_PLUS,
    RIESZ_R,
    ComponentLabel,
    EssentialSpectrumSigns,
    ScalarFunction,
    SelfAdjointOperator,
    TailDescriptor,
)

IDENTITY_TOL = 1e-10


def sa(matrix, tail=None):
    return SelfAdjointOperator(np.asarray(matrix, dtype=float), tail)


def random_operator(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SelfAdjointOperator(0.5 * (a + a.T))


def flipped_diag(n, dim):
    """diag(1..dim) with entry n replaced by -n."""
    d = np.arange(1.0, dim + 1.0)
    if n:
        d[n - 1] = -n
    return sa(np.diag(d))


class TestRieszMap:
    def test_zero(self):
        np.testing.assert_allclose(topology.riesz_map(sa(np.zeros((3, 3)))), 0.0, atol=1e-14)

    def test_diagonal(self):
        out = topology.riesz_map(sa(np.diag([0.0, 1.0])))
        np.testing.assert_allclose(out, np.diag([0.0, 0.7071067811865476]), atol=1e-12)

    def test_scalar_three(self):
        out = topology.riesz_map(sa([[3.0]]))
        assert out[0, 0] == pytest.approx(0.9486832980505138, abs=1e-14)

    def test_contraction_commutes(self):
        rng = np.random.default_rng(1)
        a = random_operator(rng, 15, scale=4.0)
        psi = topology.riesz_map(a)
        assert linalg.operator_norm(psi) < 1.0
        assert linalg.symmetry_defect(psi) <= 1e-12
        assert linalg.operator_norm(psi @ a.matrix - a.matrix @ psi) <= IDENTITY_TOL

    def test_eigenvalues_transform_pointwise(self):
        rng = np.random.default_rng(2)
        a = random_operator(rng, 12, scale=5.0)
        psi_eigs = np.sort(linalg.sym_eig(topology.riesz_map(a)).eigenvalues)
        expected = np.sort(topology.bounded_transform_scalar(a.decomposition.eigenvalues))
        np.testing.assert_allclose(psi_eigs, expected, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_operator(rng, 9, scale=3.0)
        back = topology.riesz_inverse(topology.riesz_map(a))
        assert linalg.operator_norm(back.matrix - a.matrix) <= 1e-8 * (
            1.0 + linalg.operator_norm(a.matrix)
        )


class TestResolvents:
    def test_zero_operator(self):
        plus, minus = topology.resolvents_at_i(sa(np.zeros((2, 2))))
        np.testing.assert_allclose(plus, -1j * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(minus, -1j * np.eye(2), atol=1e-14)

    def test_scalar_one(self):
        plus, _ = topology.resolvents_at_i(sa([[1.0]]))
        assert plus[0, 0] == pytest.approx(0.5 - 0.5j, abs=1e-14)

    def test_bounded_transform_identities(self):
        # (i+A)^{-1} = F Psi - i F^2 and (i-A)^{-1} = -F Psi - i F^2
        # with F = (1+A^2)^{-1/2}; also F^2 = 1 - Psi^2.
        rng = np.random.default_rng(4)
        a = random_operator(rng, 20, scale=6.0)
        psi = topology.riesz_map(a)
        f = a.apply(lambda lam: 1.0 / np.sqrt(1.0 + lam * lam))
        f2 = a.apply(lambda lam: 1.0 / (1.0 + lam * lam))
        plus, minus = topology.resolvents_at_i(a)
        assert linalg.operator_norm(plus - (f @ psi - 1j * f2)) <= IDENTITY_TOL
        assert linalg.operator_norm(minus - (-f @ psi - 1j * f2)) <= IDENTITY_TOL
        assert linalg.operator_norm(f2 - (np.eye(20) - psi @ psi)) <= IDENTITY_TOL


class TestGapMetric:
    def test_self_distance(self):
        rng = np.random.default_rng(5)
        a = random_operator(rng, 8)
        assert topology.gap_metric(a, a) == 0.0

    def test_flipped_entry_pair(self):
        # the pair differing only in the sign of one diagonal entry n has
        # per-branch norm 2n/(1+n^2); for n=1 each branch is 1, total 2
        a1, a0 = flipped_diag(1, 4), flipped_diag(0, 4)
        p0, m0 = topology.resolvents_at_i(a0)
        p1, m1 = topology.resolvents_at_i(a1)
        assert linalg.operator_norm(p1 - p0) == pytest.approx(1.0, abs=1e-12)
        assert linalg.operator_norm(m1 - m0) == pytest.approx(1.0, abs=1e-12)
        assert topology.gap_metric(a1, a0) == pytest.approx(2.0, abs=1e-12)

    def test_small_perturbation_scaling(self):
        for t in (1e-3, 1e-5):
            g = topology.gap_metric(sa([[0.0]]), sa([[t]]))
            assert g <= 3.0 * t
            assert g >= 0.5 * t

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_explicit_two_branch_sum(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(2, 21))
        a0, a1 = (random_operator(rng, n, scale=3.0) for _ in range(2))

        def branch(f):
            return linalg.operator_norm(a0.apply(f) - a1.apply(f))

        two_branch = branch(lambda lam: 1.0 / (1j + lam)) + branch(lambda lam: 1.0 / (1j - lam))
        assert abs(topology.gap_metric(a0, a1) - two_branch) <= 1e-12

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 21))
            a, b, c = (random_operator(rng, n, scale=3.0) for _ in range(3))
            gab = topology.gap_metric(a, b)
            assert gab == topology.gap_metric(b, a)
            worst = max(worst, gab - topology.gap_metric(a, c) - topology.gap_metric(c, b))
        assert worst <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            topology.gap_metric(sa([[0.0]]), sa(np.zeros((2, 2))))


class TestRieszMetric:
    def test_self_distance_and_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = random_operator(rng, 10), random_operator(rng, 10)
        assert topology.riesz_metric(a, a) == 0.0
        assert topology.riesz_metric(a, b) == topology.riesz_metric(b, a)

    def test_sign_flip_scalar(self):
        d = topology.riesz_metric(sa([[1.0]]), sa([[-1.0]]))
        assert d == pytest.approx(1.4142135623730951, abs=1e-14)

    def test_flipped_entry_value(self):
        for n in (1, 4):
            d = topology.riesz_metric(flipped_diag(n, 4 * n), flipped_diag(0, 4 * n))
            assert d == pytest.approx(2.0 * n / np.sqrt(1.0 + n * n), abs=1e-12)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            a = random_operator(rng, n, scale=50.0)
            b = random_operator(rng, n, scale=50.0)
            assert topology.riesz_metric(a, b) <= 2.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        a = random_operator(rng, 6)
        b = SelfAdjointOperator(a.matrix + 1e-6 * np.eye(6))
        assert topology.riesz_metric(a, b) > 1e-8

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 21))
            a, b, c = (random_operator(rng, n, scale=3.0) for _ in range(3))
            worst = max(
                worst,
                topology.riesz_metric(a, b)
                - topology.riesz_metric(a, c)
                - topology.riesz_metric(c, b),
            )
        assert worst <= 1e-10

    def test_riesz_controls_gap(self):
        # shrink the bounded-transform difference linearly and watch both
        # metrics drop below 1e-6 at the same index
        rng = np.random.default_rng(11)
        a = random_operator(rng, 10, scale=2.0)
        b = random_operator(rng, 10, scale=2.0)
        psi_a, psi_b = topology.riesz_map(a), topology.riesz_map(b)
        rhos, gammas = [], []
        for k in range(34):
            t = 0.5**k
            a_k = topology.riesz_inverse(psi_a + t * (psi_b - psi_a))
            rhos.append(topology.riesz_metric(a_k, a))
            gammas.append(topology.gap_metric(a_k, a))
        assert rhos[-1] < 1e-9
        joint = [i for i in range(34) if rhos[i] < 1e-6 and gammas[i] < 1e-6]
        assert joint, f"no common index below 1e-6: rho={rhos[-1]}, gamma={gammas[-1]}"


class TestSubspaceGap:
    def test_self(self):
        s = linalg.span([1.0, 2.0, 0.0])
        assert topology.subspace_gap(s, s) == 0.0

    def test_orthogonal_lines(self):
        d = topology.subspace_gap(linalg.span([1.0, 0.0]), linalg.span([0.0, 1.0]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_rotated_line(self):
        theta = np.pi / 6.0
        d = topology.subspace_gap(
            linalg.span([1.0, 0.0]), linalg.span([np.cos(theta), np.sin(theta)])
        )
        assert d == pytest.approx(0.5, abs=1e-12)


class TestGeneratorProfile:
    def test_identical_operators(self):
        rng = np.random.default_rng(12)
        a = random_operator(rng, 7)
        report = topology.generator_distance_profile(a, a)
        assert report.gamma == 0.0
        assert report.rho == 0.0
        assert report.delta_graphs == 0.0
        assert all(v == 0.0 for v in report.generator_distances.values())

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_flipped_entry_profile(self, n):
        a_n, a_0 = flipped_diag(n, 4 * n), flipped_diag(0, 4 * n)
        report = topology.generator_distance_profile(a_n, a_0)
        resolvent = 2.0 * n / (1.0 + n * n)
        assert report.generator_distances["Pplus"] == pytest.approx(resolvent, abs=1e-12)
        assert report.generator_distances["Pminus"] == pytest.approx(resolvent, abs=1e-12)
        assert report.generator_distances["P0"] == 0.0
        assert report.generator_distances["alpha_ramp"] == pytest.approx(1.0, abs=1e-12)
        assert report.generator_distances["r"] == pytest.approx(
            2.0 * n / np.sqrt(1.0 + n * n), abs=1e-12
        )

    def test_gap_bounds_each_resolvent_branch(self):
        rng = np.random.default_rng(13)
        a, b = random_operator(rng, 9, 2.0), random_operator(rng, 9, 2.0)
        report = topology.generator_distance_profile(a, b, fns=(P_PLUS, P_MINUS))
        assert report.generator_distances["Pplus"] <= report.gamma + 1e-12
        assert report.generator_distances["Pminus"] <= report.gamma + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_graphs_matches_block_formula(self, seed):
        rng = np.random.default_rng(700 + seed)
        a, b = random_operator(rng, 9, 3.0), random_operator(rng, 9, 3.0)
        report = topology.generator_distance_profile(a, b, fns=())
        oracle = linalg.operator_norm(graph_projection_formula(a) - graph_projection_formula(b))
        assert abs(report.delta_graphs - oracle) <= 1e-10

    def test_custom_function(self):
        probe = ScalarFunction("sine", np.sin)
        a, b = sa([[0.0]]), sa([[np.pi / 2.0]])
        report = topology.generator_distance_profile(a, b, fns=(probe,))
        assert report.generator_distances["sine"] == pytest.approx(1.0, abs=1e-12)


class TestRampFunction:
    def test_profile_values(self):
        assert ALPHA_RAMP(-10.0) == 0.0
        assert ALPHA_RAMP(10.0) == 1.0
        assert ALPHA_RAMP(0.0) == pytest.approx(0.5)
        assert ALPHA_RAMP(0.25) == pytest.approx(0.75)


class TestRelativeBound:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(14)
        a = random_operator(rng, 5)
        assert topology.relative_bound_surrogate(a, np.zeros((5, 5))) == 0.0

    def test_identity_base(self):
        eps = 1e-3
        c = topology.relative_bound_surrogate(sa(np.zeros((2, 2))), np.diag([eps, eps]))
        assert c == pytest.approx(eps, abs=1e-15)

    def test_scalar_quotient(self):
        c = topology.relative_bound_surrogate(sa([[10.0]]), np.array([[1.0]]))
        assert c == pytest.approx(1.0 / 11.0, abs=1e-14)

    def test_certified_bound_holds(self):
        rng = np.random.default_rng(15)
        a = random_operator(rng, 12, scale=4.0)
        s = 0.5 * (lambda m: m + m.T)(rng.standard_normal((12, 12)))
        c = topology.relative_bound_surrogate(a, s)
        for _ in range(50):
            u = rng.standard_normal(12)
            lhs = np.linalg.norm(s @ u)
            rhs = c * (np.linalg.norm(a.matrix @ u) + np.linalg.norm(u))
            assert lhs <= rhs + 1e-10


class TestClassification:
    def test_metadata_driven(self):
        m = np.diag([1.0, 2.0, 3.0])
        plus = sa(m, TailDescriptor(EssentialSpectrumSigns.PLUS_ONLY))
        minus = sa(m, TailDescriptor(EssentialSpectrumSigns.MINUS_ONLY))
        both = sa(m, TailDescriptor(EssentialSpectrumSigns.BOTH))
        none = sa(m, TailDescriptor(EssentialSpectrumSigns.NONE))
        assert topology.classify_component(plus) is ComponentLabel.F_PLUS
        assert topology.classify_component(minus) is ComponentLabel.F_MINUS
        assert topology.classify_component(both) is ComponentLabel.F_ZERO
        assert topology.classify_component(none) is ComponentLabel.UNKNOWN

    def test_missing_tail_is_unknown(self):
        assert topology.classify_component(sa(np.eye(2))) is ComponentLabel.UNKNOWN
