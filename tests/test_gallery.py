"""Tests for the operator families backing the experiments."""

import numpy as np
import pytest

from fredlab import gallery, linalg, topology
from fredlab.errors import InvalidConfig, InvalidSpec
from fredlab.gallery import FugledeSpec, fuglede_expected, fuglede_operator


class TestFlippedDiagonalFamily:
    def test_reference(self):
        a0 = fuglede_operator(FugledeSpec(0, 4))
        np.testing.assert_allclose(a0.matrix, np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_first_flip(self):
        a1 = fuglede_operator(FugledeSpec(1, 4))
        np.testing.assert_allclose(a1.matrix, np.diag([-1.0, 2.0, 3.0, 4.0]))

    def test_third_flip(self):
        a3 = fuglede_operator(FugledeSpec(3, 8))
        np.testing.assert_allclose(
            a3.matrix, np.diag([1.0, 2.0, -3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        )

    def test_window_too_small(self):
        with pytest.raises(InvalidSpec):
            FugledeSpec(3, 5)

    @pytest.mark.parametrize("n, dim", [(1.5, 4), (-1, 4), (1, 0), (1, 4.0)])
    def test_sizes_must_be_integers_in_range(self, n, dim):
        with pytest.raises(InvalidConfig):
            FugledeSpec(n, dim)

    def test_numpy_integer_sizes(self):
        spec = FugledeSpec(np.int64(2), np.int32(8))
        assert (type(spec.n), type(spec.dim)) == (int, int)
        assert fuglede_operator(spec).dim == 8

    def test_expected_closed_forms(self):
        branch, rho, alpha = fuglede_expected(1)
        assert branch == pytest.approx(1.0)
        assert rho == pytest.approx(1.4142135623730951)
        assert alpha == 1.0
        branch, rho, alpha = fuglede_expected(4)
        assert branch == pytest.approx(8.0 / 17.0)
        assert rho == pytest.approx(1.9402850002906638)

    @pytest.mark.parametrize(
        "n, match", [(1.5, "need an integer flip index"), (0, "need flip index >= 1, got 0")]
    )
    def test_expected_needs_a_flip_index(self, n, match):
        with pytest.raises(InvalidConfig, match=match):
            fuglede_expected(n)

    def test_expected_fields_are_floats(self):
        assert [type(x) for x in fuglede_expected(np.int64(3))] == [float] * 3

    def test_expected_limits(self):
        big = fuglede_expected(10_000)
        assert big.resolvent_branch < 1e-3
        assert abs(big.rho - 2.0) < 1e-7
        assert big.alpha_dist == 1.0

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_computed_metrics_match_closed_forms(self, n):
        a_n = fuglede_operator(FugledeSpec(n, 4 * n))
        a_0 = fuglede_operator(FugledeSpec(0, 4 * n))
        expected = fuglede_expected(n)
        p_n, m_n = topology.resolvents_at_i(a_n)
        p_0, m_0 = topology.resolvents_at_i(a_0)
        assert linalg.operator_norm(p_n - p_0) == pytest.approx(
            expected.resolvent_branch, abs=1e-8
        )
        assert linalg.operator_norm(m_n - m_0) == pytest.approx(
            expected.resolvent_branch, abs=1e-8
        )
        assert topology.riesz_metric(a_n, a_0) == pytest.approx(expected.rho, abs=1e-8)
        alpha = linalg.operator_norm(
            a_n.apply(topology.ALPHA_RAMP) - a_0.apply(topology.ALPHA_RAMP)
        )
        assert alpha == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 3])
    def test_truncation_independence(self, n):
        stats = []
        for factor in (2, 8):
            a_n = fuglede_operator(FugledeSpec(n, factor * n))
            a_0 = fuglede_operator(FugledeSpec(0, factor * n))
            p_n, _ = topology.resolvents_at_i(a_n)
            p_0, _ = topology.resolvents_at_i(a_0)
            stats.append(
                (
                    linalg.operator_norm(p_n - p_0),
                    topology.riesz_metric(a_n, a_0),
                    linalg.operator_norm(
                        a_n.apply(topology.ALPHA_RAMP) - a_0.apply(topology.ALPHA_RAMP)
                    ),
                )
            )
        np.testing.assert_allclose(stats[0], stats[1], atol=1e-12)


class TestPerturbationFamily:
    def test_zero_schedule(self):
        base = gallery.random_selfadjoint(5, seed=3)
        fam = gallery.perturbation_family(base, seed=4, schedule=[0.0])
        np.testing.assert_allclose(fam.delta(0), 0.0)

    def test_identity_base_norm(self):
        # against the identity the damping factor is 1/2, so the bound 0.1
        # forces a perturbation of norm exactly 0.2
        base = topology.SelfAdjointOperator(np.eye(6))
        fam = gallery.perturbation_family(base, seed=5, schedule=[0.1])
        assert linalg.operator_norm(fam.delta(0)) == pytest.approx(0.2, abs=1e-12)

    def test_bounds_hit_exactly(self):
        base = gallery.random_selfadjoint(8, seed=6, spectrum_range=(-4.0, 4.0))
        schedule = [0.5**k for k in range(1, 8)]
        fam = gallery.perturbation_family(base, seed=7, schedule=schedule)
        for k, c in enumerate(fam.bound_targets):
            assert topology.relative_bound_surrogate(base, fam.delta(k)) == pytest.approx(
                c, abs=1e-10
            )

    def test_rho_decreases_along_schedule(self):
        base = gallery.random_selfadjoint(10, seed=8, spectrum_range=(-3.0, 3.0))
        schedule = [0.5**k for k in range(1, 9)]
        fam = gallery.perturbation_family(base, seed=9, schedule=schedule)
        rhos = [topology.riesz_metric(fam.perturbed(k), base) for k in range(len(schedule))]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] < rhos[0] / 50.0

    def test_gap_and_ramp_track_rho(self):
        # the finer metric controls both the gap distance and the ramp
        # distance, unlike on the flipped-diagonal family
        base = gallery.random_selfadjoint(10, seed=8, spectrum_range=(-3.0, 3.0))
        fam = gallery.perturbation_family(base, seed=9, schedule=[0.5**k for k in range(1, 9)])
        for k in (3, 7):
            p = fam.perturbed(k)
            rho = topology.riesz_metric(p, base)
            gamma = topology.gap_metric(p, base)
            ramp = linalg.operator_norm(
                p.apply(topology.ALPHA_RAMP) - base.apply(topology.ALPHA_RAMP)
            )
            assert gamma <= 3.0 * rho
            assert ramp <= 2.0 * rho
        assert topology.riesz_metric(fam.perturbed(7), base) < 1e-2

    @pytest.mark.parametrize("schedule", [0.5, None, [[0.5, 0.25]], ["0.5"]])
    def test_schedule_must_be_a_sequence_of_numbers(self, schedule):
        base = gallery.random_selfadjoint(4, seed=10)
        with pytest.raises(InvalidSpec, match="sequence of numbers"):
            gallery.perturbation_family(base, 2, schedule)

    def test_increasing_schedule_rejected(self):
        base = gallery.random_selfadjoint(4, seed=10)
        with pytest.raises(InvalidSpec):
            gallery.perturbation_family(base, seed=11, schedule=[0.1, 0.2])

    @pytest.mark.parametrize("targets", [[0.1, -0.1], [np.nan], [np.inf]])
    def test_targets_checked_by_the_schedule(self, targets):
        base = gallery.random_selfadjoint(4, seed=10)
        with pytest.raises(InvalidSpec, match="finite and nonnegative"):
            gallery.PerturbationSchedule(base, np.eye(4), targets)

    def test_perturbed_is_base_plus_scaled_direction(self):
        base = gallery.random_selfadjoint(8, seed=6, spectrum_range=(-4.0, 4.0))
        fam = gallery.perturbation_family(base, seed=7, schedule=[0.5, 0.125, 0.0])
        for k, c in enumerate((0.5, 0.125)):
            expected = base.matrix + (c / fam.size) * fam.direction
            assert fam.perturbed(k).matrix.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(fam.perturbed(2).matrix, base.matrix)

    def test_direction_is_sized_once(self, monkeypatch):
        calls = []

        def counted(a, s):
            calls.append(s)
            return topology.relative_bound_surrogate(a, s)

        monkeypatch.setattr(gallery, "relative_bound_surrogate", counted)
        base = gallery.random_selfadjoint(6, seed=3)
        gallery.perturbation_family(base, seed=4, schedule=[0.5**k for k in range(1, 11)])
        assert len(calls) == 1


class TestRandomOperators:
    def test_scalar(self):
        a = gallery.random_selfadjoint(1, seed=12, spectrum_range=(2.0, 3.0))
        assert 2.0 <= a.matrix[0, 0] <= 3.0

    @pytest.mark.parametrize("dim", [2.5, 0, "3"])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(InvalidConfig):
            gallery.random_selfadjoint(dim, seed=1)

    def test_empty_range(self):
        with pytest.raises(InvalidSpec, match="empty spectrum range"):
            gallery.random_selfadjoint(3, 1, spectrum_range=(1.0, -1.0))

    def test_degenerate_range(self):
        a = gallery.random_selfadjoint(6, seed=13, spectrum_range=(0.0, 0.0))
        np.testing.assert_allclose(a.matrix, 0.0, atol=1e-14)

    def test_spectrum_in_range(self):
        a = gallery.random_selfadjoint(20, seed=14, spectrum_range=(-2.0, 5.0))
        w = a.decomposition.eigenvalues
        assert np.all(w >= -2.0 - 1e-10) and np.all(w <= 5.0 + 1e-10)

    def test_deterministic(self):
        a = gallery.random_selfadjoint(7, seed=15)
        b = gallery.random_selfadjoint(7, seed=15)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_prescribed_spectrum(self):
        target = [0.0, 0.0, 1.0, 2.5]
        a = gallery.random_with_spectrum(target, seed=16)
        np.testing.assert_allclose(a.decomposition.eigenvalues, target, atol=1e-12)

    @pytest.mark.parametrize("spectrum", [np.eye(2), 1.0, []])
    def test_spectrum_must_be_one_dimensional(self, spectrum):
        with pytest.raises(InvalidSpec, match="1-D"):
            gallery.random_with_spectrum(spectrum, 1)

    @pytest.mark.parametrize(
        "spectrum_range", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)]
    )
    def test_range_must_be_finite(self, spectrum_range):
        with pytest.raises(InvalidSpec, match="finite ends"):
            gallery.random_selfadjoint(3, 1, spectrum_range=spectrum_range)

    @pytest.mark.parametrize(
        "spectrum_range", [(1.0,), 2.0, (0, 1, 2), ("-1", "1"), (0.0, None), (0.0, 1j), "01"]
    )
    def test_range_must_be_two_numbers(self, spectrum_range):
        with pytest.raises(InvalidSpec, match="two numbers"):
            gallery.random_selfadjoint(3, 1, spectrum_range=spectrum_range)

    def test_range_of_integers_or_an_array(self):
        want = gallery.random_selfadjoint(5, seed=2, spectrum_range=(-1.0, 3.0)).matrix
        for spectrum_range in ((-1, 3), [-1, 3.0], np.array([-1.0, 3.0])):
            got = gallery.random_selfadjoint(5, seed=2, spectrum_range=spectrum_range).matrix
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spectrum", [[1.0, np.nan], [np.inf, 0.0, 1.0]])
    def test_eigenvalues_must_be_finite(self, spectrum):
        with pytest.raises(InvalidSpec, match="non-finite"):
            gallery.random_with_spectrum(spectrum, 1)


def _check_decomposition(a):
    """The cached decomposition of ``a`` against an independent solve of its matrix."""
    dec, m = a.decomposition, a.matrix
    lam, q = dec.eigenvalues, dec.eigenvectors
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(m))) <= 1e-12 * scale
    assert np.max(np.abs(lam - np.linalg.eigh(m)[0])) <= 1e-12 * scale
    assert linalg.operator_norm(q.T @ q - np.eye(a.dim)) <= 1e-13
    assert linalg.operator_norm(m @ q - q * lam) <= 1e-13 * scale


class TestRandomDecompositions:
    """Gallery operators hold the eigenpairs they are built from, and no solve."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 50, 200])
    def test_random_selfadjoint(self, dim, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a gallery operator must not solve for its eigenpairs")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", refuse)
            a = gallery.random_selfadjoint(dim, seed=dim, spectrum_range=(-5.0, 5.0))
            dec = a.decomposition
        assert a.decomposition is dec
        _check_decomposition(a)

    @pytest.mark.parametrize(
        "spectrum",
        [[3.0, -1.0, 0.0, 0.0, 2.0], [0.0] * 6, [1.0, -2.0, 1.0, 1.0, -2.0, 7.5], [-4.0]],
        ids=["zeros", "all-zero", "repeated", "one"],
    )
    def test_random_with_spectrum(self, spectrum):
        a = gallery.random_with_spectrum(spectrum, seed=17)
        np.testing.assert_array_equal(a.decomposition.eigenvalues, np.sort(spectrum))
        _check_decomposition(a)

    def test_repeated_eigenvalues_keep_their_vectors_in_order(self):
        a = gallery.random_with_spectrum([2.0, -1.0, 2.0, 2.0], seed=18)
        q, _ = np.linalg.qr(gallery.generator(18).standard_normal((4, 4)))
        np.testing.assert_array_equal(a.decomposition.eigenvectors, q[:, [1, 0, 2, 3]])

    @pytest.mark.parametrize("n, dim", [(0, 1), (1, 2), (3, 8), (8, 16)])
    def test_fuglede_operator(self, n, dim, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a gallery operator must not solve for its eigenpairs")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", refuse)
            a = fuglede_operator(FugledeSpec(n, dim))
            dec = a.decomposition
        diag = np.arange(1.0, dim + 1.0)
        if n:
            diag[n - 1] = -n
        assert a.matrix.tobytes() == topology.SelfAdjointOperator(np.diag(diag)).matrix.tobytes()
        order = np.argsort(diag)
        np.testing.assert_array_equal(dec.eigenvalues, diag[order])
        np.testing.assert_array_equal(dec.eigenvectors, np.eye(dim)[:, order])
        _check_decomposition(a)

    def test_zero_range(self):
        a = gallery.random_selfadjoint(9, seed=19, spectrum_range=(0.0, 0.0))
        assert not a.decomposition.eigenvalues.any()
        _check_decomposition(a)

    def test_matrix_is_the_conjugation(self):
        rng = gallery.generator(20)
        w = rng.uniform(-1.0, 1.0, size=30)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        m = (q * w) @ q.T
        a = gallery.random_selfadjoint(30, seed=20)
        assert a.matrix.tobytes() == topology.SelfAdjointOperator(m).matrix.tobytes()
