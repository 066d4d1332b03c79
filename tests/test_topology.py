"""Tests for operator metrics and functional-calculus distances."""

import numpy as np
import pytest

from fredlab import gallery, lagrangian, linalg, topology
from fredlab.errors import (
    AmbientMismatch,
    DimensionMismatch,
    FredlabError,
    FunctionUndefinedAtEigenvalue,
    InvalidMetric,
    InvalidSpec,
)
from fredlab.topology import (
    ALPHA_RAMP,
    P_MINUS,
    P_PLUS,
    RIESZ_R,
    ScalarFunction,
    SelfAdjointOperator,
)

IDENTITY_TOL = 1e-10

#: The smallest subnormal, 2^-1074; halving an odd multiple of it rounds.
TINY = np.nextafter(0.0, 1.0)


def span(*vectors):
    """Subspace spanned by the given 1-D vectors."""
    return linalg.Subspace.from_spanning(np.column_stack(vectors).astype(float))


def sa(matrix):
    return SelfAdjointOperator(np.asarray(matrix, dtype=float))


def random_operator(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SelfAdjointOperator(0.5 * (a + a.T))


def flipped_diag(n, dim):
    """diag(1..dim) with entry n replaced by -n."""
    d = np.arange(1.0, dim + 1.0)
    if n:
        d[n - 1] = -n
    return sa(np.diag(d))


class TestSelfAdjointOperator:
    """The holder of a symmetric eigendecomposition: check and symmetrize once."""

    def test_exactly_symmetric_input_is_kept_bitwise(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((9, 9))
        a = a + a.T
        m = SelfAdjointOperator(a).matrix
        assert m.tobytes() == a.tobytes()

    def test_near_symmetric_input_is_symmetrized_and_decomposed(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 12))
        skew = rng.standard_normal((12, 12))
        a = a + a.T + 1e-14 * (skew - skew.T)
        op = SelfAdjointOperator(a)
        assert not np.array_equal(a, a.T)
        assert np.array_equal(op.matrix, op.matrix.T)
        assert op.matrix.tobytes() == (0.5 * (a + a.T)).tobytes()
        q, lam = op.decomposition.eigenvectors, op.decomposition.eigenvalues
        recon = (q * lam) @ q.T
        assert linalg.operator_norm(recon - op.matrix) <= IDENTITY_TOL * (
            1.0 + linalg.operator_norm(op.matrix)
        )

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_spectrum_matches_the_decomposition_without_eigenvectors(self, scale, monkeypatch):
        op = random_operator(np.random.default_rng(32), 40, scale)

        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum must not solve for eigenvectors")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", refuse)
            w = op.spectrum
        assert op.spectrum is w
        lam = op.decomposition.eigenvalues
        assert np.max(np.abs(w - lam)) <= 1e-12 * max(1.0, float(np.max(np.abs(lam))))

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1e308, 1.0]),
            np.array([[1.0, 3 * TINY], [3 * TINY, 2.0]]),
            np.array([[1.0, 1.7e308], [1.7e308 * (1.0 - 1e-14), 2.0]]),
        ],
        ids=["huge-diagonal", "odd-subnormal", "asymmetric-near-overflow"],
    )
    def test_symmetrization_cannot_overflow(self, a):
        with np.errstate(over="raise", invalid="raise"):
            m = SelfAdjointOperator(a).matrix
        assert np.array_equal(m, m.T) and np.all(np.isfinite(m))
        equal = a == a.T
        assert m[equal].tobytes() == a[equal].tobytes()
        assert np.array_equal(m[~equal], (0.5 * a + 0.5 * a.T)[~equal])

    def test_huge_diagonal_is_decomposed(self):
        dec = SelfAdjointOperator(np.diag([1e308, 1.0])).decomposition
        assert np.array_equal(dec.eigenvalues, [1.0, 1e308])

    @staticmethod
    def _count_checks(monkeypatch):
        calls = []
        check = linalg.require_symmetric
        monkeypatch.setattr(
            linalg, "require_symmetric", lambda *a, **k: calls.append(1) or check(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("metric", [topology.gap_metric, topology.riesz_metric])
    def test_metrics_of_built_operators_check_nothing(self, metric, monkeypatch):
        rng = np.random.default_rng(32)
        a0, a1 = (random_operator(rng, 16, scale=3.0) for _ in range(2))
        calls = self._count_checks(monkeypatch)
        assert metric(a0, a1) > 0.0
        assert calls == []

    def test_mass_normalized_checks_twice(self, monkeypatch):
        from fredlab import floer

        ops = [floer.FloerPencil.zero(16).at(s) for s in (0.5, 1.0)]
        calls = self._count_checks(monkeypatch)
        for op in ops:
            floer.mass_normalized(op).decomposition
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "bad", [np.array([[np.nan]]), np.array([[1.0, np.inf], [np.inf, 1.0]]), np.zeros(3)]
    )
    @pytest.mark.parametrize("door", [SelfAdjointOperator, linalg.operator_norm])
    def test_malformed_input_is_a_typed_error(self, door, bad):
        with pytest.raises(FredlabError) as exc:
            door(bad)
        assert isinstance(exc.value, ValueError)


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
        psi_eigs = np.sort(SelfAdjointOperator(topology.riesz_map(a)).decomposition.eigenvalues)
        expected = np.sort(topology.bounded_transform_scalar(a.decomposition.eigenvalues))
        np.testing.assert_allclose(psi_eigs, expected, atol=1e-12)

    def test_saturates_past_overflow(self):
        # 1e200 * 1e200 overflows; the transform of 1e200 is 1 to the last bit
        out = topology.riesz_map(sa(np.diag([1e200, 1.0])))
        np.testing.assert_allclose(out, np.diag([1.0, 0.7071067811865476]), atol=1e-12)

    def test_scalar_transform_is_sign_past_saturation(self):
        huge = np.array([-np.finfo(float).max, -1e200, 1e151, 1e300])
        assert topology.bounded_transform_scalar(huge).tolist() == [-1.0, -1.0, 1.0, 1.0]
        below = np.array([0.0, -3.0, 1e-300, 1e100, 1e150, -1e150])
        assert np.array_equal(
            topology.bounded_transform_scalar(below), below / np.sqrt(1.0 + below * below)
        )

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_operator(rng, 9, scale=3.0)
        back = topology.riesz_inverse(topology.riesz_map(a))
        assert linalg.operator_norm(back.matrix - a.matrix) <= 1e-8 * (
            1.0 + linalg.operator_norm(a.matrix)
        )

    @pytest.mark.parametrize("t", [[1.0, 0.5], [1.5, 0.2], [-1.0, 0.0]])
    def test_inverse_outside_the_unit_ball_is_a_typed_error(self, t):
        # the functional calculus names the eigenvalue where the inverse is undefined
        with pytest.raises(FredlabError, match="eigenvalue"):
            topology.riesz_inverse(np.diag(t))


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


class TestPairOrder:
    """The pair is ordered by its bytes, read from the first entry whose bits
    differ, so a metric is bitwise symmetric in its arguments."""

    @staticmethod
    def _pairs(rng, count):
        for k in range(count):
            n = int(rng.integers(1, 7))
            x = rng.standard_normal((n, n))
            x = x + x.T
            y = x.copy()
            i, j = rng.integers(0, n, 2)
            edit = k % 4
            if edit == 0:  # the signs of a zero
                x[i, j] = x[j, i] = 0.0
                y[i, j] = y[j, i] = -0.0
            elif edit == 1:  # an edit below every other entry's ulp
                y[i, j] += 1e-300
                y[j, i] = y[i, j]
            elif edit == 2:
                y[i, j] = y[j, i] = -y[i, j]
            else:
                y = rng.standard_normal((n, n))
                y = y + y.T
            yield (x, y) if rng.random() < 0.5 else (y, x)

    def test_order_is_the_byte_order(self):
        for x, y in self._pairs(np.random.default_rng(41), 300):
            assert topology._sorts_after(x, y) == (x.tobytes() > y.tobytes())
            assert topology._sorts_after(y, x) == (y.tobytes() > x.tobytes())

    @pytest.mark.parametrize("metric", [topology.gap_metric, topology.riesz_metric])
    def test_metrics_are_bitwise_symmetric(self, metric):
        for x, y in self._pairs(np.random.default_rng(42), 60):
            a, b = sa(x), sa(y)
            assert metric(a, b) == metric(b, a)


class TestGapEigenbasisRoute:
    """The gap from the pair's eigenbases against the two-branch resolvents."""

    def test_no_svd_and_no_resolvent(self, monkeypatch):
        rng = np.random.default_rng(11)
        a0, a1 = (random_operator(rng, 64, scale=3.0) for _ in range(2))
        calls = []
        svd, apply = np.linalg.svd, linalg.apply_scalar_function
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
        monkeypatch.setattr(
            linalg, "apply_scalar_function", lambda *a: calls.append("apply") or apply(*a)
        )
        assert topology.gap_metric(a0, a1) > 0.0
        assert calls == []

    @pytest.mark.parametrize("b", [1e150, 1e200, 1e300])
    def test_huge_eigenvalues(self, b):
        # only the entry b flips: 2 * |1/(b+i) - 1/(-b+i)| = 4b/(1+b^2)
        g = topology.gap_metric(sa(np.diag([b, 1.0])), sa(np.diag([-b, 1.0])))
        assert g == pytest.approx(4.0 / b, rel=1e-12)

    def test_opposite_eigenvalues_at_the_float_limit(self):
        # l1 - l0 = -2e308 overflows; the halved difference does not, and no
        # RuntimeWarning escapes (the suite raises them)
        g = topology.gap_metric(sa(np.diag([1e308])), sa(np.diag([-1e308])))
        assert g == pytest.approx(4e-308, rel=1e-12)

    def test_gap_below_smallest_float(self):
        # one ulp at 8e307 moves the resolvent by about 2e-324, which rounds to 0
        x = 8e307
        assert topology.gap_metric(sa([[x]]), sa([[np.nextafter(x, np.inf)]])) == 0.0

    def test_floer_neighbours(self):
        from fredlab import floer

        pencil = floer.FloerPencil.constant(1.5 - 0.7j, 48)
        a0, a1 = (
            floer.mass_normalized(pencil.at(s))
            for s in (0.5, 0.55)
        )
        assert a0.dim == 96

        def branch(f):
            return linalg.operator_norm(a0.apply(f) - a1.apply(f))

        gab = topology.gap_metric(a0, a1)
        assert abs(gab - branch(P_PLUS) - branch(P_MINUS)) <= 1e-12
        assert gab == topology.gap_metric(a1, a0)
        assert topology.gap_metric(a0, SelfAdjointOperator(a0.matrix.copy())) == 0.0


def test_metrics_call_no_svd(monkeypatch):
    from fredlab import floer

    rng = np.random.default_rng(12)
    a0, a1 = (random_operator(rng, 12, scale=3.0) for _ in range(2))
    p, q = floer.boundary_projector(0.5), floer.boundary_projector(0.6)
    d0 = floer.boundary_coefficient_operator(floer.FloerPencil.constant(1.5 - 0.7j, 16))

    def run():
        profile = topology.generator_distance_profile(a0, a1)
        return (
            topology.gap_metric(a0, a1),
            topology.riesz_metric(a0, a1),
            profile.gamma,
            profile.rho,
            dict(profile.generator_distances),
            floer.nu_metric(p, q, d0),
        )

    def refuse(*args, **kwargs):
        raise AssertionError("norms must not call svd")

    before = run()
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert run() == before


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

    def test_huge_eigenvalues(self):
        assert topology.riesz_metric(sa([[1e200]]), sa([[-1e200]])) == 2.0

    def test_reads_no_bounded_transform(self, monkeypatch):
        from fredlab import floer

        rng = np.random.default_rng(16)
        a, b = random_operator(rng, 6), random_operator(rng, 6)
        pencil, samples = floer.FloerPencil.zero(16), np.linspace(0.3, 1.1, 4)
        before = topology.riesz_metric(a, b), floer.rho_continuity_profile(pencil, samples)

        def refuse(*args, **kwargs):
            raise AssertionError("rho must be read from the eigenbases")

        monkeypatch.setattr(topology, "riesz_map", refuse)
        after = topology.riesz_metric(a, b), floer.rho_continuity_profile(pencil, samples)
        assert after == before

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
        s = span([1.0, 2.0, 0.0])
        assert topology.subspace_gap(s, s) == 0.0

    def test_orthogonal_lines(self):
        d = topology.subspace_gap(span([1.0, 0.0]), span([0.0, 1.0]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_rotated_line(self):
        theta = np.pi / 6.0
        d = topology.subspace_gap(
            span([1.0, 0.0]), span([np.cos(theta), np.sin(theta)])
        )
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_unequal_ambients_are_the_subspace_error(self):
        with pytest.raises(AmbientMismatch, match="ambient dims 2 != 3"):
            topology.subspace_gap(span([1.0, 0.0]), span([1.0, 0.0, 0.0]))


class TestGeneratorProfile:
    def test_identical_operators(self):
        rng = np.random.default_rng(12)
        a = random_operator(rng, 7)
        report = topology.generator_distance_profile(a, a)
        assert report.gamma == 0.0
        assert report.rho == 0.0
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

    def test_builds_no_graph_subspace(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the profile must not build graph subspaces")

        monkeypatch.setattr(lagrangian, "graph_subspace", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        rng = np.random.default_rng(15)
        a, b = random_operator(rng, 6), random_operator(rng, 6)
        report = topology.generator_distance_profile(a, b)
        assert set(vars(report)) == {"gamma", "rho", "generator_distances"}

    def test_custom_function(self):
        probe = ScalarFunction("sine", np.sin)
        a, b = sa([[0.0]]), sa([[np.pi / 2.0]])
        report = topology.generator_distance_profile(a, b, fns=(probe,))
        assert report.generator_distances["sine"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_probe_is_exactly_zero_on_a_non_diagonal_pair(self):
        a0, a1 = (
            gallery.random_selfadjoint(200, seed=seed, spectrum_range=(-5.0, 5.0))
            for seed in (1, 2)
        )
        report = topology.generator_distance_profile(a0, a1, fns=(topology.P0,))
        assert report.generator_distances["P0"] == 0.0

    def test_duplicate_probe_names_are_refused(self):
        a, b = sa([[0.0]]), sa([[np.pi / 2.0]])
        fns = (ScalarFunction("x", np.sin), ScalarFunction("x", np.cos))
        with pytest.raises(InvalidSpec, match="'x'"):
            topology.generator_distance_profile(a, b, fns=fns)

    @staticmethod
    def _count_norms(monkeypatch):
        kinds = []
        norm = linalg.operator_norm
        monkeypatch.setattr(
            linalg,
            "operator_norm",
            lambda m: kinds.append("complex" if np.iscomplexobj(m) else "real") or norm(m),
        )
        return kinds

    def test_random_pair_solves_no_eigenpairs(self, monkeypatch):
        a0, a1 = (gallery.random_selfadjoint(30, seed=seed) for seed in (3, 4))

        def refuse(*args, **kwargs):
            raise AssertionError("gallery operators carry their eigenpairs")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        report = topology.generator_distance_profile(a0, a1)
        assert report.gamma > 0.0 and report.rho > 0.0

    @pytest.mark.parametrize("fns", [(P_PLUS, P_MINUS), (P_MINUS, P_PLUS)], ids=["+-", "-+"])
    def test_conjugate_probes_take_one_complex_norm(self, fns, monkeypatch):
        rng = np.random.default_rng(16)
        a, b = random_operator(rng, 12, 2.0), random_operator(rng, 12, 2.0)
        minus = linalg.operator_norm(a.apply(P_MINUS) - b.apply(P_MINUS))
        kinds = self._count_norms(monkeypatch)
        report = topology.generator_distance_profile(a, b, fns=fns)
        # the two conjugate probes, then the gap and Riesz metrics' real norms
        assert kinds == ["complex", "real", "real"]
        d = report.generator_distances
        assert d["Pplus"] == d["Pminus"]
        assert d["Pminus"] == pytest.approx(minus, rel=1e-12)

    def test_probes_of_equal_values_take_one_norm(self, monkeypatch):
        rng = np.random.default_rng(17)
        a, b = random_operator(rng, 8), random_operator(rng, 8)
        fns = (ScalarFunction("sin", np.sin), ScalarFunction("also_sin", lambda x: np.sin(x)))
        kinds = self._count_norms(monkeypatch)
        report = topology.generator_distance_profile(a, b, fns=fns)
        assert kinds == ["real"] * 3
        assert report.generator_distances["sin"] == report.generator_distances["also_sin"] > 0.0

    def test_different_probes_are_each_normed(self, monkeypatch):
        rng = np.random.default_rng(18)
        a, b = random_operator(rng, 8), random_operator(rng, 8)
        kinds = self._count_norms(monkeypatch)
        topology.generator_distance_profile(a, b)
        # P0, Pplus, r and alpha_ramp; Pminus reads Pplus's
        assert kinds == ["real", "complex", "real", "real", "real", "real"]

    @pytest.mark.parametrize("first", [P_PLUS, topology.P0], ids=["after-Pplus", "after-P0"])
    def test_undefined_probe_still_raises(self, first):
        a, b = sa(np.diag([0.0, 1.0])), sa(np.diag([2.0, 1.0]))
        with pytest.raises(FunctionUndefinedAtEigenvalue):
            topology.generator_distance_profile(
                a, b, fns=(first, ScalarFunction("inverse", lambda x: 1.0 / x))
            )


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="3 != perturbation dim 2"):
            topology.relative_bound_surrogate(sa(np.eye(3)), np.eye(2))

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


class TestMetricReport:
    def test_valid_entries(self):
        report = topology.MetricReport(gamma=0.0, rho=0.5, generator_distances={"p0": 1.0})
        assert (report.gamma, report.rho) == (0.0, 0.5)

    @pytest.mark.parametrize(
        "entries",
        [{"gamma": np.nan, "rho": 0.5}, {"gamma": 0.1, "rho": 0.5, "p0": np.inf}],
        ids=["nan", "inf"],
    )
    def test_nonfinite_entry(self, entries):
        gamma, rho = entries.pop("gamma"), entries.pop("rho")
        with pytest.raises(InvalidMetric, match="finite and nonnegative"):
            topology.MetricReport(gamma=gamma, rho=rho, generator_distances=entries)

    def test_negative_entry(self):
        # typed, and still a ValueError for callers that catch one
        with pytest.raises(InvalidMetric, match=r"\[-0.25\]") as exc:
            topology.MetricReport(gamma=0.1, rho=-0.25)
        assert isinstance(exc.value, ValueError)
