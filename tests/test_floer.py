"""Tests for the interval boundary-value family: assembly, spectra, flow, gauges."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from fredlab import floer, linalg, topology
from fredlab.errors import (
    GaugeSingular,
    InvalidConfig,
    MassNotPositiveDefinite,
    NoRootBracketed,
    NotSymmetric,
    SamplingTooCoarse,
)
from fredlab.floer import (
    BoundaryProjector,
    Coupling,
    CutoffProfile,
    DiscretizedOperator,
    FloerConfig,
    assemble_floer_operator,
    boundary_coefficient_operator,
    boundary_lines,
    boundary_projector,
    cutoff_gauge_U,
    domain_subspace,
    floer_spectrum,
    gauge_hat_U,
    h1_operator_norm,
    mass_normalized,
    nu_metric,
    rho_continuity_profile,
    shooting_eigenvalues,
    spectral_flow,
)


def ladder(s, count):
    """The ``count`` values of {s + k*pi} nearest zero, ascending."""
    ks = range(-(count + 2), count + 3)
    return np.sort(np.array(sorted((s + k * np.pi for k in ks), key=abs)[:count]))


class TestConfig:
    def test_too_few_elements(self):
        with pytest.raises(InvalidConfig):
            FloerConfig.zero(0.0, 4)

    def test_angle_out_of_range(self):
        with pytest.raises(InvalidConfig):
            FloerConfig.zero(7.0, 16)

    def test_sample_count_mismatch(self):
        with pytest.raises(InvalidConfig):
            FloerConfig(np.zeros(10, dtype=complex), 0.0, 16)

    def test_linear_coupling_needs_imaginary(self):
        with pytest.raises(InvalidConfig):
            FloerConfig.constant(1.0, 0.0, 16, coupling=Coupling.LINEAR_IMAGINARY)
        FloerConfig.constant(0.7j, 0.0, 16, coupling=Coupling.LINEAR_IMAGINARY)

    def test_coefficient_encoding(self):
        cfg = FloerConfig.constant(1.0, 0.0, 8)
        mats = floer.coefficient_matrices(cfg)
        for m in mats:
            np.testing.assert_allclose(m, [[1.0, 0.0], [0.0, -1.0]])
        cfg = FloerConfig.constant(2.0 + 3.0j, 0.0, 8)
        np.testing.assert_allclose(
            floer.coefficient_matrices(cfg)[0], [[2.0, 3.0], [3.0, -2.0]]
        )

    def test_linear_coupling_encoding(self):
        cfg = FloerConfig.constant(0.5j, 0.0, 8, coupling=Coupling.LINEAR_IMAGINARY)
        np.testing.assert_allclose(
            floer.coefficient_matrices(cfg)[0], [[0.0, 0.5], [-0.5, 0.0]]
        )


class TestAssembly:
    def test_stiffness_symmetric(self):
        for cfg in (
            FloerConfig.zero(0.0, 8),
            FloerConfig.constant(1.0 - 2.0j, 2.0, 16),
            FloerConfig.constant(0.3j, 1.0, 12, coupling=Coupling.LINEAR_IMAGINARY),
        ):
            op = assemble_floer_operator(cfg)
            assert linalg.symmetry_defect(op.stiffness.toarray()) <= 1e-12
            assert linalg.symmetry_defect(op.square_stiffness.toarray()) <= 1e-12
            # the pencil stays banded: three nodes' worth of couplings per row
            for x in (op.stiffness, op.mass, op.square_stiffness):
                assert isinstance(x, scipy.sparse.csc_array)
                assert max(scipy.sparse.linalg.spbandwidth(x)) <= 3
                assert x.nnz <= 8 * op.dim

    def test_dof_count(self):
        for m in (8, 33):
            op = assemble_floer_operator(FloerConfig.zero(1.0, m))
            assert op.dim == 2 * (m + 1) - 2

    def test_mass_positive_definite(self):
        op = assemble_floer_operator(FloerConfig.zero(0.5, 16))
        w = np.linalg.eigvalsh(op.mass.toarray())
        assert np.min(w) > 0.0

    def test_mass_normalized_operator(self):
        op = assemble_floer_operator(FloerConfig.zero(0.5, 16))
        a = mass_normalized(op)
        assert topology.classify_component(a) is topology.ComponentLabel.F_ZERO
        # same pencil spectrum, computed through the unsymmetric product
        mass = op.mass.toarray()
        w_pencil = np.linalg.eigvals(np.linalg.solve(mass, op.stiffness.toarray()))
        np.testing.assert_allclose(np.max(np.abs(w_pencil.imag)), 0.0, atol=1e-8)
        np.testing.assert_allclose(
            np.sort(a.decomposition.eigenvalues), np.sort(w_pencil.real), atol=1e-7
        )
        # the dense branch solves the squared pencil by a generalized eigh;
        # the unsymmetric product must give the same values
        k2 = op.square_stiffness.toarray()
        squares = np.linalg.eigvals(np.linalg.solve(mass, k2))
        mus = scipy.linalg.eigh(k2, mass, eigvals_only=True)
        np.testing.assert_allclose(mus, np.sort(squares.real), atol=1e-8)


class TestSpectrum:
    def test_kernel_at_zero_angle(self):
        op = assemble_floer_operator(FloerConfig.zero(0.0, 32))
        w = floer_spectrum(op, 3)
        assert np.min(np.abs(w)) <= 1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0, np.pi, 5.0])
    def test_matches_rotation_ladder(self, s):
        op = assemble_floer_operator(FloerConfig.zero(s, 64))
        w = floer_spectrum(op, 5)
        np.testing.assert_allclose(w, ladder(s, 5), atol=1e-4)

    def test_refinement_improves(self):
        s = 1.0
        errs = []
        for m in (32, 64):
            w = floer_spectrum(assemble_floer_operator(FloerConfig.zero(s, m)), 5)
            errs.append(np.max(np.abs(w - ladder(s, 5))))
        assert errs[1] <= errs[0] / 2.0

    def test_s_periodicity(self):
        s = 0.8
        w1 = floer_spectrum(assemble_floer_operator(FloerConfig.zero(s, 64)), 4)
        w2 = floer_spectrum(assemble_floer_operator(FloerConfig.zero(s + np.pi, 64)), 4)
        np.testing.assert_allclose(w1, w2, atol=1e-6)

    def test_agrees_with_shooting_for_nonconstant_a(self):
        samples = (0.8 + 0.4j) * np.sin(np.pi * np.linspace(0.0, 1.0, 65))
        cfg = FloerConfig(samples, 1.3, 64)
        w = floer_spectrum(assemble_floer_operator(cfg), 3)
        roots = shooting_eigenvalues(cfg, (float(w[0] - 0.4), float(w[-1] + 0.4)))
        np.testing.assert_allclose(w, roots, atol=5e-3)

    def test_linear_coupling_shifts_the_ladder(self):
        # for a = iq constant the system is a pure rotation at speed q + lam,
        # so the eigenvalues are {s - q + k*pi}
        s, q = 1.0, 0.7
        cfg = FloerConfig.constant(1j * q, s, 64, coupling=Coupling.LINEAR_IMAGINARY)
        w = floer_spectrum(assemble_floer_operator(cfg), 5)
        np.testing.assert_allclose(w, ladder(s - q, 5), atol=1e-4)
        roots = shooting_eigenvalues(cfg, (float(w[0] - 0.4), float(w[-1] + 0.4)))
        np.testing.assert_allclose(roots, ladder(s - q, 5), atol=1e-8)

    def test_large_grid_path_deterministic_and_consistent(self):
        # above the dense cutoff the smallest squared eigenvalues come from
        # the iterative solver; it must reproduce itself and the dense route
        op = assemble_floer_operator(FloerConfig.zero(0.8, 128))
        assert op.dim > floer._DENSE_CUTOFF
        w1 = floer_spectrum(op, 5)
        w2 = floer_spectrum(op, 5)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_allclose(w1, floer._spectrum_dense(op, 5), atol=1e-9)

    def test_full_window_above_the_cutoff(self):
        # ARPACK needs slack beyond the window; without it the dense route runs
        op = assemble_floer_operator(FloerConfig.zero(0.8, 101))
        assert op.dim > floer._DENSE_CUTOFF
        np.testing.assert_array_equal(
            floer_spectrum(op, op.dim), floer._spectrum_dense(op, op.dim)
        )


class TestDiscretizedOperator:
    def _pencil(self):
        op = assemble_floer_operator(FloerConfig.constant(0.3 + 0.2j, 1.0, 8))
        return op.stiffness.toarray(), op.mass.toarray(), op.square_stiffness.toarray()

    def test_dense_input_is_stored_sparse(self):
        k, m, k2 = self._pencil()
        op = DiscretizedOperator(k, m, k2, "dense")
        for x, dense in ((op.stiffness, k), (op.mass, m), (op.square_stiffness, k2)):
            assert isinstance(x, scipy.sparse.csc_array)
            np.testing.assert_array_equal(x.toarray(), dense)

    @pytest.mark.parametrize("field", [0, 2])
    def test_nonsymmetric_stiffness(self, field):
        pencil = self._pencil()
        pencil[field][0, 1] += 1e-6
        with pytest.raises(NotSymmetric):
            DiscretizedOperator(*pencil, "skew")

    def test_indefinite_mass(self):
        k, m, k2 = self._pencil()
        # positive diagonal, indefinite 2x2 minor: only the band can tell
        m[2, 3] = m[3, 2] = 1.0
        with pytest.raises(MassNotPositiveDefinite):
            DiscretizedOperator(k, m, k2, "indefinite")

    def test_mismatched_shapes(self):
        k, m, k2 = self._pencil()
        with pytest.raises(InvalidConfig):
            DiscretizedOperator(k, m[:-1, :-1], k2, "short mass")
        with pytest.raises(InvalidConfig):
            DiscretizedOperator(k[:, :-1], m[:, :-1], k2[:, :-1], "rectangular")


class TestShooting:
    def test_rotation_roots(self):
        cfg = FloerConfig.zero(np.pi / 2.0, 16)
        roots = shooting_eigenvalues(cfg, (-2.0, 2.0))
        np.testing.assert_allclose(
            roots, [-1.5707963267948966, 1.5707963267948966], atol=1e-9
        )

    def test_rotation_roots_wide_window(self):
        cfg = FloerConfig.zero(1.0, 16)
        roots = shooting_eigenvalues(cfg, (-8.0, 8.0))
        np.testing.assert_allclose(roots, sorted([1.0 + k * np.pi for k in (-2, -1, 0, 1, 2)]), atol=1e-9)

    def test_grid_free(self):
        r1 = shooting_eigenvalues(FloerConfig.zero(2.0, 8), (-2.0, 4.0))
        r2 = shooting_eigenvalues(FloerConfig.zero(2.0, 64), (-2.0, 4.0))
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_empty_result_is_legal(self):
        cfg = FloerConfig.zero(1.5, 16)
        assert shooting_eigenvalues(cfg, (1.6, 2.0)).size == 0

    def test_malformed_interval(self):
        with pytest.raises(NoRootBracketed):
            shooting_eigenvalues(FloerConfig.zero(1.5, 16), (2.0, 2.0))


class TestSpectralFlow:
    def test_constant_family(self):
        op = assemble_floer_operator(FloerConfig.zero(1.0, 16))
        assert spectral_flow([op, op, op], 4) == 0

    def test_full_loop(self):
        fam = [
            assemble_floer_operator(FloerConfig.zero(s, 48))
            for s in np.linspace(0.0, 2.0 * np.pi, 97)
        ]
        assert spectral_flow(fam, 5) == 2
        assert spectral_flow(fam[::-1], 5) == -2

    def test_partial_path_additivity(self):
        ss = np.linspace(0.0, 2.0 * np.pi, 97)
        fam = [assemble_floer_operator(FloerConfig.zero(s, 48)) for s in ss]
        cut = 40
        total = spectral_flow(fam, 5)
        assert spectral_flow(fam[: cut + 1], 5) + spectral_flow(fam[cut:], 5) == total

    def test_too_coarse(self):
        # a non-constant coefficient distorts the eigenvalue ladder; three
        # samples over a wide angle sweep then move branches past half a gap
        t = np.linspace(0.0, 1.0, 33)
        samples = 2.5 * np.sin(np.pi * t) + 1.0j * np.cos(np.pi * t)
        fam = [
            assemble_floer_operator(FloerConfig(samples, s, 32))
            for s in np.linspace(0.2, 2.2, 3)
        ]
        with pytest.raises(SamplingTooCoarse):
            spectral_flow(fam, 4)


class TestBoundaryProjectors:
    def test_projector_shape(self):
        p = boundary_projector(0.9)
        assert linalg.operator_norm(p.matrix @ p.matrix - p.matrix) <= 1e-12
        assert np.trace(p.matrix) == pytest.approx(2.0, abs=1e-12)

    def test_kernel_is_admissible_lines(self):
        s = 1.1
        p = boundary_projector(s)
        v0, v1 = boundary_lines(s)
        np.testing.assert_allclose(p.matrix @ np.concatenate([v0, [0, 0]]), 0.0, atol=1e-12)
        np.testing.assert_allclose(p.matrix @ np.concatenate([[0, 0], v1]), 0.0, atol=1e-12)

    def test_nu_self_distance(self):
        p = boundary_projector(0.4)
        d0 = np.zeros((4, 4))
        assert nu_metric(p, p, d0) == 0.0

    def test_nu_reduces_to_projector_distance(self):
        p, q = boundary_projector(0.4), boundary_projector(0.9)
        d = nu_metric(p, q, np.zeros((4, 4)))
        assert d == pytest.approx(
            linalg.operator_norm(p.matrix - q.matrix), abs=1e-14
        )
        # rotation projectors differ by the sine of the angle difference
        assert d == pytest.approx(abs(np.sin(0.5)), abs=1e-12)

    def test_nu_lipschitz(self):
        cfg = FloerConfig.constant(0.8 + 0.3j, 0.0, 16)
        d0 = boundary_coefficient_operator(cfg)
        c = 1.0 + 2.0 * linalg.operator_norm(d0)
        for s, ds in ((0.2, 0.01), (1.0, 0.05), (2.5, 0.15)):
            v = nu_metric(boundary_projector(s), boundary_projector(s + ds), d0)
            assert v <= c * ds + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            BoundaryProjector(np.eye(4))  # rank 4, not 2


class TestGauge:
    def test_identity_when_equal(self):
        p = boundary_projector(0.5)
        np.testing.assert_allclose(gauge_hat_U(p, p), np.eye(4), atol=1e-14)

    def test_two_algebraic_forms(self):
        p, q = boundary_projector(0.5), boundary_projector(0.68)
        hat = gauge_hat_U(p, q)
        alt = (q.matrix - p.matrix) @ (2.0 * p.matrix - np.eye(4)) + np.eye(4)
        assert linalg.operator_norm(hat - alt) <= 1e-14

    def test_norm_bound(self):
        p, q = boundary_projector(1.0), boundary_projector(1.2)
        hat = gauge_hat_U(p, q)
        bound = linalg.operator_norm(q.matrix - p.matrix) * linalg.operator_norm(
            2.0 * p.matrix - np.eye(4)
        )
        assert linalg.operator_norm(hat - np.eye(4)) <= bound + 1e-12

    def test_maps_kernel_onto_kernel(self):
        s, t = 0.7, 0.85
        p, q = boundary_projector(s), boundary_projector(t)
        hat = gauge_hat_U(p, q)
        v0, v1 = boundary_lines(s)
        w0, w1 = boundary_lines(t)
        ker_p = np.column_stack(
            [np.concatenate([v0, [0, 0]]), np.concatenate([[0, 0], v1])]
        )
        image = linalg.Subspace.from_spanning(hat @ ker_p)
        target = linalg.Subspace.from_spanning(
            np.column_stack([np.concatenate([w0, [0, 0]]), np.concatenate([[0, 0], w1])])
        )
        assert topology.subspace_gap(image, target) <= 1e-10

    def test_singular_when_too_far(self):
        p, q = boundary_projector(0.0), boundary_projector(np.pi / 2.0)
        with pytest.raises(GaugeSingular):
            gauge_hat_U(p, q)


class TestCutoffGauge:
    def test_profile_validation(self):
        with pytest.raises(InvalidConfig):
            CutoffProfile(np.linspace(0.0, 1.0, 9))  # no plateaus
        CutoffProfile.smoothstep(16)

    def test_identity_gauge(self):
        m = 16
        u = cutoff_gauge_U(np.eye(4), CutoffProfile.smoothstep(m), m)
        np.testing.assert_allclose(u, np.eye(2 * (m + 1)), atol=1e-14)

    def test_endpoint_block_transported_exactly(self):
        m = 16
        p, q = boundary_projector(0.3), boundary_projector(0.45)
        hat = gauge_hat_U(p, q)
        u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m), m)
        np.testing.assert_allclose(u[-2:, -2:], hat[2:4, 2:4], atol=1e-14)
        np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-14)

    def test_domain_transport(self):
        m = 64
        s, t = 0.6, 0.75
        hat = gauge_hat_U(boundary_projector(s), boundary_projector(t))
        u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m), m)
        moved = linalg.Subspace.from_spanning(u @ domain_subspace(FloerConfig.zero(s, m)).basis)
        assert (
            topology.subspace_gap(moved, domain_subspace(FloerConfig.zero(t, m)))
            <= 1e-10
        )

    def test_h1_norm_grid_stable(self):
        p, q = boundary_projector(0.7), boundary_projector(0.9)
        hat = gauge_hat_U(p, q)
        hat_gap = linalg.operator_norm(hat - np.eye(4))
        norms = []
        for m in (50, 100, 200):
            u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m), m)
            norms.append(h1_operator_norm(u - np.eye(2 * (m + 1)), m))
        assert abs(norms[0] - norms[2]) <= 0.1 * norms[2]
        assert abs(norms[1] - norms[2]) <= 0.1 * norms[2]
        # H1-norm controlled by the endpoint gauge with a grid-free constant
        assert all(v <= 4.0 * hat_gap for v in norms)


class TestRhoContinuity:
    def test_zero_step(self):
        cfg = FloerConfig.zero(0.4, 16)
        reports = rho_continuity_profile(cfg, [0.4, 0.4])
        assert reports[0].rho == 0.0
        assert reports[0].gamma == 0.0

    def test_modulus_shrinks_with_step(self):
        cfg = FloerConfig.zero(0.3, 16)
        coarse = rho_continuity_profile(cfg, np.linspace(0.3, 1.1, 9))
        fine = rho_continuity_profile(cfg, np.linspace(0.3, 1.1, 17))
        assert max(r.rho for r in coarse) >= 1.5 * max(r.rho for r in fine)

    def test_joint_with_nu(self):
        cfg = FloerConfig.zero(0.3, 16)
        samples = np.linspace(0.3, 0.7, 5)
        reports = rho_continuity_profile(cfg, samples)
        d0 = boundary_coefficient_operator(cfg)
        nus = [
            nu_metric(boundary_projector(a), boundary_projector(b), d0)
            for a, b in zip(samples, samples[1:])
        ]
        assert max(nus) < 0.11
        assert max(r.rho for r in reports) < 0.2

    def test_lipschitz_constant_grid_stable(self):
        samples = np.linspace(0.3, 0.7, 5)
        step = samples[1] - samples[0]
        constants = []
        for m in (16, 32, 64):
            reports = rho_continuity_profile(FloerConfig.zero(0.3, m), samples)
            constants.append(max(r.rho for r in reports) / step)
        for a, b in zip(constants, constants[1:]):
            assert 0.75 * a <= b <= 1.25 * a
