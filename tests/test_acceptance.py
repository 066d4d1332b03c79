"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import numpy as np

from fredlab import floer, flow, gallery, lagrangian, linalg, topology
from fredlab.gallery import FugledeSpec, fuglede_expected, fuglede_operator
from fredlab.topology import ALPHA_RAMP

import gauge_suite

FLIP_INDICES = (1, 2, 4, 8, 16)
ORACLE_ANGLES = (0.5, 1.0, float(np.pi), 5.0)


def _flipped_pair(n):
    return (
        fuglede_operator(FugledeSpec(n, 4 * n)),
        fuglede_operator(FugledeSpec(0, 4 * n)),
    )


def test_criterion_1_gap_convergence():
    """Resolvent-branch norms of the flipped family match 2n/(1+n^2) to 1e-8."""
    for n in FLIP_INDICES:
        a_n, a_0 = _flipped_pair(n)
        expected = fuglede_expected(n).resolvent_branch
        p_n, m_n = topology.resolvents_at_i(a_n)
        p_0, m_0 = topology.resolvents_at_i(a_0)
        for branch in (linalg.operator_norm(p_n - p_0), linalg.operator_norm(m_n - m_0)):
            assert abs(branch - expected) <= 1e-8, f"n={n}: {branch} vs {expected}"
    assert abs(fuglede_expected(1).resolvent_branch - 1.0) <= 1e-12
    assert abs(fuglede_expected(4).resolvent_branch - 0.4705882352941177) <= 1e-12
    print("ACCEPTANCE 1 PASS: gap branches equal 2n/(1+n^2) within 1e-8")


def test_criterion_2_riesz_divergence():
    """Ramp distance stays pinned at 1 while rho climbs to 2 along the family."""
    rhos = []
    for n in FLIP_INDICES:
        a_n, a_0 = _flipped_pair(n)
        alpha = linalg.operator_norm(a_n.apply(ALPHA_RAMP) - a_0.apply(ALPHA_RAMP))
        assert abs(alpha - 1.0) <= 1e-8, f"n={n}: ramp distance {alpha}"
        rho = topology.riesz_metric(a_n, a_0)
        assert abs(rho - fuglede_expected(n).rho) <= 1e-8, f"n={n}: rho {rho}"
        rhos.append(rho)
    assert all(a < b for a, b in zip(rhos, rhos[1:])) and rhos[-1] < 2.0
    print("ACCEPTANCE 2 PASS: ramp distance = 1 and rho = 2n/sqrt(1+n^2) within 1e-8")


def test_criterion_3_identity_suite():
    """Bounded-transform resolvent identities hold to 1e-10 over 100 operators."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        a = gallery.random_selfadjoint(
            n, seed=int(rng.integers(1 << 30)), spectrum_range=(-8.0, 8.0)
        )
        psi = topology.riesz_map(a)
        f = a.apply(lambda lam: 1.0 / np.sqrt(1.0 + lam * lam))
        f2 = a.apply(lambda lam: 1.0 / (1.0 + lam * lam))
        plus, minus = topology.resolvents_at_i(a)
        worst = max(
            worst,
            linalg.operator_norm(plus - (f @ psi - 1j * f2)),
            linalg.operator_norm(minus - (-f @ psi - 1j * f2)),
            linalg.operator_norm(f2 - (np.eye(n) - psi @ psi)),
        )
    assert worst <= 1e-10, f"worst residual {worst}"
    print(f"ACCEPTANCE 3 PASS: resolvent identity residuals <= 1e-10 (worst {worst:.2e})")


def test_criterion_4_graph_suite():
    """Graph constructions agree, graphs are Lagrangian, kernels and suspensions check out."""
    rng = np.random.default_rng(77)
    worst_proj = worst_lagr = worst_susp = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        zeros = int(rng.integers(0, min(4, n)))
        spectrum = np.concatenate(
            [
                np.zeros(zeros),
                rng.uniform(0.5, 5.0, n - zeros) * rng.choice([-1.0, 1.0], n - zeros),
            ]
        )
        a = gallery.random_with_spectrum(spectrum, seed=int(rng.integers(1 << 30)))
        s = lagrangian.graph_subspace(a)
        p = linalg.projection_from_basis(s)
        worst_proj = max(
            worst_proj,
            linalg.operator_norm(p - lagrangian.graph_projection_formula(a)),
        )
        j = lagrangian.SymplecticDoubling(n).complex_structure()
        worst_lagr = max(
            worst_lagr, linalg.operator_norm(j @ p @ j.T - (np.eye(2 * n) - p))
        )
        meet, _ = linalg.subspace_meet_dims(
            lagrangian.SymplecticDoubling(n).horizontal(), s
        )
        assert meet == zeros, f"kernel count {meet} != {zeros}"
        w = lagrangian.suspension(rng.standard_normal((n, n))).decomposition.eigenvalues
        worst_susp = max(worst_susp, float(np.max(np.abs(w + w[::-1]))))
    assert worst_proj <= 1e-10, f"projection residual {worst_proj}"
    assert worst_lagr <= 1e-10, f"Lagrangian residual {worst_lagr}"
    assert worst_susp <= 1e-10, f"suspension symmetry {worst_susp}"
    print(
        "ACCEPTANCE 4 PASS: graph oracles agree "
        f"(proj {worst_proj:.2e}, lagr {worst_lagr:.2e}, susp {worst_susp:.2e})"
    )


def test_criterion_5_kato_joint_convergence():
    """Graph distance and gap distance cross the 1e-3 threshold together."""
    threshold = 1e-3
    for n in FLIP_INDICES:
        delta, gamma = lagrangian.kato_consistency(*_flipped_pair(n))
        assert (delta < threshold) == (gamma < threshold), f"n={n}: {delta} vs {gamma}"

    base = gallery.random_selfadjoint(16, seed=7, spectrum_range=(-4.0, 4.0))
    schedule = [0.3 * 10.0 ** (-k) for k in range(1, 7)]
    family = gallery.perturbation_family(base, seed=8, schedule=schedule)
    joint_below = 0
    for k in range(len(schedule)):
        delta, gamma = lagrangian.kato_consistency(family.perturbed(k), base)
        assert (delta < threshold) == (gamma < threshold), f"step {k}: {delta} vs {gamma}"
        joint_below += delta < threshold and gamma < threshold
    assert joint_below >= 3, "perturbation family never crossed the threshold"
    print("ACCEPTANCE 5 PASS: delta(graphs) and gamma fall below 1e-3 at the same indices")


def test_criterion_6_perturbation_trend():
    """rho decreases strictly along c_n = 2^-n and ends below 1e-3 at n = 10."""
    base = gallery.random_selfadjoint(20, seed=7, spectrum_range=(-5.0, 5.0))
    schedule = [0.5**n for n in range(1, 11)]
    family = gallery.perturbation_family(base, seed=8, schedule=schedule)
    rhos = [topology.riesz_metric(family.perturbed(k), base) for k in range(10)]
    assert all(a > b for a, b in zip(rhos, rhos[1:])), "rho not strictly decreasing"
    assert rhos[-1] <= 1e-3, f"rho at n=10 is {rhos[-1]}"
    print(f"ACCEPTANCE 6 PASS: rho strictly decreasing, rho_10 = {rhos[-1]:.2e} <= 1e-3")


def test_criterion_7_floer_oracle_agreement():
    """Element spectra near zero match the shooting oracle, improving >= 2x per refinement."""
    worst_400 = 0.0
    for s in ORACLE_ANGLES:
        errs = {}
        for m in (200, 400):
            pencil = floer.FloerPencil.zero(m)
            w = floer.floer_spectrum(pencil.at(s), 5)
            (roots,) = floer.shooting_eigenvalues(
                pencil, [(s, (float(w[0]) - 0.75, float(w[-1]) + 0.75))]
            )
            closed_form = np.array(
                sorted((s + k * np.pi for k in range(-6, 7)), key=abs)[:5]
            )
            for lam in closed_form:
                assert np.min(np.abs(roots - lam)) <= 1e-9, "oracle drifted from s + k*pi"
            errs[m] = max(float(np.min(np.abs(roots - lam))) for lam in w)
        assert errs[400] <= 1e-2, f"s={s}: error {errs[400]}"
        assert errs[200] >= 2.0 * errs[400], f"s={s}: no 2x gain ({errs[200]} vs {errs[400]})"
        worst_400 = max(worst_400, errs[400])
    print(f"ACCEPTANCE 7 PASS: spectra match the shooting oracle (worst {worst_400:.2e} at M=400)")


def test_criterion_8_spectral_flow():
    """A full boundary-angle loop produces flow +2, and -2 when reversed."""
    sweep = np.linspace(0.0, 2.0 * np.pi, 128)
    pencil = floer.FloerPencil.zero(128)
    windows = [
        floer.floer_spectrum(pencil.at(float(s)), 5) for s in sweep
    ]
    assert flow.spectral_flow(windows) == 2
    assert flow.spectral_flow(windows[::-1]) == -2
    print("ACCEPTANCE 8 PASS: spectral flow +2 forward, -2 reversed (128 samples)")


def test_criterion_9_gauge_suite():
    """Gauge operators: algebraic identity, norm bound, exact domain transport."""
    grid_m = 100
    eta = gauge_suite.CutoffProfile.smoothstep(grid_m)
    for s, ds in ((0.3, 0.2), (1.0, 0.1), (2.2, 0.05), (4.0, 0.15)):
        p = floer.boundary_projector(s)
        q = floer.boundary_projector(s + ds)
        hat = gauge_suite.gauge_hat_U(p, q)
        alt = (q.matrix - p.matrix) @ (2.0 * p.matrix - np.eye(4)) + np.eye(4)
        assert linalg.operator_norm(hat - alt) <= 1e-14
        bound = linalg.operator_norm(q.matrix - p.matrix) * linalg.operator_norm(
            2.0 * p.matrix - np.eye(4)
        )
        assert linalg.operator_norm(hat - np.eye(4)) <= bound + 1e-12
        u = gauge_suite.cutoff_gauge_U(hat, eta)
        moved = linalg.Subspace.from_spanning(
            u @ gauge_suite.domain_subspace(floer.FloerPencil.zero(grid_m), s).basis
        )
        target = gauge_suite.domain_subspace(floer.FloerPencil.zero(grid_m), s + ds)
        assert topology.subspace_gap(moved, target) <= 1e-10
    print("ACCEPTANCE 9 PASS: gauge forms, norm bound and domain transport verified")


def test_criterion_10_bvp_continuity():
    """Halving the angle step shrinks the Riesz modulus >= 1.5x, jointly with nu."""
    pencil = floer.FloerPencil.zero(24)
    coarse_s = np.linspace(0.3, 1.1, 9)
    fine_s = np.linspace(0.3, 1.1, 17)
    coarse = floer.rho_continuity_profile(pencil, coarse_s)
    fine = floer.rho_continuity_profile(pencil, fine_s)
    rho_coarse = max(r.rho for r in coarse)
    rho_fine = max(r.rho for r in fine)
    assert rho_coarse >= 1.5 * rho_fine, f"ratio {rho_coarse / rho_fine}"

    nu_coarse = max(r.nu for r in coarse)
    nu_fine = max(r.nu for r in fine)
    assert nu_fine < nu_coarse
    assert nu_fine <= 1.05 * (fine_s[1] - fine_s[0])
    print(
        "ACCEPTANCE 10 PASS: rho modulus shrinks "
        f"{rho_coarse / rho_fine:.2f}x under step halving, nu {nu_coarse:.3f}->{nu_fine:.3f}"
    )
