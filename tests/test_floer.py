"""Tests for the interval boundary-value family: assembly, spectra, flow, gauges."""

import dataclasses
import pathlib
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from fredlab import cli, floer, linalg, topology
from fredlab.errors import (
    GaugeSingular,
    InvalidConfig,
    MassNotPositiveDefinite,
    NoConvergence,
    NoRootBracketed,
    NotSymmetric,
    SamplingTooCoarse,
)
from fredlab.floer import (
    BoundaryProjector,
    Coupling,
    CutoffProfile,
    DiscretizedOperator,
    FloerPencil,
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
            FloerPencil.zero(4)

    def test_fields_are_the_coefficient_alone(self):
        names = [f.name for f in dataclasses.fields(FloerPencil)]
        assert names == ["a_samples", "grid_m", "coupling"]

    @pytest.mark.parametrize("bad", [-0.1, 7.0, np.nan])
    @pytest.mark.parametrize("reader", ["at", "spectra", "assemble", "domain", "projector"])
    def test_every_reader_checks_the_angle(self, reader, bad):
        # the angle is an argument of each call that reads one member
        pencil = FloerPencil.zero(16)
        read = {
            "at": lambda: pencil.at(bad),
            "spectra": lambda: list(pencil.spectra([0.1, 0.2, bad, 0.3], 5)),
            "assemble": lambda: pencil.at(bad),
            "domain": lambda: domain_subspace(pencil, bad),
            "projector": lambda: boundary_projector(bad),
        }[reader]
        with pytest.raises(InvalidConfig, match="outside"):
            read()

    def test_coupling_is_coerced_to_the_enum(self):
        # the string used to fall through to the linear branch unnoticed
        samples = np.full(17, 1.5 - 0.7j)
        pencil = FloerPencil(samples, 16, coupling="antilinear")
        assert pencil.coupling is Coupling.ANTILINEAR
        want = FloerPencil(samples, 16).at(1.0).stiffness
        got = pencil.at(1.0).stiffness
        assert np.array_equal(got.toarray(), want.toarray())
        # and the string reaches the symmetry check of the linear coupling
        with pytest.raises(InvalidConfig, match="purely imaginary"):
            FloerPencil(samples, 16, coupling="linear_imaginary")

    def test_unknown_coupling(self):
        with pytest.raises(InvalidConfig, match="not a valid Coupling"):
            FloerPencil.constant(0.5, 16, coupling="nonsense")

    @pytest.mark.parametrize("grid_m", [8.0, "8", None])
    def test_grid_must_be_an_integer(self, grid_m):
        with pytest.raises(InvalidConfig, match="integer"):
            FloerPencil(np.zeros(9, dtype=complex), grid_m)

    @pytest.mark.parametrize("grid_m", [8.0, "8", None])
    @pytest.mark.parametrize("factory", ["zero", "constant", "smoothstep"])
    def test_factories_check_the_grid_before_sizing(self, factory, grid_m):
        # the factories size the samples from grid_m, so they check it first
        make = {
            "zero": lambda: FloerPencil.zero(grid_m),
            "constant": lambda: FloerPencil.constant(0.5, grid_m),
            "smoothstep": lambda: CutoffProfile.smoothstep(grid_m),
        }[factory]
        with pytest.raises(InvalidConfig, match="integer"):
            make()

    def test_numpy_integer_grid(self):
        pencil = FloerPencil(np.zeros(9, dtype=complex), np.int64(8))
        assert type(pencil.grid_m) is int and pencil.grid_m == 8

    def test_sample_count_mismatch(self):
        with pytest.raises(InvalidConfig):
            FloerPencil(np.zeros(10, dtype=complex), 16)

    def test_linear_coupling_needs_imaginary(self):
        with pytest.raises(InvalidConfig):
            FloerPencil.constant(1.0, 16, coupling=Coupling.LINEAR_IMAGINARY)
        FloerPencil.constant(0.7j, 16, coupling=Coupling.LINEAR_IMAGINARY)

    def test_coefficient_encoding(self):
        pencil = FloerPencil.constant(1.0, 8)
        mats = floer.coefficient_matrices(pencil)
        for m in mats:
            np.testing.assert_allclose(m, [[1.0, 0.0], [0.0, -1.0]])
        pencil = FloerPencil.constant(2.0 + 3.0j, 8)
        np.testing.assert_allclose(
            floer.coefficient_matrices(pencil)[0], [[2.0, 3.0], [3.0, -2.0]]
        )

    def test_linear_coupling_encoding(self):
        pencil = FloerPencil.constant(0.5j, 8, coupling=Coupling.LINEAR_IMAGINARY)
        np.testing.assert_allclose(
            floer.coefficient_matrices(pencil)[0], [[0.0, 0.5], [-0.5, 0.0]]
        )


class TestAssembly:
    def test_stiffness_symmetric(self):
        for pencil, s in (
            (FloerPencil.zero(8), 0.0),
            (FloerPencil.constant(1.0 - 2.0j, 16), 2.0),
            (FloerPencil.constant(0.3j, 12, coupling=Coupling.LINEAR_IMAGINARY), 1.0),
        ):
            op = pencil.at(s)
            assert linalg.symmetry_defect(op.stiffness.toarray()) <= 1e-12
            assert linalg.symmetry_defect(op.square_stiffness.toarray()) <= 1e-12
            # the pencil stays banded: three nodes' worth of couplings per row
            for x in (op.stiffness, op.mass, op.square_stiffness):
                assert isinstance(x, scipy.sparse.csc_array)
                assert max(scipy.sparse.linalg.spbandwidth(x)) <= 3
                assert x.nnz <= 8 * op.dim

    @pytest.mark.parametrize("s", [0.0, np.pi / 2, 1.0, 2.0 * np.pi])
    @pytest.mark.parametrize("a", [0.0, 0.3 + 0.2j, "random"])
    def test_scatter_equals_constraint_products(self, monkeypatch, s, a):
        # the dof table restricts the full nodal matrices to the domain: each
        # constrained matrix is R^T X R, R's columns the admissible directions
        m = 12
        if a == "random":
            rng = np.random.default_rng(5)
            samples = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        else:
            samples = np.full(m + 1, complex(a))
        pencil = FloerPencil(samples, m)
        op = pencil.at(s)
        n = 2 * (m + 1)
        monkeypatch.setattr(floer, "_node_dofs", lambda grid_m, s: (np.arange(n), np.ones(n)))
        full = pencil.at(s)
        v0, v1 = boundary_lines(s)
        r = np.zeros((n, n - 2))
        r[0:2, 0], r[-2:, -1] = v0, v1
        r[2:-2, 1:-1] = np.eye(n - 4)
        for field in ("stiffness", "mass", "square_stiffness"):
            x, x_full = getattr(op, field), getattr(full, field).toarray()
            want = r.T @ x_full @ r
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(x.toarray(), want, rtol=0.0, atol=1e-14 * scale)
            # exact cancellations (zero weights at s = 0, the zero diagonal of
            # J) leave no stored zeros behind
            assert np.all(x.data != 0.0)

    def test_nnz_at_grid_400(self):
        op = FloerPencil.constant(0.3 + 0.2j, 400).at(1.0)
        assert (op.stiffness.nnz, op.mass.nnz, op.square_stiffness.nnz) == (4790, 2398, 2398)

    def test_dof_count(self):
        for m in (8, 33):
            op = FloerPencil.zero(m).at(1.0)
            assert op.dim == 2 * (m + 1) - 2

    def test_mass_positive_definite(self):
        op = FloerPencil.zero(16).at(0.5)
        w = np.linalg.eigvalsh(op.mass.toarray())
        assert np.min(w) > 0.0

    def test_mass_normalized_operator(self):
        op = FloerPencil.zero(16).at(0.5)
        a = mass_normalized(op)
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


def _case(kind, m=12):
    """One coefficient of each kind."""
    if kind == "zero":
        return FloerPencil.zero(m)
    if kind == "constant":
        return FloerPencil.constant(0.3 + 0.2j, m)
    if kind == "random":
        rng = np.random.default_rng(5)
        return FloerPencil(rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1), m)
    q = 1.5 * np.cos(np.linspace(0.0, 3.0, m + 1))
    return FloerPencil(1j * q, m, coupling=Coupling.LINEAR_IMAGINARY)


class TestFloerPencil:
    @pytest.mark.parametrize("s", [0.0, np.pi / 2, 1.0, 2.0 * np.pi])
    @pytest.mark.parametrize("kind", ["zero", "constant", "random", "linear"])
    def test_equals_the_element_sum_bitwise(self, s, kind):
        # each constrained matrix is R^T X R, X the unassembled element blocks
        # and R the weighted dof table: entry (X_e[a, b] * w_a) * w_b summed
        # element by element, here through scipy's COO -> CSC route
        pencil = _case(kind)
        op = pencil.at(s)
        dof, weight = floer._node_dofs(pencil.grid_m, s)
        coords = 2 * np.arange(pencil.grid_m)[:, None] + np.arange(4)
        d, w = dof[coords], weight[coords]
        rows, cols = np.broadcast_arrays(d[:, :, None], d[:, None, :])
        fields = ("stiffness", "mass", "square_stiffness")
        for field, blocks in zip(fields, floer._element_blocks(pencil)):
            values = (blocks * w[:, :, None]) * w[:, None, :]
            want = scipy.sparse.coo_array(
                (values.ravel(), (rows.ravel(), cols.ravel())), shape=(op.dim, op.dim)
            ).tocsc()
            want.eliminate_zeros()
            got = getattr(op, field)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
            # exact cancellations leave no stored zeros behind
            assert np.all(got.data != 0.0)
        direct = pencil.at(s)
        for field in fields:
            assert np.array_equal(getattr(direct, field).data, getattr(op, field).data)

    @pytest.mark.parametrize("kind", ["zero", "constant", "random", "linear"])
    def test_border_is_the_assembled_last_column(self, kind):
        # the closed form of each angle's border against the element sum of at
        pencil = _case(kind)
        angles = np.array([0.0, 0.4, np.pi / 2.0, np.pi, 4.4, 2.0 * np.pi])
        cols, diag = pencil.border(angles)
        assert cols.shape == (3, angles.size, 2) and diag.shape == (3, angles.size)
        fields = ("stiffness", "mass", "square_stiffness")
        for a, s in enumerate(angles):
            op = pencil.at(s)
            one_cols, one_diag = pencil.border(s)
            for x, field in enumerate(fields):
                col = getattr(op, field)[:, -1:].toarray()[:, 0]
                want = np.zeros_like(col)
                want[pencil.border_rows], want[-1] = cols[x, a], diag[x, a]
                np.testing.assert_array_equal(col, want, err_msg=f"{field} at s = {s}")
                np.testing.assert_array_equal(one_cols[x], cols[x, a])
                assert one_diag[x] == diag[x, a]

    def test_shooting_builds_no_element_blocks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(floer, "_element_blocks", lambda pencil: calls.append(pencil))
        (roots,) = shooting_eigenvalues(FloerPencil.zero(16), [(1.0, (-2.0, 2.0))])
        assert roots.size and calls == []

    def test_quadrature_runs_once_per_pencil(self, monkeypatch):
        calls = []
        real = floer.coefficient_matrices
        monkeypatch.setattr(floer, "coefficient_matrices", lambda p: calls.append(p) or real(p))
        pencil = FloerPencil.constant(0.3 + 0.2j, 16)
        for s in np.linspace(0.0, 2.0 * np.pi, 9):
            pencil.at(float(s))
        assert len(calls) == 1
        calls.clear()
        # the profile of an existing pencil reuses its blocks
        assert len(rho_continuity_profile(pencil, np.linspace(0.3, 1.1, 5))) == 4
        assert calls == []

    def test_every_angle_is_checked(self):
        pencil = FloerPencil.zero(8)
        with pytest.raises(InvalidConfig, match="outside"):
            pencil.at(7.0)

    def test_overflowing_coefficient_raises_at_every_angle(self):
        pencil = FloerPencil.constant(1e308 + 1e308j, 16)
        for s in (0.0, 1.0):
            with pytest.raises(InvalidConfig, match="NaN or Inf"):
                pencil.at(s)


class TestValidatorRoutes:
    # symmetry is read off the CSC arrays when the pattern is symmetric and
    # canonical, and from the sparse difference otherwise
    def _dense(self):
        op = FloerPencil.constant(0.3 + 0.2j, 8).at(1.0)
        return op.stiffness.toarray(), op.mass.toarray(), op.square_stiffness.toarray()

    def test_asymmetric_pattern(self):
        k, m, k2 = self._dense()
        k[0, -1] = 1e-6
        with pytest.raises(NotSymmetric, match="^stiffness is not symmetric"):
            DiscretizedOperator(k, m, k2)

    def test_duplicate_entries_are_summed(self):
        k, m, k2 = self._dense()
        # every mass entry stored twice, as two halves
        x = scipy.sparse.csc_array(m)
        starts, nnz = x.indptr[:-1], np.diff(x.indptr)
        indptr = np.concatenate([[0], np.cumsum(2 * nnz)])
        order = np.concatenate([np.r_[a:a + n, a:a + n] for a, n in zip(starts, nnz)])
        dup = scipy.sparse.csc_array((0.5 * x.data[order], x.indices[order], indptr), shape=m.shape)
        assert not dup.has_canonical_format
        op = DiscretizedOperator(k, dup, k2)
        np.testing.assert_array_equal(op.mass.toarray(), m)
        np.testing.assert_array_equal(floer._upper_band(dup), floer._upper_band(x))
        skewed = dup.copy()
        col = np.repeat(np.arange(m.shape[0]), np.diff(dup.indptr))
        skewed.data[np.flatnonzero(dup.indices != col)[0]] += 1e-6
        with pytest.raises(NotSymmetric, match="^mass is not symmetric"):
            DiscretizedOperator(k, skewed, k2)

    @pytest.mark.parametrize("width", [0, 1, 3, 5])
    def test_band_holds_the_upper_diagonals(self, width):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((12, 12))
        a = np.triu(np.tril(a + a.T, width), -width)
        x = scipy.sparse.csc_array(a)
        want = [np.pad(np.diagonal(a, d), (d, 0)) for d in range(width, -1, -1)]
        np.testing.assert_array_equal(floer._upper_band(x), want)


class TestSpectrum:
    def test_kernel_at_zero_angle(self):
        op = FloerPencil.zero(32).at(0.0)
        w = floer_spectrum(op, 3)
        assert np.min(np.abs(w)) <= 1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0, np.pi, 5.0])
    def test_matches_rotation_ladder(self, s):
        op = FloerPencil.zero(64).at(s)
        w = floer_spectrum(op, 5)
        np.testing.assert_allclose(w, ladder(s, 5), atol=1e-4)

    def test_refinement_improves(self):
        s = 1.0
        errs = []
        for m in (32, 64):
            w = floer_spectrum(FloerPencil.zero(m).at(s), 5)
            errs.append(np.max(np.abs(w - ladder(s, 5))))
        assert errs[1] <= errs[0] / 2.0

    def test_s_periodicity(self):
        s = 0.8
        w1 = floer_spectrum(FloerPencil.zero(64).at(s), 4)
        w2 = floer_spectrum(FloerPencil.zero(64).at(s + np.pi), 4)
        np.testing.assert_allclose(w1, w2, atol=1e-6)

    def test_agrees_with_shooting_for_nonconstant_a(self):
        samples = (0.8 + 0.4j) * np.sin(np.pi * np.linspace(0.0, 1.0, 65))
        pencil, s = FloerPencil(samples, 64), 1.3
        w = floer_spectrum(pencil.at(s), 3)
        (roots,) = shooting_eigenvalues(pencil, [(s, (float(w[0] - 0.4), float(w[-1] + 0.4)))])
        np.testing.assert_allclose(w, roots, atol=5e-3)

    def test_linear_coupling_shifts_the_ladder(self):
        # for a = iq constant the system is a pure rotation at speed q + lam,
        # so the eigenvalues are {s - q + k*pi}
        s, q = 1.0, 0.7
        pencil = FloerPencil.constant(1j * q, 64, coupling=Coupling.LINEAR_IMAGINARY)
        w = floer_spectrum(pencil.at(s), 5)
        np.testing.assert_allclose(w, ladder(s - q, 5), atol=1e-4)
        (roots,) = shooting_eigenvalues(pencil, [(s, (float(w[0] - 0.4), float(w[-1] + 0.4)))])
        np.testing.assert_allclose(roots, ladder(s - q, 5), atol=1e-8)

    @pytest.mark.parametrize("window", [2.5, 5.0, "5", None])
    @pytest.mark.parametrize("route", ["spectra", "dense"])
    def test_window_size_must_be_an_integer(self, route, window):
        # a window is counted, so 2.5 is an error, not a window of 2
        pencil = FloerPencil.zero(16)
        read = {
            "spectra": lambda: list(pencil.spectra([0.1], window)),
            "dense": lambda: floer_spectrum(pencil.at(0.1), window),
        }[route]
        with pytest.raises(InvalidConfig, match="integer window size"):
            read()

    @pytest.mark.parametrize("window", [0, 33])
    def test_window_is_checked_before_the_interior_solve(self, monkeypatch, window):
        def refused(*args):
            raise AssertionError("interior eigenpairs computed for a bad window")

        monkeypatch.setattr(floer, "_interior_pairs", refused)
        with pytest.raises(InvalidConfig, match="window size"):
            next(FloerPencil.zero(16).spectra([0.5], window))

    def test_large_grid_path_deterministic_and_consistent(self):
        # the pencil's windows come from secular roots on the interior
        # eigenpairs; they must reproduce themselves and the dense route
        pencil = FloerPencil.zero(128)
        (w1,) = pencil.spectra([0.8], 5)
        (w2,) = pencil.spectra([0.8], 5)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_allclose(w1, floer_spectrum(pencil.at(0.8), 5), atol=1e-9)

    def test_full_window_from_the_secular_roots(self):
        # the secular route needs no slack beyond the window: a full window
        # takes every root, the one above the last interior eigenvalue too
        pencil = FloerPencil.zero(101)
        op = pencil.at(0.8)
        (w,) = pencil.spectra([0.8], op.dim)
        np.testing.assert_array_equal(w, next(pencil.spectra([0.8], op.dim)))
        np.testing.assert_allclose(w, floer_spectrum(op, op.dim), rtol=0.0, atol=1e-9)

    @staticmethod
    def _count_full_solves(monkeypatch, dim):
        # generalized eigh calls of full size; the sign step's small blocks
        # are not counted
        calls = []
        real_eigh = scipy.linalg.eigh

        def counting(a, b=None, **kwargs):
            if np.shape(a) == (dim, dim):
                calls.append(kwargs.get("subset_by_index"))
            return real_eigh(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        return calls

    def test_dense_window_is_one_solve(self, monkeypatch):
        pencil = FloerPencil.constant(1.5 - 0.7j, 48)
        op = pencil.at(1.0)
        calls = self._count_full_solves(monkeypatch, op.dim)
        w = floer_spectrum(op, 5)
        assert calls == [(0, 10)]
        # where the block is cut does not matter: a Ritz step on twice as
        # many squared-pencil vectors gives the same window
        mus, vecs = scipy.linalg.eigh(
            op.square_stiffness.toarray(), op.mass.toarray(), subset_by_index=(0, 21)
        )
        ritz = scipy.linalg.eigvalsh(vecs.T @ (op.stiffness @ vecs), vecs.T @ (op.mass @ vecs))
        np.testing.assert_allclose(w, np.sort(sorted(ritz, key=abs)[:5]), rtol=0.0, atol=1e-12)
        (roots,) = shooting_eigenvalues(pencil, [(1.0, (float(w[0] - 0.4), float(w[-1] + 0.4)))])
        np.testing.assert_allclose(w, roots, atol=1e-2)

    def test_degenerate_slack_widens_the_subset(self, monkeypatch):
        # mu = 1 is 8-fold (lam = +1 five times, -1 three times), so a window
        # of 1 with 6 values of slack sees no open gap; from 7 of its 8
        # vectors the first-order form would give a value strictly inside
        # (-1, 1).  The subset doubles once and the block ends in the widest
        # gap, 16 -> 25.  The negative value wins the tie at |lam| = 1.
        dim = 20
        lams = np.concatenate([[1.0] * 5, [-1.0] * 3, [2.0, -2.5, 3.0, -3.5], 4.0 + np.arange(8)])
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((dim, dim)))
        k = q @ np.diag(lams) @ q.T
        k = 0.5 * (k + k.T)
        k2 = k @ k
        op = DiscretizedOperator(k, np.eye(dim), 0.5 * (k2 + k2.T))
        calls = self._count_full_solves(monkeypatch, dim)
        w = floer_spectrum(op, 1)
        assert calls == [(0, 6), (0, 13)]
        np.testing.assert_allclose(w, [-1.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            floer_spectrum(op, 9), [-1.0] * 3 + [1.0] * 5 + [2.0], rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("s, k_window", [(0.0, 2), (0.0, 4), (np.pi / 2, 5)])
    def test_mirror_tie_takes_the_negative_value(self, s, k_window):
        # a = 0 puts s + k*pi at the window's edge as a +-lam pair: both
        # routes keep the negative one, whichever roundoff made smaller
        pencil = FloerPencil.zero(8)
        (w,) = pencil.spectra([s], k_window)
        np.testing.assert_allclose(
            w, floer_spectrum(pencil.at(s), k_window), rtol=0.0, atol=1e-12
        )
        assert w[0] == -np.max(np.abs(w))

    def test_dropped_eigenpair_is_counted(self, monkeypatch):
        # a lost secular root would shift the window silently; the inertia
        # count at the cut sees one value more than the block
        pencil = FloerPencil.zero(128)
        op = pencil.at(0.8)
        real_roots = floer._secular_roots
        calls = []

        def dropping(poles, weights, alpha, beta, count, far):
            calls.append(count)
            mus, diff = real_roots(poles, weights, alpha, beta, count, far)
            keep = np.arange(mus.shape[1]) != 1
            return mus[:, keep], diff[:, keep]

        monkeypatch.setattr(floer, "_secular_roots", dropping)
        (missed,) = floer._bordered_windows(
            pencil.interior(5), *pencil.border(np.array([0.8])), 5, []
        )
        assert isinstance(missed, NoConvergence) and "1 missed" in str(missed)
        np.testing.assert_array_equal(next(pencil.spectra([0.8], 5)), floer_spectrum(op, 5))
        assert calls == [11, 11]

    @pytest.mark.parametrize("grid_m", [48, 96, 400])
    @pytest.mark.parametrize("s", [0.0, np.pi, 2.0 * np.pi])
    def test_decoupled_interior_modes_deflate(self, monkeypatch, grid_m, s):
        # for a = 0 with the end lines parallel, half the interior modes do
        # not reach the last dof: their couplings are rounding noise and
        # deflate to exact eigenpairs of the interior
        pencil = FloerPencil.zero(grid_m)
        real_roots = floer._secular_roots
        poles = []

        def recording(*args):
            poles.append(args[0].size)
            return real_roots(*args)

        monkeypatch.setattr(floer, "_secular_roots", recording)
        (w,) = pencil.spectra([s], 5)
        # 11 of the 21 near poles stay coupled
        assert poles and max(poles) <= pencil.interior(5).lam.size // 2 + 1
        np.testing.assert_allclose(
            w, floer_spectrum(pencil.at(s), 5), rtol=0.0, atol=1e-12
        )

    @staticmethod
    def _count_interior_solves(monkeypatch, dim):
        calls = []
        real_eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            if np.shape(a) == (dim - 1, dim - 1):
                calls.append(np.array(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_one_interior_solve_per_coefficient(self, monkeypatch):
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        calls = self._count_interior_solves(monkeypatch, 2 * 24)
        windows = list(pencil.spectra(np.linspace(0.0, 2.0 * np.pi, 64), 5))
        # the near pairs come from block inverse iteration: the spectra take
        # no dense interior solve
        assert calls == []
        assert spectral_flow(windows) == 2
        calls.clear()
        rho_continuity_profile(pencil, np.linspace(0.0, 0.4, 5))
        # the profile's one interior solve is the mass, not a repeat of the K2 one
        assert len(calls) == 1
        for mass in calls:
            np.testing.assert_array_equal(mass, pencil.base.mass[:-1, :-1].toarray())


def smooth_coefficient(seed, grid_m):
    """Seeded sum of three damped cosine modes with complex amplitudes."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, grid_m + 1)
    a = np.zeros(grid_m + 1, dtype=complex)
    for k in (1, 2, 3):
        amp = complex(rng.normal(), rng.normal()) / k
        a += amp * np.cos(k * np.pi * t + rng.uniform(0.0, 2.0 * np.pi))
    return a


class TestSmoothSweep:
    """Grid 96, 512 angles, the strong seed-6 coefficient.

    Near ``s = 1.52`` its squared pencil holds a near-degenerate pair
    ``lam = +-8.064``, whose vectors each mix both signs; a Rayleigh
    quotient per vector gave a spurious ``-2.86`` inside the window.
    """

    GRID = 96
    SWEEP = np.linspace(0.0, 2.0 * np.pi, 512)

    @pytest.fixture(scope="class")
    def family(self):
        # the route run_floer takes: one pencil, secular windows per angle
        a = smooth_coefficient(6, self.GRID)
        pencil = FloerPencil(a, self.GRID)
        return a, list(pencil.spectra(self.SWEEP, 5))

    def test_every_window_matches_shooting(self, family):
        a, windows = family
        queries = [
            (float(s), (float(w[0] - 0.3), float(w[-1] + 0.3))) for s, w in zip(self.SWEEP, windows)
        ]
        roots = shooting_eigenvalues(FloerPencil(a, self.GRID), queries)
        for s, w, r in zip(self.SWEEP, windows, roots):
            assert r.size == 5, f"s = {s}: oracle finds {r}, window {w}"
            np.testing.assert_allclose(w, r, rtol=0.0, atol=1e-5, err_msg=f"s = {s}")

    def test_near_degenerate_pair_keeps_the_flow(self, family):
        _, windows = family
        assert spectral_flow(windows[120:130]) == 0
        assert spectral_flow(windows) == 2


class TestBlockRoute:
    """``FloerPencil.spectra`` works a block of angles at a time; each window
    is the dense window of its own operator, whatever else is in its block."""

    @pytest.mark.parametrize("grid_m", [48, 96])
    def test_mixed_block_matches_the_dense_route(self, grid_m):
        # s = 0, pi and 2 pi deflate half the interior modes for a = 0, so the
        # block holds two masks of coupled modes
        pencil = FloerPencil.zero(grid_m)
        angles = [0.0, 0.3, np.pi, 1.7, 2.0 * np.pi, np.pi / 2.0, 5.0, 0.0]
        for s, w in zip(angles, pencil.spectra(angles, 5)):
            np.testing.assert_allclose(
                w, floer_spectrum(pencil.at(s), 5), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )

    @pytest.mark.parametrize("k_window", [2, 4, 5])
    def test_mirror_ties_inside_a_block(self, k_window):
        pencil = FloerPencil.zero(8)
        angles = [0.4, 0.0, np.pi / 2.0, np.pi, 2.5, 2.0 * np.pi]
        for s, w in zip(angles, pencil.spectra(angles, k_window)):
            np.testing.assert_allclose(
                w, floer_spectrum(pencil.at(s), k_window), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )

    def test_window_does_not_depend_on_its_block(self, monkeypatch):
        monkeypatch.setattr(floer, "_BLOCK_ANGLES", 64)
        pencil = FloerPencil(smooth_coefficient(3, 48), 48)
        sweep = np.linspace(0.0, 2.0 * np.pi, 64)
        block = list(pencil.spectra(sweep, 5))
        for s, w in zip(sweep, block):
            np.testing.assert_allclose(w, next(pencil.spectra([s], 5)), rtol=0.0, atol=1e-13)

    def test_no_gap_sends_only_that_angle_to_the_dense_route(self, monkeypatch):
        # at a degeneracy tolerance between the smallest and the next relative
        # widest gap of the slack, one angle alone sees no open gap; the dense
        # route widens its subset, the secular solve is not repeated
        pencil = FloerPencil(smooth_coefficient(3, 12), 12)
        pencil.interior(5)  # its own call of at comes before the count
        angles = np.linspace(0.1, 6.0, 8)
        ratios = []
        for s in angles:
            op = pencil.at(s)
            mus = scipy.linalg.eigh(
                op.square_stiffness.toarray(), op.mass.toarray(), eigvals_only=True
            )
            ratios.append(np.max(np.diff(mus[4:11])) / max(1.0, mus[10]))
        low, next_low = np.sort(ratios)[:2]
        monkeypatch.setattr(floer, "_DEGENERACY_RTOL", 0.5 * (low + next_low))
        real_roots, real_at = floer._secular_roots, FloerPencil.at
        calls, built = [], []

        def recording(poles, weights, alpha, beta, count, far):
            calls.append((weights.shape[0], count))
            return real_roots(poles, weights, alpha, beta, count, far)

        def counting(self, s):
            built.append(s)
            return real_at(self, s)

        monkeypatch.setattr(floer, "_secular_roots", recording)
        monkeypatch.setattr(FloerPencil, "at", counting)
        windows = list(pencil.spectra(angles, 5))
        assert calls == [(8, 11)]
        assert built == [angles[np.argmin(ratios)]]
        for s, w in zip(angles, windows):
            np.testing.assert_allclose(
                w, floer_spectrum(real_at(pencil, s), 5), rtol=0.0, atol=1e-12
            )

    def test_at_runs_only_for_the_interior_and_fallbacks(self, monkeypatch):
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        real_at = FloerPencil.at
        built = []

        def counting(self, s):
            built.append(s)
            return real_at(self, s)

        monkeypatch.setattr(FloerPencil, "at", counting)
        windows = list(pencil.spectra(np.linspace(0.0, 2.0 * np.pi, 64), 5))
        assert built == [0.0]
        assert spectral_flow(windows) == 2
        # a count that fails at every angle sends each one to the dense route
        rows = pencil.border_rows.size
        monkeypatch.setattr(
            floer, "_interior_inertia", lambda interior, cut: (-1, np.zeros((rows, rows)))
        )
        built.clear()
        list(pencil.spectra([0.5, 1.0, 2.0], 5))
        assert built == [0.5, 1.0, 2.0]

    def test_failed_secular_solve_sends_its_group_to_the_dense_route(self, monkeypatch):
        # the angles of a group share their poles, so a failed solve is not
        # retried per angle: every angle of the group takes the dense route
        pencil = FloerPencil.zero(16)
        pencil.interior(5)  # its own call of at comes before the count
        angles = [0.3, 1.1, 2.0, 4.4, 5.5]
        calls, built = [], []

        def failing(poles, weights, alpha, beta, count, far):
            calls.append(weights.shape[0])
            raise NoConvergence("secular roots did not converge")

        real_at = FloerPencil.at

        def counting(self, s):
            built.append(s)
            return real_at(self, s)

        monkeypatch.setattr(floer, "_secular_roots", failing)
        monkeypatch.setattr(FloerPencil, "at", counting)
        windows = list(pencil.spectra(angles, 5))
        assert calls == [len(angles)]
        assert built == angles
        for s, w in zip(angles, windows):
            np.testing.assert_array_equal(w, floer_spectrum(real_at(pencil, s), 5))

    @pytest.mark.parametrize("bad", [-0.1, 7.0, np.nan])
    def test_angle_outside_the_loop_inside_a_block(self, bad):
        pencil = FloerPencil.zero(16)
        with pytest.raises(InvalidConfig, match="outside"):
            list(pencil.spectra([0.1, 0.2, bad, 0.3], 5))

    def test_border_checks(self):
        interior = FloerPencil.zero(16).interior(5)
        cols, diag = np.zeros((3, 2, 2)), np.ones((3, 2))
        with pytest.raises(InvalidConfig, match="NaN or Inf"):
            floer._bordered_windows(interior, np.full_like(cols, np.nan), diag, 5, [])
        # the mass is positive definite exactly when d - f^T f is
        diag[1, 1] = 0.0
        with pytest.raises(MassNotPositiveDefinite):
            floer._bordered_windows(interior, cols, diag, 5, [])


class TestInteriorInertia:
    """One factorization of the interior of ``K2 - c M`` counts the squared
    values below ``c`` at every angle: ``neg(T) + [sigma < 0]`` with the
    border's Schur form ``sigma`` (Haynsworth)."""

    @pytest.mark.parametrize("cut", [0.49, 3.61, 10.89])
    @pytest.mark.parametrize("a", [0.0, 1.5 - 0.7j])
    def test_count_matches_the_dense_count(self, a, cut):
        pencil = FloerPencil.constant(a, 48)
        interior = pencil.interior(5)
        neg, g = floer._interior_inertia(interior, cut)
        for s in np.linspace(0.0, 2.0 * np.pi, 41):
            op = pencil.at(s)
            k2, m = op.square_stiffness.toarray(), op.mass.toarray()
            shifted = k2 - cut * m
            b = shifted[:-1, -1][interior.rows]
            sigma = shifted[-1, -1] - b @ g @ b
            mus = scipy.linalg.eigh(k2, m, eigvals_only=True)
            assert neg + int(sigma < 0.0) == np.count_nonzero(mus < cut), f"s = {s}"

    @staticmethod
    def _count_factorizations(monkeypatch):
        cuts = []
        real = floer._interior_inertia

        def counting(interior, cut):
            cuts.append(cut)
            return real(interior, cut)

        monkeypatch.setattr(floer, "_interior_inertia", counting)
        return cuts

    def test_a_sweep_shares_its_factorizations(self, monkeypatch):
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        pencil.interior(5)
        cuts = self._count_factorizations(monkeypatch)
        sweep = np.linspace(0.0, 2.0 * np.pi, 64)
        windows = list(pencil.spectra(sweep, 5))
        # the block size is 9 at angles 0-7, 25-38 and 56-63 and 10 between.
        # Angle 0 factors its size-9 cut, which lies below the size-10 blocks;
        # angle 8 factors its size-10 cut, which lies in the tenth gap of the
        # size-9 angles 25-30, 33-38 and 56-61 too.  So the first cut serves
        # angles 0-7, 31, 32, 62 and 63, the second all others, across blocks
        assert len(cuts) == 2
        assert spectral_flow(windows) == 2
        for s, w in zip(sweep[::7], windows[::7]):
            np.testing.assert_allclose(
                w, floer_spectrum(pencil.at(s), 5), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )

    def test_each_angle_takes_the_newest_cut_that_serves_it(self, monkeypatch):
        # a count one too high at the second cut sends exactly the angles it
        # serves (see the sweep above) to the dense route
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        pencil.interior(5)
        real, real_at = floer._interior_inertia, FloerPencil.at
        cuts, built = [], []

        def second_miscounts(interior, cut):
            cuts.append(cut)
            neg, g = real(interior, cut)
            return neg + (len(cuts) == 2), g

        monkeypatch.setattr(floer, "_interior_inertia", second_miscounts)
        monkeypatch.setattr(FloerPencil, "at", lambda self, s: built.append(s) or real_at(self, s))
        sweep = np.linspace(0.0, 2.0 * np.pi, 64)
        list(pencil.spectra(sweep, 5))
        assert len(cuts) == 2
        np.testing.assert_array_equal(built, sweep[np.r_[8:31, 33:62]])

    def test_a_listed_cut_serves_a_later_block(self, monkeypatch):
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        sweep = np.linspace(0.0, 2.0 * np.pi, 64)
        listed = []
        floer._bordered_windows(pencil.interior(5), *pencil.border(sweep[:16]), 5, listed)
        assert len(listed) == 2
        cuts = self._count_factorizations(monkeypatch)
        (w,) = floer._bordered_windows(pencil.interior(5), *pencil.border(sweep[16:17]), 5, listed)
        assert cuts == [] and len(listed) == 2
        np.testing.assert_allclose(w, floer_spectrum(pencil.at(sweep[16]), 5), rtol=0.0, atol=1e-12)

    def test_two_calls_share_no_cut(self, monkeypatch):
        # the list of factorizations lives for one call; the pencil keeps none
        pencil = FloerPencil(smooth_coefficient(3, 24), 24)
        pencil.interior(5)
        cuts = self._count_factorizations(monkeypatch)
        sweep = np.linspace(0.0, 2.0 * np.pi, 64)
        first = list(pencil.spectra(sweep, 5))
        second = list(pencil.spectra(sweep, 5))
        assert len(cuts) == 4 and cuts[:2] == cuts[2:]
        np.testing.assert_array_equal(first, second)

    def test_negative_schur_forms_are_counted(self, monkeypatch):
        # for const:1.5,-0.7 at grid 48 the interior eigenvalue of the cut's
        # gap lies above the cut at about half the angles: there sigma < 0
        # counts the last value below the cut, and no window falls back
        pencil = FloerPencil.constant(1.5 - 0.7j, 48)
        pencil.interior(5)
        real_at = FloerPencil.at
        built = []
        monkeypatch.setattr(FloerPencil, "at", lambda self, s: built.append(s) or real_at(self, s))
        sweep = np.linspace(0.0, 2.0 * np.pi, 32)
        windows = list(pencil.spectra(sweep, 5))
        assert built == []
        for s, w in zip(sweep[::5], windows[::5]):
            np.testing.assert_allclose(
                w, floer_spectrum(real_at(pencil, s), 5), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )

    def test_a_cut_below_the_block_serves_no_angle(self, monkeypatch):
        # angle 1 lost the value 1.6 from its block [1, 2, 9]; angle 0's own
        # cut 1.3 lies in the middle half of angle 1's first gap (1, 2) and
        # counts right there, but it is below angle 1's block, so angle 1
        # takes the cut 14.5, which sees the loss
        true = np.array([1.0, 1.6, 2.0, 9.0, 20.0, 30.0])
        monkeypatch.setattr(
            floer,
            "_interior_inertia",
            lambda interior, cut: (int(np.count_nonzero(true < cut)), np.zeros((1, 1))),
        )
        mus = np.array([true, [1.0, 2.0, 9.0, 20.0, 30.0, 40.0]])
        cols, diag = np.zeros((3, 2, 1)), np.zeros((3, 2))
        diag[2] = 1.0  # sigma = 1: the interior count is the whole count
        found = ["window 0", "window 1"]
        floer._certify(None, cols, diag, mus, np.array([1, 3]), found, [])
        assert found[0] == "window 0"
        assert isinstance(found[1], NoConvergence) and "1 missed" in str(found[1])

    @pytest.mark.parametrize("angles, factorizations", [((0.1, 1.5), 2), ((0.1, 0.2), 1)])
    def test_angles_share_a_cut_only_where_it_lies_in_both_gaps(
        self, monkeypatch, angles, factorizations
    ):
        # for a = 0 at 0.1 and 1.5 no middle of a cut gap of one angle lies in
        # the middle half of an open gap of the other
        pencil = FloerPencil.zero(16)
        ops = [pencil.at(s) for s in angles]
        fields = [(op.stiffness, op.mass, op.square_stiffness) for op in ops]
        cols = np.stack([[x[:-1, [-1]].toarray()[:, 0] for x in f] for f in fields], axis=1)
        diag = np.array([[x[-1, -1] for x in f] for f in fields]).T
        interior = floer._interior_pairs(ops[0], np.arange(ops[0].dim - 1), 5)
        cuts = self._count_factorizations(monkeypatch)
        windows = floer._bordered_windows(interior, cols, diag, 5, [])
        assert len(cuts) == factorizations
        for op, w in zip(ops, windows):
            np.testing.assert_allclose(w, floer_spectrum(op, 5), rtol=0.0, atol=1e-12)


class TestNearFarInterior:
    """The interior keeps its near poles, below four times ``R``, the top of
    every bracket of a window, and one Chebyshev remainder for the rest."""

    @pytest.mark.parametrize("grid_m", [48, 400])
    @pytest.mark.parametrize("a", [0.0, 1.5 - 0.7j])
    def test_near_poles_are_the_count_below_the_cut(self, grid_m, a):
        interior = FloerPencil.constant(a, grid_m).interior(5)
        cut = floer._NEAR_RATIO * interior.span[1]
        neg, _ = floer._interior_inertia(interior, cut)
        assert neg == interior.lam.size and interior.lam[-1] < cut
        # a window of 5 reads 11 squared values, at or below the 11th pole
        assert interior.lam[10] == interior.span[1]
        assert interior.span[0] == -0.25 * interior.span[1]

    @pytest.mark.parametrize("grid_m", [48, 400])
    @pytest.mark.parametrize("a", [0.0, 1.5 - 0.7j])
    def test_remainder_matches_direct_solves_between_nodes(self, grid_m, a):
        interior = FloerPencil.constant(a, grid_m).interior(5)
        v, m, rows = interior.near, interior.mass, interior.rows
        assert interior.far.shape == (12, rows.size, m.shape[0])
        rhs = np.zeros((m.shape[0], rows.size))
        rhs[rows, np.arange(rows.size)] = 1.0
        rhs -= m @ (v @ v[rows].T)
        lo, hi = interior.span
        for x in np.linspace(-0.95, 0.95, 7) + 0.01:
            mu = lo + 0.5 * (hi - lo) * (x + 1.0)
            y = scipy.sparse.linalg.spsolve(interior.square_stiffness - mu * m, rhs)
            want = y - v @ (v.T @ (m @ y))
            got = np.polynomial.chebyshev.chebval(x, interior.far).T
            # the rows block is what the secular function reads
            err = np.max(np.abs(got[rows] - want[rows])) / np.max(np.abs(want[rows]))
            assert err <= 1e-13, f"mu = {mu}"
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), f"mu = {mu}"

    def test_a_miss_doubles_the_nodes(self):
        # at grid 12 the far poles crowd the cut, and 12 nodes miss 1e-13
        pencil = FloerPencil.zero(12)
        assert pencil.interior(5).far.shape[0] == 24
        sweep = np.linspace(0.0, 2.0 * np.pi, 7)
        for s, w in zip(sweep, pencil.spectra(sweep, 5)):
            np.testing.assert_allclose(w, floer_spectrum(pencil.at(s), 5), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k_window", [2, 4])
    def test_a_root_past_the_span_is_left_out(self, monkeypatch, k_window):
        # for a = 0 at s = 0, pi and 2 pi every other pole deflates; for an
        # even window the top of the span is one of them, and the root above
        # the last coupled pole below it lies past the top
        pencil = FloerPencil.zero(96)
        real, past = floer._secular_roots, []

        def recording(*args):
            mus, diff = real(*args)
            past.append(int(np.count_nonzero(np.isinf(mus))))
            return mus, diff

        monkeypatch.setattr(floer, "_secular_roots", recording)
        angles = [0.0, np.pi, 2.0 * np.pi, 0.3]
        for s, w in zip(angles, pencil.spectra(angles, k_window)):
            np.testing.assert_allclose(
                w, floer_spectrum(pencil.at(s), k_window), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )
        assert past == [3, 0]

    @pytest.mark.parametrize("grid_m", [10, 400])
    @pytest.mark.parametrize("a", [0.0, 1.5 - 0.7j])
    def test_windows_match_the_dense_route(self, grid_m, a):
        # at grid 10 every pole is near and the remainder is empty
        pencil = FloerPencil.constant(a, grid_m)
        interior = pencil.interior(5)
        assert (interior.far.size == 0) == (interior.lam.size == 2 * grid_m - 1) == (grid_m == 10)
        angles = [0.0, 0.8, np.pi, 4.0, 2.0 * np.pi]
        for s, w in zip(angles, pencil.spectra(angles, 5)):
            np.testing.assert_allclose(
                w, floer_spectrum(pencil.at(s), 5), rtol=0.0, atol=1e-12, err_msg=f"s = {s}"
            )

    def test_one_set_up_per_request_size(self, monkeypatch):
        pencil = FloerPencil.zero(24)
        real, calls = floer._interior_pairs, []
        monkeypatch.setattr(
            floer, "_interior_pairs", lambda *args: calls.append(args[2]) or real(*args)
        )
        for k_window in (5, 5, 3, 5, 3):
            list(pencil.spectra([0.4, 2.0], k_window))
        assert calls == [5, 3]
        assert pencil.interior(5).n_req == 11 and pencil.interior(3).n_req == 9


class TestDiscretizedOperator:
    def _pencil(self):
        op = FloerPencil.constant(0.3 + 0.2j, 8).at(1.0)
        return op.stiffness.toarray(), op.mass.toarray(), op.square_stiffness.toarray()

    def test_dense_input_is_stored_sparse(self):
        k, m, k2 = self._pencil()
        op = DiscretizedOperator(k, m, k2)
        for x, dense in ((op.stiffness, k), (op.mass, m), (op.square_stiffness, k2)):
            assert isinstance(x, scipy.sparse.csc_array)
            np.testing.assert_array_equal(x.toarray(), dense)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_nonsymmetric_stiffness(self, field):
        pencil = self._pencil()
        pencil[field][0, 1] += 1e-6
        name = ("stiffness", "mass", "square_stiffness")[field]
        with pytest.raises(NotSymmetric, match=f"^{name} is not symmetric"):
            DiscretizedOperator(*pencil)

    def test_indefinite_mass(self):
        k, m, k2 = self._pencil()
        # positive diagonal, indefinite 2x2 minor: only the band can tell
        m[2, 3] = m[3, 2] = 1.0
        with pytest.raises(MassNotPositiveDefinite):
            DiscretizedOperator(k, m, k2)

    def test_mismatched_shapes(self):
        k, m, k2 = self._pencil()
        with pytest.raises(InvalidConfig):
            DiscretizedOperator(k, m[:-1, :-1], k2)
        with pytest.raises(InvalidConfig):
            DiscretizedOperator(k[:, :-1], m[:, :-1], k2[:, :-1])

    def test_nonfinite_entries(self):
        # NaN passes a symmetry test, since every comparison with it is false
        k, m, k2 = self._pencil()
        k[0, 1] = k[1, 0] = np.nan
        with pytest.raises(InvalidConfig):
            DiscretizedOperator(k, m, k2)
        # a coefficient near the float limit overflows the squared form
        pencil = FloerPencil.constant(1e308 + 1e308j, 16)
        with pytest.raises(InvalidConfig):
            pencil.at(1.0)


class TestShooting:
    # for a = 0 the Prufer angle is theta(1; lam) = -lam exactly, so the
    # roots are the closed-form ladder {s + k*pi}
    def test_rotation_roots(self):
        pencil = FloerPencil.zero(16)
        (roots,) = shooting_eigenvalues(pencil, [(np.pi / 2.0, (-2.0, 2.0))])
        np.testing.assert_allclose(
            roots, [-1.5707963267948966, 1.5707963267948966], rtol=0.0, atol=1e-11
        )

    def test_rotation_roots_wide_window(self):
        for s, interval, ks in (
            (1.0, (-8.0, 8.0), (-2, -1, 0, 1, 2)),
            (np.pi, (-4.0, 4.0), (-2, -1, 0)),
        ):
            (roots,) = shooting_eigenvalues(FloerPencil.zero(16), [(s, interval)])
            np.testing.assert_allclose(
                roots, sorted(s + k * np.pi for k in ks), rtol=0.0, atol=1e-11
            )

    def test_grid_free(self):
        (r1,) = shooting_eigenvalues(FloerPencil.zero(8), [(2.0, (-2.0, 4.0))])
        (r2,) = shooting_eigenvalues(FloerPencil.zero(64), [(2.0, (-2.0, 4.0))])
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_empty_result_is_legal(self):
        pencil = FloerPencil.zero(16)
        assert shooting_eigenvalues(pencil, [(1.5, (1.6, 2.0))])[0].size == 0

    @pytest.mark.parametrize("coupling", list(Coupling))
    def test_angle_matches_vector_integration(self, coupling):
        # the unwrapped angle of u(t) from an adaptive solver on the 2-vector
        # system u' = (B - lam J) u is an independent oracle for theta(1)
        t = np.linspace(0.0, 1.0, 17)
        if coupling is Coupling.ANTILINEAR:
            samples = (0.8 + 0.4j) * np.sin(np.pi * t) + 0.5 * t
        else:
            samples = 1j * (0.7 + np.cos(3.0 * t))
        pencil = FloerPencil(samples, 16, coupling=coupling)
        b = floer.coefficient_matrices(pencil)
        lams = np.array([-25.0, -3.0, -0.4, 0.0, 1.7, 5.0, 25.0])
        expected = []
        for lam in lams:
            def rhs(x, u):
                bx = np.array([np.interp(x, pencil.nodes, c) for c in b.reshape(-1, 4).T])
                return (bx.reshape(2, 2) - lam * floer.J2) @ u

            sol = scipy.integrate.solve_ivp(
                rhs, (0.0, 1.0), [1.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12,
                t_eval=np.linspace(0.0, 1.0, 401), max_step=1.0 / 64.0,
            )
            expected.append(np.unwrap(np.arctan2(sol.y[1], sol.y[0]))[-1])
        np.testing.assert_allclose(
            floer._end_angles(pencil, lams, 1024), expected, rtol=0.0, atol=1e-9
        )

    def test_close_pair_is_counted(self):
        # a deep double well puts two roots 0.03 apart near zero; the count
        # must find both, however close they are
        t = np.linspace(0.0, 1.0, 65)
        samples = 14.0 * np.tanh(40.0 * (t - 0.25)) * np.tanh(40.0 * (t - 0.75))
        pencil = FloerPencil(samples, 64)
        (roots,) = shooting_eigenvalues(pencil, [(1.3, (-0.52, 0.48))])
        assert roots.size == 2
        w = floer_spectrum(pencil.at(1.3), 2)
        np.testing.assert_allclose(roots, w, atol=2e-3)

    def test_stiff_coefficient_is_rejected(self):
        # 2 |a| dt past the coefficient bound 2.785 is refused, not trusted
        for a in (1500.0, 1e150):
            with pytest.raises(SamplingTooCoarse):
                shooting_eigenvalues(FloerPencil.constant(a, 16), [(1.0, (-1.0, 1.0))])
        pencil = FloerPencil.constant(1000.0, 16)
        assert shooting_eigenvalues(pencil, [(1.0, (-1.0, 1.0))])[0].size == 0

    def test_turn_past_pi_in_one_step_is_rejected(self):
        # at 1024 steps and a = 0 one step turns u by |lam| / 1024, past pi
        # near |lam| = 3217, where the wrapped increments would miscount
        with pytest.raises(SamplingTooCoarse):
            shooting_eigenvalues(FloerPencil.zero(16), [(1.0, (-5000.0, 5000.0))])
        (roots,) = shooting_eigenvalues(FloerPencil.zero(16), [(1.0, (-8.0, 8.0))])
        np.testing.assert_allclose(
            roots, [1.0 + k * np.pi for k in (-2, -1, 0, 1, 2)], rtol=0.0, atol=1e-11
        )

    @pytest.mark.parametrize("seed", [0, 2, 6, 8])
    def test_end_angle_decreases_strictly(self, seed):
        # the count of multiples of pi is exact only while F(lam) = theta(1;
        # lam) + s decreases strictly
        pencil = FloerPencil(smooth_coefficient(seed, 96), 96)
        theta = floer._end_angles(pencil, np.linspace(-20.0, 20.0, 1601), 1056)
        assert np.all(np.diff(theta) < 0.0)

    def test_malformed_interval(self):
        for interval in ((2.0, 2.0), (-np.inf, 0.0), (0.0, np.nan)):
            with pytest.raises(NoRootBracketed):
                shooting_eigenvalues(FloerPencil.zero(16), [(1.5, interval)])
        # one bad query spoils the batch, and the angle must be finite too
        queries = [(1.5, (0.0, 1.0)), (np.nan, (0.0, 1.0))]
        with pytest.raises(NoRootBracketed):
            shooting_eigenvalues(FloerPencil.zero(16), queries)

    def test_overflowing_coefficient_is_rejected(self):
        # c0 = -inf outright, or finite but overflowing the step exponents
        for q in (1e308, 5e307):
            pencil = FloerPencil.constant(q * 1j, 16, coupling=Coupling.LINEAR_IMAGINARY)
            for queries in ([(1.0, (-1.0, 1.0))], [(1.0, (-1.0, 1.0)), (2.0, (0.0, 3.0))]):
                with pytest.raises(InvalidConfig):
                    shooting_eigenvalues(pencil, queries)

    def test_batch_equals_single_queries_in_fewer_integrations(self, monkeypatch):
        # the four queries run_floer makes on const:1.5,-0.7; the batch must
        # give each query's roots and integrate no more often than the
        # slowest query does alone
        pencil = FloerPencil.constant(1.5 - 0.7j, 48)
        queries = []
        for s in (0.5, 1.0, np.pi, 5.0):
            w = floer_spectrum(pencil.at(s), 5)
            queries.append((s, (float(w[0]) - 0.75, float(w[-1]) + 0.75)))
        calls = []
        real_end_angles = floer._end_angles

        def counting(*args):
            calls.append(1)
            return real_end_angles(*args)

        monkeypatch.setattr(floer, "_end_angles", counting)
        singles, single_calls = [], []
        for query in queries:
            calls.clear()
            singles.extend(shooting_eigenvalues(pencil, [query]))
            single_calls.append(len(calls))
        calls.clear()
        batch = shooting_eigenvalues(pencil, queries)
        assert len(calls) <= max(single_calls) < sum(single_calls)
        assert len(batch) == len(queries)
        for roots, single in zip(batch, singles):
            assert roots.size == single.size == 5
            np.testing.assert_allclose(roots, single, rtol=0.0, atol=1e-12)

    def test_empty_batch(self):
        assert shooting_eigenvalues(FloerPencil.zero(16), []) == []


def free_loop_windows(grid_m, count):
    """Windows of the zero-coefficient family at ``count`` angles over ``[0, 2 pi]``."""
    return [
        floer_spectrum(FloerPencil.zero(grid_m).at(float(s)), 5)
        for s in np.linspace(0.0, 2.0 * np.pi, count)
    ]


class TestSpectralFlow:
    @pytest.fixture(scope="class")
    def loop_windows(self):
        return free_loop_windows(48, 97)

    def test_constant_family(self):
        w = floer_spectrum(FloerPencil.zero(16).at(1.0), 4)
        assert spectral_flow([w, w, w]) == 0

    def test_full_loop(self, loop_windows):
        assert spectral_flow(loop_windows) == 2
        assert spectral_flow(loop_windows[::-1]) == -2

    def test_partial_path_additivity(self, loop_windows):
        cut = 40
        total = spectral_flow(loop_windows)
        assert spectral_flow(loop_windows[: cut + 1]) + spectral_flow(loop_windows[cut:]) == total

    def test_family_may_be_a_one_pass_iterator(self):
        windows = free_loop_windows(32, 128)
        assert spectral_flow(iter(windows)) == spectral_flow(windows) == 2

    def test_too_coarse(self):
        # a non-constant coefficient distorts the eigenvalue ladder; three
        # samples over a wide angle sweep then move a value across the cut
        t = np.linspace(0.0, 1.0, 33)
        samples = 2.5 * np.sin(np.pi * t) + 1.0j * np.cos(np.pi * t)
        windows = [
            floer_spectrum(FloerPencil(samples, 32).at(s), 4)
            for s in np.linspace(0.2, 2.2, 3)
        ]
        with pytest.raises(SamplingTooCoarse):
            spectral_flow(windows)

    @pytest.mark.parametrize("grid_m", [48, 96, 400])
    def test_four_angles_of_the_free_loop_raise(self, grid_m):
        # each value climbs 2.09 per step on a ladder of spacing pi, so the
        # next window holds its lower neighbour nearer than itself: a count
        # that matches values by least motion reads flow -1 here
        with pytest.raises(SamplingTooCoarse, match="1 vs 0 values"):
            spectral_flow(free_loop_windows(grid_m, 4))

    def test_window_may_slide_by_two_values(self):
        # the cut 1.705 sits in the gap 0.61..2.8 with clearance 1.095; the
        # values next to it move by 0.01 and 0.05, a margin of 0.046
        prev = [-2.9, -2.8, -0.5, 0.6, 3.0]
        nxt = [-0.52, 0.61, 2.85, 2.95, 3.1]
        assert spectral_flow([prev, nxt]) == 0

    def test_motion_reaching_the_clearance_raises(self):
        # both windows hold two values below the cut 2.45 (clearance 0.55),
        # but the value just below it moves by 0.9: margin 1.64
        with pytest.raises(SamplingTooCoarse, match="margin 1.64"):
            spectral_flow([[-1.0, 1.0, 3.0], [-1.0, 1.9, 3.0]])

    @pytest.mark.parametrize("pair", [([], []), ([], [0.5]), ([0.5], [])])
    def test_empty_window_raises(self, pair):
        with pytest.raises(InvalidConfig, match="nonempty"):
            spectral_flow([np.array(w) for w in pair])

    @pytest.mark.parametrize(
        "bad",
        [np.eye(3), [np.nan, 0.5, 2.0], [-1.0, np.inf, 2.0], [-1.0, 0.5j, 2.0], ["a", "b"]],
        ids=["2-D", "nan", "inf", "complex", "strings"],
    )
    @pytest.mark.parametrize("where, step", [(0, 0), (2, 1)])
    def test_malformed_window_names_its_step(self, bad, where, step):
        windows = [[-1.0, 0.5, 2.0]] * 3
        windows[where] = bad
        with pytest.raises(InvalidConfig, match=f"^step {step}: .*1-D eigenvalue windows"):
            spectral_flow(windows)


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
        pencil = FloerPencil.constant(0.8 + 0.3j, 16)
        d0 = boundary_coefficient_operator(pencil)
        c = 1.0 + 2.0 * linalg.operator_norm(d0)
        for s, ds in ((0.2, 0.01), (1.0, 0.05), (2.5, 0.15)):
            v = nu_metric(boundary_projector(s), boundary_projector(s + ds), d0)
            assert v <= c * ds + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            BoundaryProjector(np.eye(4))  # rank 4, not 2

    def test_boundary_coefficient_is_the_antilinear_coefficient_at_the_ends(self):
        pencil = FloerPencil(smooth_coefficient(3, 16), 16)
        d0, b = boundary_coefficient_operator(pencil), floer.coefficient_matrices(pencil)
        np.testing.assert_array_equal(d0[0:2, 0:2], b[0])
        np.testing.assert_array_equal(d0[2:4, 2:4], b[-1])
        assert not d0[0:2, 2:4].any() and not d0[2:4, 0:2].any()

    def test_boundary_coefficient_follows_linear_coupling(self):
        pencil = FloerPencil.constant(0.3j, 8, Coupling.LINEAR_IMAGINARY)
        d0 = boundary_coefficient_operator(pencil)
        block = np.array([[0.0, 0.3], [-0.3, 0.0]])
        np.testing.assert_array_equal(d0, np.block([[block, 0 * block], [0 * block, block]]))
        np.testing.assert_array_equal(d0[2:4, 2:4], floer.coefficient_matrices(pencil)[-1])


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
        u = cutoff_gauge_U(np.eye(4), CutoffProfile.smoothstep(m))
        np.testing.assert_allclose(u, np.eye(2 * (m + 1)), atol=1e-14)

    def test_endpoint_block_transported_exactly(self):
        m = 16
        p, q = boundary_projector(0.3), boundary_projector(0.45)
        hat = gauge_hat_U(p, q)
        u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m))
        np.testing.assert_allclose(u[-2:, -2:], hat[2:4, 2:4], atol=1e-14)
        np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-14)

    def test_domain_transport(self):
        m = 64
        s, t = 0.6, 0.75
        hat = gauge_hat_U(boundary_projector(s), boundary_projector(t))
        u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m))
        moved = linalg.Subspace.from_spanning(u @ domain_subspace(FloerPencil.zero(m), s).basis)
        assert (
            topology.subspace_gap(moved, domain_subspace(FloerPencil.zero(m), t))
            <= 1e-10
        )

    @pytest.mark.parametrize("shape", [(18,), (18, 16), (17, 17), (2, 2)])
    def test_h1_norm_needs_a_square_nodal_map(self, shape):
        with pytest.raises(InvalidConfig, match="square nodal map"):
            h1_operator_norm(np.zeros(shape))

    def test_h1_norm_grid_stable(self):
        p, q = boundary_projector(0.7), boundary_projector(0.9)
        hat = gauge_hat_U(p, q)
        hat_gap = linalg.operator_norm(hat - np.eye(4))
        norms = []
        for m in (50, 100, 200):
            u = cutoff_gauge_U(hat, CutoffProfile.smoothstep(m))
            norms.append(h1_operator_norm(u - np.eye(2 * (m + 1))))
        assert abs(norms[0] - norms[2]) <= 0.1 * norms[2]
        assert abs(norms[1] - norms[2]) <= 0.1 * norms[2]
        # H1-norm controlled by the endpoint gauge with a grid-free constant
        assert all(v <= 4.0 * hat_gap for v in norms)


#: The angles of the mass-root checks: the ends and quarter turns, and the
#: first five angles of the default sweep.
ROOT_ANGLES = [0.0, np.pi / 2, np.pi, 2.0 * np.pi, *np.linspace(0.0, 2.0 * np.pi, 128)[:5]]


def dense_profile(pencil, samples):
    """The neighbour profile by the dense route: :func:`mass_normalized` at each
    angle and the two metrics of each pair."""
    d0 = boundary_coefficient_operator(pencil)
    ops = [mass_normalized(pencil.at(s)) for s in samples]
    return [
        floer.NeighbourMetrics(
            nu_metric(boundary_projector(s0), boundary_projector(s1), d0),
            topology.riesz_metric(a0, a1),
            topology.gap_metric(a0, a1),
        )
        for s0, s1, a0, a1 in zip(samples, samples[1:], ops, ops[1:])
    ]


#: The grids of the mass-root checks: the block of the last 67 dofs holds
#: every dof at grids 8 and 16 and leaves dofs out at grids 48, 96 and 400;
#: its window of 133 holds every dof up to grid 48.
ROOT_GRIDS = [8, 16, 48, 96, 400]


def root_pencils(grid_m):
    """One pencil per coefficient of the root checks: zero, constant, smooth."""
    return [
        FloerPencil.zero(grid_m),
        FloerPencil.constant(1.5 - 0.7j, grid_m),
        FloerPencil(smooth_coefficient(3, grid_m), grid_m),
    ]


def dense_root(pencil, s):
    """``M(s)^{-1/2}`` by one dense eigendecomposition."""
    mass = topology.SelfAdjointOperator(pencil.at(s).mass.toarray())
    return mass.apply(lambda mu: 1.0 / np.sqrt(mu))


class TestMassNormalizedOperators:
    """The neighbour profile's operators against :func:`mass_normalized`."""

    def test_node_counts_are_the_least_the_bounds_allow(self):
        eps = np.finfo(float).eps
        d, decay = floer._BORDER_NODES, floer._RESOLVENT_DECAY
        assert d == 33 and (d + 2) * decay**d <= eps / 4.0 < (d + 1) * decay ** (d - 1)
        assert floer._border_block(800) == slice(733, 800)
        assert floer._border_block(48) == slice(0, 48)
        for grid_m, start in [(8, 0), (16, 0), (48, 0), (96, 59), (400, 667)]:
            n = 2 * grid_m
            assert floer._border_block(n, 2 * d) == slice(start, n)

    @pytest.mark.parametrize("s", ROOT_ANGLES)
    def test_block_root_matches_the_dense_root(self, s):
        """On the block's rows the inverse root of the window's mass, and zero
        outside the window, is the dense ``M(s)^{-1/2}``; the mass does not
        see the coefficient, so one pencil serves."""
        for grid_m in ROOT_GRIDS:
            pencil = FloerPencil.zero(grid_m)
            n = 2 * grid_m
            block, window = floer._border_block(n), floer._border_block(n, 2 * floer._BORDER_NODES)
            mass = pencil.at(s).mass[window, window].toarray()
            root = np.zeros((n, n))
            root[window, window] = floer._inverse_root(mass)
            dense = dense_root(pencil, s)
            err = np.max(np.abs(root[block] - dense[block]))
            assert err <= 1e-13 * np.max(np.abs(dense)), (grid_m, err)

    @pytest.mark.parametrize("grid_m", ROOT_GRIDS)
    def test_root_and_operators_match_the_dense_route(self, grid_m):
        """With the dense root at each angle, ``M^{-1/2} K M^{-1/2}`` is the
        matrix of :func:`mass_normalized`, bit for bit, and the operators of
        the profile agree with it."""
        pencils = root_pencils(grid_m)
        built = [list(floer._mass_normalized_operators(p, ROOT_ANGLES)) for p in pencils]
        for i, s in enumerate(ROOT_ANGLES):
            dense = dense_root(pencils[0], s)
            for pencil, ops in zip(pencils, built):
                k = pencil.at(s).stiffness.toarray()
                want = topology.SelfAdjointOperator(dense @ k @ dense)
                if i == 0:
                    assert np.array_equal(want.matrix, mass_normalized(pencil.at(s)).matrix)
                err = np.max(np.abs(ops[i].matrix - want.matrix))
                assert err <= 1e-13 * np.max(np.abs(want.matrix)), (s, err)

    @pytest.mark.parametrize("grid_m", [16, 96])
    def test_neighbours_differ_only_on_the_border_block(self, grid_m):
        pencil = FloerPencil.constant(1.5 - 0.7j, grid_m)
        ops = [a.matrix for a in floer._mass_normalized_operators(pencil, ROOT_ANGLES)]
        outside = np.ones(ops[0].shape, dtype=bool)
        outside[floer._border_block(2 * grid_m), floer._border_block(2 * grid_m)] = False
        for a0, a1 in zip(ops, ops[1:]):
            assert np.array_equal(a0[outside], a1[outside])
        assert not np.array_equal(ops[0], ops[1])

    def test_gamma_is_the_gap_metric_of_the_operators(self):
        """Read from the block, gamma agrees with the general route on the
        profile's own operators, to the roundoff of eigenvalues up to about 170."""
        pencil = FloerPencil(smooth_coefficient(3, 96), 96)
        samples = ROOT_ANGLES[4:]
        ops = list(floer._mass_normalized_operators(pencil, samples))
        want = [topology.gap_metric(a0, a1) for a0, a1 in zip(ops, ops[1:])]
        got = [m.gamma for m in rho_continuity_profile(pencil, samples)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-13)

    def test_an_operator_depends_on_its_angle_alone(self):
        pencil = FloerPencil.constant(1.5 - 0.7j, 48)
        first, _, again = floer._mass_normalized_operators(pencil, [0.3, 1.2, 0.3])
        (alone,) = floer._mass_normalized_operators(pencil, [0.3])
        assert np.array_equal(first.matrix, again.matrix)
        assert np.array_equal(first.matrix, alone.matrix)

    @pytest.mark.parametrize(
        "grid_m, s_count, a_spec",
        [
            (400, 128, "0"),  # default flags
            (48, 32, "const:1.5,-0.7"),  # floer_dense.csv
            (128, 16, "0"),  # floer_grid128.csv
            (96, 64, f"samples:{pathlib.Path(__file__).parent / 'data' / 'smooth3_grid96.txt'}"),
        ],
        ids=["default", "floer_dense", "floer_grid128", "floer_smooth"],
    )
    def test_profile_matches_the_dense_oracle(self, grid_m, s_count, a_spec):
        pencil = FloerPencil(cli.parse_a_spec(a_spec, grid_m), grid_m)
        samples = np.linspace(0.0, 2.0 * np.pi, s_count)[: cli.NEIGHBOR_PAIRS + 1].tolist()
        got, want = rho_continuity_profile(pencil, samples), dense_profile(pencil, samples)
        assert [g.nu for g in got] == [w.nu for w in want]
        np.testing.assert_allclose(
            [(g.rho, g.gamma) for g in got], [(w.rho, w.gamma) for w in want], rtol=0.0, atol=1e-12
        )


class TestRhoContinuity:
    def test_zero_step(self):
        pencil = FloerPencil.zero(16)
        reports = rho_continuity_profile(pencil, [0.4, 0.4])
        assert reports[0].rho == 0.0
        assert reports[0].gamma == 0.0

    def test_modulus_shrinks_with_step(self):
        pencil = FloerPencil.zero(16)
        coarse = rho_continuity_profile(pencil, np.linspace(0.3, 1.1, 9))
        fine = rho_continuity_profile(pencil, np.linspace(0.3, 1.1, 17))
        assert max(r.rho for r in coarse) >= 1.5 * max(r.rho for r in fine)

    def test_joint_with_nu(self):
        pencil = FloerPencil.zero(16)
        samples = np.linspace(0.3, 0.7, 5)
        reports = rho_continuity_profile(pencil, samples)
        assert max(r.nu for r in reports) < 0.11
        assert max(r.rho for r in reports) < 0.2

    def test_nu_is_the_boundary_projector_distance(self):
        pencil = FloerPencil.constant(0.8 - 0.3j, 16)
        samples = [0.3, 0.5, 1.2]
        d0 = boundary_coefficient_operator(pencil)
        expected = [
            nu_metric(boundary_projector(a), boundary_projector(b), d0)
            for a, b in zip(samples, samples[1:])
        ]
        assert [r.nu for r in rho_continuity_profile(pencil, samples)] == expected

    def test_at_most_two_operators_alive(self, monkeypatch):
        live, peak = set(), []

        def tracked(m):
            a = topology.SelfAdjointOperator(m)
            if a.dim == 2 * 16:  # the interior mass has one dof less
                live.add(id(a))
                weakref.finalize(a, live.discard, id(a))
                peak.append(len(live))
            return a

        monkeypatch.setattr(floer, "SelfAdjointOperator", tracked)
        pencil = FloerPencil.zero(16)
        reports = rho_continuity_profile(pencil, np.linspace(0.3, 1.1, 9))
        # 9 operators, and the masses of 9 windows, which at grid 16 hold every dof
        assert len(reports) == 8 and len(peak) == 18
        assert max(peak) == 2

    def test_eigensolve_budget(self, monkeypatch):
        """Per angle one eigendecomposition of the operator and one of the
        window's mass, plus one of the interior mass: a fallback to a dense
        mass root per angle shows up as more calls."""
        grid_m, k = 96, 6
        shapes = []
        real_eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        pencil = FloerPencil.constant(1.5 - 0.7j, grid_m)
        assert len(rho_continuity_profile(pencil, np.linspace(0.2, 1.4, k))) == k - 1
        n, w = 2 * grid_m, 4 * floer._BORDER_NODES + 1
        assert w == 133 < n - 1
        assert sorted(shapes) == [(w, w)] * k + [(n - 1, n - 1)] + [(n, n)] * k

    @pytest.mark.parametrize("k", [2, 9])
    def test_profile_assembles_once(self, monkeypatch, k):
        """The angle reaches the profile through ``FloerPencil.border``: one
        assembly per pencil, for the interior, however many angles it has."""
        built = []
        real_at = FloerPencil.at
        monkeypatch.setattr(FloerPencil, "at", lambda self, s: built.append(s) or real_at(self, s))
        pencil = FloerPencil.constant(1.5 - 0.7j, 48)
        assert len(rho_continuity_profile(pencil, np.linspace(0.2, 1.4, k))) == k - 1
        assert built == [0.0]
        built.clear()
        assert len(rho_continuity_profile(pencil, np.linspace(0.3, 1.5, k))) == k - 1
        assert built == []

    @pytest.mark.parametrize("samples", [[], [0.4]])
    def test_fewer_than_two_angles_give_no_rows(self, samples):
        assert rho_continuity_profile(FloerPencil.zero(16), samples) == []

    def test_lipschitz_constant_grid_stable(self):
        samples = np.linspace(0.3, 0.7, 5)
        step = samples[1] - samples[0]
        constants = []
        for m in (16, 32, 64):
            reports = rho_continuity_profile(FloerPencil.zero(m), samples)
            constants.append(max(r.rho for r in reports) / step)
        for a, b in zip(constants, constants[1:]):
            assert 0.75 * a <= b <= 1.25 * a
