"""Tests for the experiment runner: determinism, formats, exit codes."""

import argparse
import collections
import csv
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from fredlab import cli, floer, gallery, topology
from fredlab.errors import InvalidConfig

#: Recorded reports under ``tests/data`` and the ``fredlab`` flags that made
#: them.  Re-record one with ``fredlab <flags> --out tests/data/<name>`` only
#: when a change to that report is intended.
GOLDEN_REPORTS = {
    "fuglede.csv": ["fuglede"],
    "graph.csv": ["graph"],
    "perturb.csv": ["perturb"],
    "identities.csv": ["identities"],
    "floer_dense.csv": [
        "floer", "--grid", "48", "--s-count", "32", "--a", "const:1.5,-0.7"
    ],
    "floer_grid128.csv": ["floer", "--grid", "128", "--s-count", "16"],
    # seeded smooth coefficient (perfbench's smooth_coefficient(3, 96)), %.17g
    "floer_smooth.csv": [
        "floer", "--grid", "96", "--s-count", "64",
        "--a", f"samples:{pathlib.Path(__file__).parent / 'data' / 'smooth3_grid96.txt'}",
    ],
}


#: The runs that take a ``seed``.
SEEDED_RUNS = (cli.run_graph, cli.run_perturb, cli.run_identities)

#: Every public function or class of ``cli`` and ``gallery`` that takes a ``seed``.
SEEDED_CALLABLES = tuple(
    obj
    for module in (cli, gallery)
    for name, obj in vars(module).items()
    if not name.startswith("_")
    and (inspect.isfunction(obj) or inspect.isclass(obj))
    and obj.__module__ == module.__name__
    and "seed" in inspect.signature(obj).parameters
)

#: Arguments besides ``seed`` that a seeded callable needs.
SEED_ARGS = {
    "random_selfadjoint": {"dim": 3},
    "random_with_spectrum": {"eigenvalues": [1.0, 2.0]},
    "perturbation_family": {
        "base": topology.SelfAdjointOperator(np.eye(3)), "schedule": [0.1]
    },
}

#: Options that every experiment takes and that do not reach its run.
COMMON_DESTS = {"help", "format", "out", "strict"}


def _experiment_parsers():
    """``name -> subparser`` of every ``fredlab`` experiment."""
    (sub,) = (a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _run_flags(parser):
    """The actions of an experiment's own flags, the ones that reach its run."""
    return [a for a in parser._actions if a.dest not in COMMON_DESTS]


def _python(*args):
    """Run a fresh ``python *args`` from this checkout, with only its src on the path."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


class TestRows:
    def test_abs_error_and_violation(self):
        ok = cli.ReportRow("x", "l", "p", "m", 1.0, expected=1.0 + 5e-9, tol=1e-8)
        bad = cli.ReportRow("x", "l", "p", "m", 1.0, expected=1.1, tol=1e-8)
        free = cli.ReportRow("x", "l", "p", "m", 1.0)
        assert not ok.violates
        assert bad.violates
        assert free.abs_error is None and not free.violates

    def test_csv_layout(self):
        rows = [cli.ReportRow("e", "l", "p", "m", 0.5, expected=0.25, tol=1.0)]
        text = cli.report_to_csv(rows)
        header, line, _ = text.split("\n")
        assert header == "experiment,label,param,metric,value,expected,abs_error"
        assert line == "e,l,p,m,0.5,0.25,0.25"


class TestFugledeExperiment:
    def test_values_match_closed_forms(self):
        rows = cli.run_fuglede(n_list=(1, 16), dim_factor=4)
        by_key = {(r.param, r.metric): r for r in rows}
        assert by_key[("1", "gap_branch_plus")].value == pytest.approx(1.0, abs=1e-8)
        assert by_key[("16", "alpha_dist")].value == pytest.approx(1.0, abs=1e-8)
        assert not cli.violations(rows)

    def test_rho_increases_toward_two(self):
        rows = cli.run_fuglede(n_list=(1, 2, 4, 8, 16), dim_factor=4)
        rhos = [r.value for r in rows if r.metric == "rho"]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] < 2.0

    def test_rows_come_from_one_profile_per_n(self, monkeypatch):
        calls = []
        profile = topology.generator_distance_profile

        def counted(a0, a1, fns):
            calls.append([f.name for f in fns])
            return profile(a0, a1, fns)

        def refuse(a):
            raise AssertionError("fuglede must read its branches from the profile")

        monkeypatch.setattr(topology, "generator_distance_profile", counted)
        monkeypatch.setattr(topology, "resolvents_at_i", refuse)
        rows = cli.run_fuglede(n_list=(1, 2, 4), dim_factor=4)
        assert calls == [["Pplus", "Pminus", "alpha_ramp"]] * 3
        assert len(rows) == 15 and not cli.violations(rows)


class TestFloerExperiment:
    def test_small_run(self):
        rows = cli.run_floer(grid_m=48, s_count=16, a_spec="0")
        flow = [r for r in rows if r.metric == "spectral_flow"]
        assert len(flow) == 1 and flow[0].value == 2.0
        eig_rows = [r for r in rows if r.metric.startswith("eig_near0_")]
        assert len(eig_rows) == 4 * cli.WINDOW
        assert max(r.abs_error for r in eig_rows) <= 1e-2
        nus = [r.value for r in rows if r.metric == "nu_neighbor"]
        assert nus and max(nus) < 1.0

    def test_bad_config(self):
        with pytest.raises(InvalidConfig):
            cli.run_floer(grid_m=4, s_count=16)

    @pytest.mark.parametrize(
        "flags",
        [{"grid_m": 8.0}, {"grid_m": "24"}, {"grid_m": None}, {"s_count": 16.0}, {"s_count": "16"}],
    )
    def test_flags_must_be_integers(self, flags):
        # the flags size arrays, so a float, a string or None is a typed error
        with pytest.raises(InvalidConfig, match="need an integer"):
            cli.run_floer(**flags)

    def test_one_pencil_per_run(self, monkeypatch):
        """One quadrature and one assembly serve the profile, the oracle angles
        and the sweep."""
        pencils, quadratures, assembled = [], [], []
        real_init, real_blocks, real_at = (
            floer.FloerPencil.__post_init__, floer._element_blocks, floer.FloerPencil.at
        )
        monkeypatch.setattr(
            floer.FloerPencil, "__post_init__", lambda self: pencils.append(self) or real_init(self)
        )
        monkeypatch.setattr(
            floer, "_element_blocks", lambda p: quadratures.append(p) or real_blocks(p)
        )
        monkeypatch.setattr(
            floer.FloerPencil, "at", lambda self, s: assembled.append(s) or real_at(self, s)
        )
        cli.run_floer(grid_m=24, s_count=16)
        assert len(pencils) == 1 and len(quadratures) == 1 and assembled == [0.0]

    def test_profile_runs_before_the_interior_eigenpairs(self, monkeypatch):
        """The profile's n x n operators are freed before the interior's near
        pairs and far remainder are set up, so the set-up's temporaries never
        share the peak RSS with them."""
        events = []
        real_ops, real_pairs = floer._mass_normalized_operators, floer._interior_pairs

        def operators(pencil, angles):
            for a in real_ops(pencil, angles):
                events.append("operator")
                yield a

        monkeypatch.setattr(floer, "_mass_normalized_operators", operators)
        monkeypatch.setattr(
            floer, "_interior_pairs", lambda *args: events.append("interior") or real_pairs(*args)
        )
        cli.run_floer(grid_m=24, s_count=16)
        assert events == ["operator"] * (cli.NEIGHBOR_PAIRS + 1) + ["interior"]

    def test_neighbour_rows_are_the_continuity_profile(self):
        rows = [r for r in cli.run_floer(grid_m=24, s_count=16) if r.metric.endswith("_neighbor")]
        sweep = np.linspace(0.0, 2.0 * np.pi, 16)[:5].tolist()
        pencil = floer.FloerPencil(np.zeros(25, dtype=complex), 24)
        profile = floer.rho_continuity_profile(pencil, sweep)
        assert [r.value for r in rows] == [v for m in profile for v in m]
        assert [r.metric for r in rows] == ["nu_neighbor", "rho_neighbor", "gamma_neighbor"] * 4
        for k, r in enumerate(rows):
            s_a, s_b = sweep[k // 3], sweep[k // 3 + 1]
            assert (r.label, r.param) == (f"s={s_a:.4f}->{s_b:.4f}", repr(s_b - s_a))
        assert rows[0].label == "s=0.0000->0.4189" and rows[0].param == "0.41887902047863906"

    @pytest.mark.parametrize("a_spec", ["0", "const:1.5,-0.7", "const:-2,1"])
    def test_eig_rows_converge_at_fourth_order(self, a_spec):
        # the eig_near0 bound 400 m^-4 rests on C = error * m^4 staying between
        # 113.6 and 154.3 from grid 16 to 400
        for grid_m in (24, 48, 96):
            rows = cli.run_floer(grid_m=grid_m, s_count=32, a_spec=a_spec)
            eig_rows = [r for r in rows if r.metric.startswith("eig_near0_")]
            assert {r.tol for r in eig_rows} == {400.0 / grid_m**4}
            assert 100.0 < max(r.abs_error for r in eig_rows) * grid_m**4 < 160.0

    def test_planted_eig_error_fails_strict(self, monkeypatch, tmp_path, capsys):
        # ten times the bound on the first oracle window; the sweep is left alone
        out = str(tmp_path / "report.csv")
        argv = ["floer", "--grid", "48", "--s-count", "16", "--strict", "--out", out]
        assert cli.main(argv) == 0
        real, planted = floer.FloerPencil.spectra, []

        def spectra(self, angles, k_window):
            windows = real(self, angles, k_window)
            if not planted:
                planted.append(next(windows) + 10.0 * 400.0 / 48**4)
                yield planted[0]
            yield from windows

        monkeypatch.setattr(floer.FloerPencil, "spectra", spectra)
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("tolerance violation eig_near0_") == cli.WINDOW
        assert err.count("(s=0.5000)") == cli.WINDOW

    def test_flow_expected_for_nonzero_coefficient(self):
        # theta(1; 0) does not depend on s, so every full loop has flow +2
        rows = cli.run_floer(grid_m=32, s_count=64, a_spec="const:1.5,-0.7")
        flow = [r for r in rows if r.metric == "spectral_flow"]
        assert len(flow) == 1 and flow[0].expected == 2.0
        assert not cli.violations(rows)


class TestSuites:
    def test_graph_suite_clean(self):
        rows = cli.run_graph(dim=12, trials=25, seed=3)
        assert not cli.violations(rows)

    def test_perturb_trend(self):
        rows = cli.run_perturb(dim=12, steps=10, seed=3)
        assert not cli.violations(rows)
        rhos = [r.value for r in rows if r.metric == "rho"]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_identities_clean(self):
        rows = cli.run_identities(trials=25, seed=3)
        assert not cli.violations(rows)


    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (cli.run_fuglede, {"n_list": (1.5,)}),
            (cli.run_graph, {"dim": 20.5}),
            (cli.run_perturb, {"dim": 20.5}),
            (cli.run_identities, {"trials": 2.5}),
            *((run, {"seed": seed}) for run in SEEDED_RUNS for seed in (7.5, "7")),
        ],
        ids=[
            "fuglede", "graph", "perturb", "identities",
            *(f"{run.__name__}-seed-{seed!r}" for run in SEEDED_RUNS for seed in (7.5, "7")),
        ],
    )
    def test_sizes_must_be_integers(self, run, kwargs):
        with pytest.raises(InvalidConfig, match="need an integer"):
            run(**kwargs)

    @pytest.mark.parametrize(
        "run, kwargs, match",
        [
            (cli.run_fuglede, {"n_list": 4}, "sequence of flip indices"),
            (cli.run_fuglede, {"n_list": ()}, "at least one flip index"),
            (cli.run_floer, {"grid_m": 8, "s_count": 8, "a_spec": 0}, "spec string"),
        ],
        ids=["fuglede-scalar-list", "fuglede-empty-list", "floer-numeric-spec"],
    )
    def test_other_settings_are_checked(self, run, kwargs, match):
        with pytest.raises(InvalidConfig, match=match):
            run(**kwargs)


class TestSolverCalls:
    """The LAPACK calls of the dense suites, counted: their timing swings from
    run to run, their number does not."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for name in ("eigh", "eigvalsh", "svd"):

            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_graph(self, calls):
        cli.run_graph(dim=8, trials=5, seed=0)
        # per trial: one SVD for the kernel dimension, and values only for the
        # suspension and two norms; the gap metrics of the five Fuglede pairs
        # take two norms each, and the diagonal operators carry their eigenpairs
        assert dict(calls) == {"eigvalsh": 5 * 3 + 5 * 2, "svd": 5}

    def test_identities(self, calls):
        cli.run_identities(trials=5, seed=0)
        # per trial: values only for psi and three norms; A carries the
        # eigenpairs it is built from
        assert dict(calls) == {"eigvalsh": 5 * 4}


class TestCertificateCalls:
    """The window certificate of a ``floer`` run, counted: interior
    factorizations and dense fallbacks, whose number does not swing."""

    @staticmethod
    def _count(monkeypatch, module, names):
        counts = collections.Counter()
        for name in names:

            def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_floer(self, monkeypatch):
        counts = self._count(monkeypatch, floer, ("_interior_inertia", "floer_spectrum"))
        cli.run_floer(grid_m=48, s_count=64, a_spec="const:1.5,-0.7")
        # two cuts per spectra call, the oracle angles' and the sweep's, each
        # serving every angle of its call; no window falls back
        assert (counts["_interior_inertia"], counts["floer_spectrum"]) == (4, 0)

    def test_interior_set_up(self, monkeypatch):
        counts = self._count(monkeypatch, floer, ("_factor", "_interior_pairs"))
        cli.run_floer(grid_m=48, s_count=64, a_spec="const:1.5,-0.7")
        # one set-up per run: the shift of the inverse iteration, the count of
        # near poles, the mass, 12 nodes and 2 checks of the remainder; then
        # the 4 cuts of the certificate
        assert (counts["_interior_pairs"], counts["_factor"]) == (1, 1 + 1 + 1 + 12 + 2 + 4)

    def test_default_run_makes_one_full_eigendecomposition(self, monkeypatch):
        # the profile's interior mass root; the spectra diagonalize nothing
        # of the interior's size
        shapes, real = [], np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, *args: shapes.append(np.shape(a)) or real(a, *args)
        )
        cli.run_floer()
        assert shapes.count((799, 799)) == 1


class TestASpec:
    def test_zero(self):
        np.testing.assert_array_equal(cli.parse_a_spec("0", 8), np.zeros(9, dtype=complex))

    def test_const(self):
        samples = cli.parse_a_spec("const:1.5,-2", 8)
        np.testing.assert_allclose(samples, np.full(9, 1.5 - 2.0j))

    def test_samples_file(self, tmp_path):
        path = tmp_path / "a.txt"
        data = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        np.savetxt(path, data)
        samples = cli.parse_a_spec(f"samples:{path}", 8)
        np.testing.assert_allclose(samples.real, np.linspace(0, 1, 9))

    def test_samples_file_wrong_rows(self, tmp_path):
        path = tmp_path / "a.txt"
        np.savetxt(path, np.zeros((4, 2)))
        with pytest.raises(InvalidConfig):
            cli.parse_a_spec(f"samples:{path}", 8)

    def test_unknown(self):
        with pytest.raises(InvalidConfig):
            cli.parse_a_spec("sin(t)", 8)

    def test_empty_samples_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# no data\n\n")
        with pytest.raises(InvalidConfig, match="holds no data"):
            cli.parse_a_spec(f"samples:{path}", 8)


#: Malformed ``samples:`` files for a grid of 8, so 9 rows of (re, im) are due.
MALFORMED_SAMPLES = {
    "empty": "",
    "non_numeric": "a b\n" * 9,
    "nan_row": "0 0\n" * 4 + "nan 0\n" + "0 0\n" * 4,
    "inf_row": "0 0\n" * 4 + "0 inf\n" + "0 0\n" * 4,
    "one_column": "0\n" * 9,
    "three_columns": "0 0 0\n" * 9,
    "too_few_rows": "0 0\n" * 4,
    "ragged": "0 0\n" * 4 + "0 0 0\n" + "0 0\n" * 4,
    "missing_path": None,
}


class TestMalformedSamples:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SAMPLES))
    def test_exits_2_with_one_message(self, case, tmp_path, capsys):
        path = tmp_path / "a.txt"
        if MALFORMED_SAMPLES[case] is not None:
            path.write_text(MALFORMED_SAMPLES[case])
        code = cli.main(["floer", "--grid", "8", "--s-count", "8", "--a", f"samples:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fredlab: ")
        assert "Traceback" not in captured.err


    def test_ragged_file_names_the_line(self, tmp_path, capsys):
        # the 7th line is the 5th data row: comments and blanks count as lines
        path = tmp_path / "a.txt"
        path.write_text("# re im\n\n" + "0 0\n" * 4 + "0 0 0\n" + "0 0\n" * 4)
        code = cli.main(["floer", "--grid", "8", "--s-count", "8", "--a", f"samples:{path}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("fredlab: ")
        assert "line 7 has 3 columns, line 3 has 2" in line
        assert "usecols" not in captured.err and "Traceback" not in captured.err

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0 0\n" * 3 + "# note\n" + "0 x\n" + "0 0\n" * 5)
        with pytest.raises(InvalidConfig, match="line 5: could not convert"):
            cli.parse_a_spec(f"samples:{path}", 8)

    def test_overflowing_coefficient_is_a_typed_error(self):
        with pytest.raises(InvalidConfig, match="NaN or Inf"):
            cli.run_floer(grid_m=16, s_count=8, a_spec="const:1e308,1e308")

class TestMain:
    def test_csv_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(["identities", "--trials", "5", "--seed", "11", "--out", str(out1)]) == 0
        assert cli.main(["identities", "--trials", "5", "--seed", "11", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_output(self, capsys):
        assert cli.main(["perturb", "--trials", "6", "--dim", "8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["metric"] for row in payload} >= {"rho", "rho_final"}

    def test_strict_violation_exit_code(self, tmp_path, capsys):
        # an 8-step schedule does not yet reach the final tolerance
        code = cli.main(["perturb", "--trials", "5", "--dim", "8", "--strict", "--out", str(tmp_path / "r.csv")])
        assert code == 1

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["floer", "--grid", "4"]) == 2

    def test_graph_dim_below_two_exit_code(self, capsys):
        # each trial draws its dimension from [2, dim]
        assert cli.main(["graph", "--dim", "1"]) == 2
        assert "need dim >= 2" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert cli.main(["identities", "--trials", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("fredlab: ") and "Traceback" not in captured.err

    def test_package_runs_as_a_module(self):
        proc = _python("-m", "fredlab", "identities", "--trials", "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("experiment,label,param,metric,value,expected,abs_error")

    def test_stdout_default(self, capsys):
        assert cli.main(["fuglede", "--n-list", "1", "--dim-factor", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,label,param,metric,value,expected,abs_error")
        assert "gap_branch_plus" in out

    @pytest.mark.parametrize(
        "argv", [["fuglede", "--n-list", "1"], ["floer", "--grid", "8", "--s-count", "4"]]
    )
    def test_seed_is_refused_where_no_run_reads_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["graph", "--dim", "6", "--trials", "5"], ["perturb", "--dim", "8", "--trials", "6"],
         ["identities", "--trials", "5"]],
    )
    def test_seed_reaches_the_seeded_runs(self, argv, capsys):
        def report(*extra):
            assert cli.main([*argv, *extra]) == 0
            return capsys.readouterr().out

        default = report()
        assert report("--seed", "7") == default
        assert report("--seed", "8") != default


class TestDispatch:
    """``fredlab <experiment>`` calls its run with the flags given and no others,
    so a run's signature holds the only copy of its defaults."""

    @pytest.mark.parametrize(
        "argv, run, kwargs",
        [
            (["graph"], "run_graph", {}),
            (["perturb", "--trials", "6", "--seed", "3"], "run_perturb", {"steps": 6, "seed": 3}),
            (
                ["floer", "--grid", "24", "--a", "const:1,2"],
                "run_floer",
                {"grid_m": 24, "a_spec": "const:1,2"},
            ),
            (["fuglede", "--n-list", "1,3"], "run_fuglede", {"n_list": (1, 3)}),
            (["identities", "--seed", "0"], "run_identities", {"seed": 0}),
        ],
        ids=["graph", "perturb", "floer", "fuglede", "identities"],
    )
    def test_main_passes_only_the_flags_given(self, argv, run, kwargs, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, run, lambda **flags: calls.append(flags) or [])
        assert cli.main([*argv, "--out", os.devnull]) == 0
        assert calls == [kwargs]

    def test_every_flag_is_a_keyword_of_its_run_without_a_default(self):
        parsers = _experiment_parsers()
        assert sorted(parsers) == ["floer", "fuglede", "graph", "identities", "perturb"]
        for name, parser in parsers.items():
            params = inspect.signature(parser.get_default("run")).parameters
            flags = _run_flags(parser)
            assert flags, name
            for action in flags:
                assert action.dest in params, (name, action.option_strings)
                assert action.default is argparse.SUPPRESS, (name, action.option_strings)

    def test_readme_table_lists_the_run_defaults(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| `(\w+)` +\|.*\| `(--[^`]*)` \|$", readme, re.MULTILINE)
        parsers = _experiment_parsers()
        assert sorted(name for name, _ in table) == sorted(parsers)
        for name, listed in table:
            parser = parsers[name]
            params = inspect.signature(parser.get_default("run")).parameters
            actions = {s: a for a in parser._actions for s in a.option_strings}
            tokens = listed.split()
            flags = dict(zip(tokens[::2], tokens[1::2]))
            assert len(flags) * 2 == len(tokens), listed
            assert {actions[f].dest for f in flags} == {a.dest for a in _run_flags(parser)}, name
            for flag, text in flags.items():
                action = actions[flag]
                value = (action.type or str)(text)
                assert value == params[action.dest].default, (name, flag, text)

    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (cli.run_fuglede, {"n_list": (0,)}),
            (cli.run_fuglede, {"dim_factor": 0}),
            (cli.run_floer, {"grid_m": 7}),
            (cli.run_floer, {"s_count": 7}),
            (cli.run_graph, {"dim": 1}),
            (cli.run_graph, {"trials": 0}),
            (cli.run_perturb, {"dim": 0}),
            (cli.run_perturb, {"steps": 0}),
            (cli.run_identities, {"trials": 0}),
            *((run, {"seed": -1}) for run in SEEDED_RUNS),
        ],
        ids=lambda x: x.__name__ if callable(x) else "-".join(map(str, x)),
    )
    def test_one_below_each_bound_is_refused(self, run, kwargs):
        with pytest.raises(InvalidConfig, match="need .* >= "):
            run(**kwargs)

    @pytest.mark.parametrize("argv", [["fuglede", "--n-list", "1,x"], ["floer", "--grid", "x"]])
    def test_malformed_number_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: " in capsys.readouterr().err


class TestSeeds:
    """Every seed passes ``require_integer`` on its way to a generator, so a
    seeded function added to ``cli`` or ``gallery`` cannot skip the check."""

    def test_the_seeded_callables_are_found(self):
        names = {f.__name__ for f in SEEDED_CALLABLES}
        assert names >= {"generator", *SEED_ARGS, *(run.__name__ for run in SEEDED_RUNS)}

    @pytest.mark.parametrize("seed", [7.5, "7", -1])
    @pytest.mark.parametrize("fn", SEEDED_CALLABLES, ids=lambda f: f.__name__)
    def test_every_seed_is_checked(self, fn, seed):
        with pytest.raises(InvalidConfig, match=r"^need (an integer seed: |seed >= 0, got -1$)"):
            fn(**SEED_ARGS.get(fn.__name__, {}), seed=seed)


class TestColdStart:
    # only floer needs scipy, and cli imports floer inside run_floer, so the
    # dense experiments never import scipy.  A fresh process is needed because
    # pytest's warning filters import scipy.sparse into this one.
    PROBE = """
import json, os, sys
loaded = {}
def note(step):
    loaded[step] = [m for m in ("scipy", "scipy.linalg", "scipy.sparse") if m in sys.modules]
import fredlab
note("import fredlab")
from fredlab import cli
note("import fredlab.cli")
for argv in json.loads(sys.argv[1]):
    assert cli.main([*argv, "--out", os.devnull]) == 0, argv
    note(argv[0])
print(json.dumps(loaded))
"""
    DENSE_RUNS = [
        ["fuglede", "--n-list", "1,2"],
        ["graph", "--dim", "6", "--trials", "5"],
        ["perturb", "--dim", "8", "--trials", "4"],
        ["identities", "--trials", "3"],
    ]

    def test_dense_experiments_do_not_load_scipy_submodules(self):
        proc = _python("-c", self.PROBE, json.dumps(self.DENSE_RUNS))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        steps = ["import fredlab", "import fredlab.cli", *(argv[0] for argv in self.DENSE_RUNS)]
        assert loaded == {step: [] for step in steps}

    def test_floer_runs_in_a_fresh_process(self):
        proc = _python("-m", "fredlab", "floer", "--grid", "24", "--s-count", "16")
        assert proc.returncode == 0, proc.stderr
        assert ",spectral_flow,2.0,2.0,0.0" in proc.stdout


class TestGoldenReports:
    # refactors keep every report: the same rows in the same order, and each
    # value and expected value within 1e-10 of the recording
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_matches_recording(self, name, tmp_path):
        out = tmp_path / name
        assert cli.main([*GOLDEN_REPORTS[name], "--strict", "--out", str(out)]) == 0
        with open(out, newline="") as got_fh, open(
            pathlib.Path(__file__).parent / "data" / name, newline=""
        ) as want_fh:
            got, want = list(csv.DictReader(got_fh)), list(csv.DictReader(want_fh))
        keys = ("experiment", "label", "param", "metric")
        assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
        for g, w in zip(got, want):
            for col in ("value", "expected"):
                assert (g[col] == "") == (w[col] == ""), (w, col)
                if w[col]:
                    assert abs(float(g[col]) - float(w[col])) <= 1e-10, (w, col)
