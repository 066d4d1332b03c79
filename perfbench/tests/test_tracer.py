"""Tests of the benchmark's own tracer, layer metrics and untraced path."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import fredlab
import layers
import measure
import run
import tracer
import workloads
from fredlab import cli, floer
from fredlab.errors import NoConvergence
from tracer import Span, Tracer, public_functions, self_times

BENCH = Path(__file__).resolve().parents[1]


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n == "fredlab" or n.startswith("fredlab.")]
    owners += [np.linalg, scipy.linalg, scipy.sparse.linalg]
    return {(owner.__name__, attr): v for owner in owners for attr, v in vars(owner).items()}


def _assert_same(before, after):
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, f"attributes not restored: {changed[:5]}"


def test_self_time_on_synthetic_nesting():
    spans = [
        Span("root", 0.0, None, 10.0),
        Span("a", 1.0, 0, 4.0),
        Span("a.inner", 2.0, 1, 3.0),
        Span("b", 5.0, 0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == layers.root_total(spans)


def test_tracer_records_nesting_of_calls_between_functions():
    mod = types.ModuleType("toy")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.002)\n"
        "def outer():\n    inner()\n    inner()\n    time.sleep(0.002)\n",
        mod.__dict__,
    )
    sys.modules["toy"] = mod
    try:
        with Tracer(public_functions(mod), "toy") as t:
            mod.outer()
    finally:
        del sys.modules["toy"]
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("toy.outer", None), ("toy.inner", 0), ("toy.inner", 0)]
    selfs = self_times(t.spans)
    outer, first, second = (s.duration for s in t.spans)
    assert selfs[0] == pytest.approx(outer - first - second)
    assert selfs[0] >= 0.002 and all(s >= 0.002 for s in selfs[1:])


def test_every_wrapped_attribute_is_restored_after_a_traced_run():
    before = _snapshot()
    t = layers.make_tracer()
    with t:
        # bindings in other modules are wrapped too
        assert floer.kato_consistency is not before[("fredlab.lagrangian", "kato_consistency")]
        assert fredlab.operator_norm is not before[("fredlab.linalg", "operator_norm")]
        assert scipy.sparse.linalg.eigsh is not before[("scipy.sparse.linalg", "eigsh")]
        cli.run_floer(grid_m=24, s_count=32)
    _assert_same(before, _snapshot())
    assert {s.name for s in t.spans} >= {"cli.run_floer", "floer.spectral_flow", "linalg.sym_eig"}


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _snapshot()
    with pytest.raises(fredlab.FredlabError):
        with layers.make_tracer():
            cli.run_floer(grid_m=4, s_count=4)
    _assert_same(before, _snapshot())


def test_layer_metrics_of_a_small_floer_run():
    t = layers.make_tracer()
    with t:
        cli.run_floer(grid_m=24, s_count=32)
    m = layers.layer_metrics(t.spans)
    assert set(m) == set(layers.metric_names()) - {"trace.overhead_s"}
    oracle_angles = len(cli.ORACLE_ANGLES)
    assert m["floer.spectrum.calls"] == oracle_angles + 32
    assert m["floer.assemble.calls"] == oracle_angles + 32
    assert m["floer.assemble.bytes_out"] == (oracle_angles + 32) * 3 * 48 * 48 * 8
    assert m["floer.shooting.calls"] == oracle_angles and m["floer.shooting.roots"] > 0
    assert 0.0 < m["floer.spectral_flow.margin_max"] < 1.0
    assert m["floer.spectrum.arpack_calls"] == 0 and m["floer.spectrum.dense_fallbacks"] == 0
    assert m["floer.spectrum.arpack_ok_ratio"] == 1.0
    assert m["linalg.sym_eig.work_n3"] == m["linalg.sym_eig.calls"] * 48**3
    assert sum(self_times(t.spans)) == pytest.approx(layers.root_total(t.spans))


def test_solver_path_counters_see_arpack_and_the_dense_fallback(monkeypatch):
    op = floer.assemble_floer_operator(floer.FloerConfig.zero(1.0, 110))
    assert op.dim > layers.DENSE_CUTOFF

    def spectrum_metrics():
        t = layers.make_tracer()
        with t:
            floer.floer_spectrum(op, 5)
        return layers.layer_metrics(t.spans)

    m = spectrum_metrics()
    assert (m["floer.spectrum.arpack_calls"], m["floer.spectrum.dense_fallbacks"]) == (1, 0)
    assert m["floer.spectrum.arpack_ok_ratio"] == 1.0

    real_eigsh = scipy.sparse.linalg.eigsh

    def inconclusive(*args, **kwargs):
        real_eigsh(*args, **kwargs)
        raise NoConvergence("forced")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", inconclusive)
    m = spectrum_metrics()
    assert (m["floer.spectrum.arpack_calls"], m["floer.spectrum.dense_fallbacks"]) == (1, 1)
    assert m["floer.spectrum.arpack_ok_ratio"] == 0.0


def test_flow_margin_matches_the_alignment_rule():
    windows = [np.array([-1.0, 0.5, 2.0]), np.array([-0.9, 0.6, 2.1])]
    assert layers.flow_margin(windows) == pytest.approx(0.1 / 0.75)
    # the window slid by one branch: offset +1 aligns it
    windows = [np.array([-1.0, 0.5, 2.0]), np.array([0.5, 2.0, 3.5])]
    assert layers.flow_margin(windows) == pytest.approx(0.0)


def _cli_output(*argv):
    return subprocess.run(
        [sys.executable, "-m", "fredlab.cli", *argv],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(BENCH.parent / "src")},
    ).stdout


def _never_install(self):
    raise AssertionError("an untraced run installed the tracer")


def test_untraced_floer_run_wraps_nothing_and_matches_the_cli(monkeypatch, tmp_path):
    monkeypatch.setattr(tracer.Tracer, "install", _never_install)
    monkeypatch.setattr(workloads, "DENSE_GRID", 24)
    monkeypatch.setattr(workloads, "DENSE_SWEEP", 32)
    before = _snapshot()
    run, key = workloads.build("floer-dense-sweep", 3, str(tmp_path))
    _, results, error = measure.timed(run)
    assert error is None
    _assert_same(before, _snapshot())
    (path,) = tmp_path.iterdir()
    expected = _cli_output("floer", "--grid", "24", "--s-count", "32", "--a", f"samples:{path}")
    assert cli.report_to_csv(results["rows"]) == expected


def test_untraced_metric_suite_wraps_nothing_and_matches_the_cli(monkeypatch, tmp_path):
    monkeypatch.setattr(tracer.Tracer, "install", _never_install)
    before = _snapshot()
    run, _ = workloads.build("metric-suite", 5, str(tmp_path))
    _, results, error = measure.timed(run)
    assert error is None
    _assert_same(before, _snapshot())
    graph = [r for r in results["rows"] if r.experiment == "graph"]
    expected = _cli_output("graph", "--dim", "60", "--trials", "200", "--seed", "5")
    assert cli.report_to_csv(graph) == expected


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for src in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
