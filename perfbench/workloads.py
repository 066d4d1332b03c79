"""Workloads of the benchmark: inputs from a seed, the calls, the output check.

- ``floer-default``: ``run_floer()`` at its default flags (grid 400, 128
  angles, a = 0), the run users make; the seed is ignored.  Pencils of
  dimension 800 take the ARPACK path, so the sparse spectrum, assembly and
  the 800-dim metrics dominate.
- ``floer-dense-sweep``: ``run_floer(grid_m=96, s_count=512)`` with a smooth
  coefficient read through ``samples:PATH``.  Dimension 192 is below the
  dense cutoff, so every spectrum takes the dense path; non-constant
  coefficients and the file parser get used.
- ``metric-suite``: the dense metric layer alone, no ``floer``: thousands of
  small ``operator_norm``/``sym_eig``/``apply_scalar_function`` calls.

The calls go through module attributes (``cli.run_floer``, not an imported
name), so a tracer that replaces those attributes sees them.
"""

from __future__ import annotations

import os

import numpy as np

from fredlab import cli, gallery, topology

WORKLOADS = ("floer-default", "floer-dense-sweep", "metric-suite")

DENSE_GRID = 96
DENSE_SWEEP = 512

#: Indices of the seeded smooth coefficients the dense sweep draws from
#: (seed modulo their count), so every input it can run has a recorded
#: reference.  Index 6 is left out: it hits a known library defect that
#: ``tests/test_known_defects.py`` reproduces.
DENSE_CATALOGUE = (0, 1, 2, 3, 4, 5, 7, 8)

#: Rows with no expected value, checked against the recorded reference.
INFORMATIVE = ("rho_neighbor", "gamma_neighbor", "nu_neighbor", "delta_graphs")

#: Tolerance of the acceptance criteria on closed-form metric values.
REFERENCE_TOL = 1e-8

#: Tolerance of the acceptance criteria on resolvent identities.
IDENTITY_TOL = 1e-10

FUGLEDE_N = (1, 2, 4, 8, 16, 32, 64)
PROFILE_PAIRS = 10
PROFILE_DIM = 200


def smooth_coefficient(index, grid_m):
    """Seeded sum of three damped cosine modes with complex amplitudes."""
    rng = np.random.default_rng(index)
    t = np.linspace(0.0, 1.0, grid_m + 1)
    a = np.zeros(grid_m + 1, dtype=complex)
    for k in (1, 2, 3):
        amp = complex(rng.normal(), rng.normal()) / k
        a += amp * np.cos(k * np.pi * t + rng.uniform(0.0, 2.0 * np.pi))
    return a


def build(name, seed, workdir):
    """``(run, key)``: a callable making the workload's calls, and its reference key.

    Inputs are generated here, outside the timed calls, except the random
    operators of ``metric-suite``, whose generation is part of that workload.
    """
    if name == "floer-default":
        return (lambda: {"rows": cli.run_floer()}), name
    if name == "floer-dense-sweep":
        index = DENSE_CATALOGUE[seed % len(DENSE_CATALOGUE)]
        a = smooth_coefficient(index, DENSE_GRID)
        path = os.path.join(workdir, f"a{index}.txt")
        np.savetxt(path, np.column_stack([a.real, a.imag]), fmt="%.17g")
        spec = f"samples:{path}"
        return (
            lambda: {
                "rows": cli.run_floer(grid_m=DENSE_GRID, s_count=DENSE_SWEEP, a_spec=spec)
            }
        ), f"{name}/{index}"
    if name == "metric-suite":
        return (lambda: metric_suite(seed)), name
    raise ValueError(f"unknown workload {name!r}")


def metric_suite(seed):
    rows = [
        *cli.run_fuglede(n_list=FUGLEDE_N, dim_factor=4),
        *cli.run_graph(dim=60, trials=200, seed=seed),
        *cli.run_identities(trials=200, seed=seed),
        *cli.run_perturb(dim=200, steps=10, seed=seed),
    ]
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(PROFILE_PAIRS):
        a0, a1 = (
            gallery.random_selfadjoint(
                PROFILE_DIM, seed=int(rng.integers(1 << 30)), spectrum_range=(-5.0, 5.0)
            )
            for _ in range(2)
        )
        profiles.append(topology.generator_distance_profile(a0, a1))
    return {"rows": rows, "profiles": profiles}


def informative_rows(rows):
    """``label|metric -> value`` of the rows that carry no expected value."""
    return {f"{r.label}|{r.metric}": r.value for r in rows if r.metric in INFORMATIVE}


def check(name, key, results, reference):
    """Problems found in a workload's results; an empty list means correct."""
    rows = results["rows"]
    problems = [
        f"{r.experiment} {r.label} {r.metric}: |{r.value!r} - {r.expected!r}| > {r.tol!r}"
        for r in cli.violations(rows)
    ]
    if name.startswith("floer"):
        flows = [r.value for r in rows if r.metric == "spectral_flow"]
        if flows != [2.0]:
            problems.append(f"spectral flow {flows}, expected [2.0]")

    expected = reference.get(key)
    got = informative_rows(rows)
    if expected is None:
        problems.append(f"no reference recorded for {key}")
    elif set(got) != set(expected):
        problems.append(f"informative rows {sorted(got)} differ from the reference's")
    else:
        for row, value in got.items():
            if not abs(value - expected[row]) <= REFERENCE_TOL:
                problems.append(f"{row}: {value!r} vs reference {expected[row]!r}")

    # the probe distances of the two resolvents sum to gamma, and the
    # bounded-transform probe is rho, by definition
    for k, p in enumerate(results.get("profiles", ())):
        d = p.generator_distances
        if not abs(p.gamma - d["Pplus"] - d["Pminus"]) <= IDENTITY_TOL:
            problems.append(f"profile {k}: gamma {p.gamma!r} != Pplus + Pminus")
        if not abs(p.rho - d["r"]) <= IDENTITY_TOL:
            problems.append(f"profile {k}: rho {p.rho!r} != r-probe {d['r']!r}")
    return problems
