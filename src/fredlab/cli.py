"""Command-line experiment runner emitting diff-able convergence reports.

Each experiment reproduces one cluster of checkable claims as a table with
fixed columns ``experiment,label,param,metric,value,expected,abs_error``.
Rows that carry an expected value also carry an internal tolerance; with
``--strict`` the process exits nonzero when any such row violates it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import flow, gallery, lagrangian, linalg, topology
from .errors import FredlabError, InvalidConfig, require_integer
from .gallery import FugledeSpec, fuglede_expected, fuglede_operator
from .topology import ALPHA_RAMP, P_MINUS, P_PLUS

CSV_COLUMNS = ("experiment", "label", "param", "metric", "value", "expected", "abs_error")

#: Boundary angles probed against the shooting oracle.
ORACLE_ANGLES = (0.5, 1.0, float(np.pi), 5.0)

#: Eigenvalues tracked around zero.
WINDOW = 5

#: Number of leading neighbour pairs priced out in the floer metric table.
NEIGHBOR_PAIRS = 4

#: The eig_near0 rows are checked at ``c m^-4`` at grid ``m``, within
#: ``[1e-10, 1e-2]``.  Their error against the shooting oracle is ``C m^-4``
#: for ``|lam| <= 8``, with ``C`` from 113.6 to 154.3 on ``a = 0``,
#: ``const:1.5,-0.7``, ``const:-2,1``, ``const:0,3`` and the nine smooth
#: benchmark coefficients at grids 16 to 400, so ``c = 400`` leaves 2.59
#: times at least.  The oracle's own error, against four times its steps, is
#: at most 7.4e-12 (smooth coefficient 3 at grids 96 and 400, const:1.5,-0.7
#: at 48, a = 0 at 400), which the floor clears past grid 1414; below grid 15
#: the bound stays at 1e-2.
_EIG_ERROR_CONSTANT = 400.0


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    label: str
    param: str
    metric: str
    value: float
    expected: float | None = None
    tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.expected is not None:
            object.__setattr__(self, "expected", float(self.expected))
        if self.tol is not None:
            object.__setattr__(self, "tol", float(self.tol))

    @property
    def abs_error(self):
        if self.expected is None:
            return None
        return abs(self.value - self.expected)

    @property
    def violates(self):
        return self.tol is not None and self.abs_error is not None and self.abs_error > self.tol


def _cells(row):
    return {c: getattr(row, c) for c in CSV_COLUMNS}


def report_to_csv(rows):
    # str of a float is its repr; an empty cell stands for None
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join("" if v is None else str(v) for v in _cells(r).values()))
    return "\n".join(lines) + "\n"


def report_to_json(rows):
    return json.dumps([_cells(r) for r in rows], indent=2) + "\n"


def violations(rows):
    return [r for r in rows if r.violates]


def run_fuglede(n_list=(1, 2, 4, 8, 16), dim_factor=4):
    """Gap convergence against Riesz divergence for the flipped-diagonal family."""
    dim_factor = require_integer(dim_factor, "dim factor", 1)
    try:
        n_list = [require_integer(n, "flip index", 1) for n in n_list]
    except TypeError:
        raise InvalidConfig(f"need a sequence of flip indices, got {n_list!r}") from None
    if not n_list:
        raise InvalidConfig("need at least one flip index")
    rows = []
    for n in n_list:
        dim = dim_factor * n
        a_n = fuglede_operator(FugledeSpec(n, dim))
        a_0 = fuglede_operator(FugledeSpec(0, dim))
        expected = fuglede_expected(n)
        report = topology.generator_distance_profile(a_n, a_0, fns=(P_PLUS, P_MINUS, ALPHA_RAMP))
        probes = report.generator_distances
        for metric, value, exp in (
            ("gap_branch_plus", probes["Pplus"], expected.resolvent_branch),
            ("gap_branch_minus", probes["Pminus"], expected.resolvent_branch),
            ("gamma", report.gamma, 2.0 * expected.resolvent_branch),
            ("rho", report.rho, expected.rho),
            ("alpha_dist", probes["alpha_ramp"], expected.alpha_dist),
        ):
            rows.append(ReportRow("fuglede", f"n={n}", str(n), metric, value, exp, 1e-8))
    return rows


def parse_a_spec(text, grid_m):
    """Coefficient samples from a command-line spec: 0, const:p,q or samples:PATH."""
    if not isinstance(text, str):
        raise InvalidConfig(f"need a coefficient spec string, got {text!r}")
    if text.strip() == "0":
        return np.zeros(grid_m + 1, dtype=complex)
    if text.startswith("const:"):
        try:
            p_str, q_str = text[len("const:") :].split(",")
            return np.full(grid_m + 1, float(p_str) + 1j * float(q_str))
        except ValueError as exc:
            raise InvalidConfig(f"bad constant coefficient spec {text!r}") from exc
    if text.startswith("samples:"):
        path = text[len("samples:") :]
        with open(path, encoding="utf-8") as fh:
            lines = [(n, line.split("#", 1)[0].split()) for n, line in enumerate(fh, start=1)]
        rows = [(n, cells) for n, cells in lines if cells]
        if not rows:
            raise InvalidConfig(f"coefficient file {path!r} holds no data")
        first, head = rows[0]
        values = []
        for n, cells in rows:
            if len(cells) != len(head):
                raise InvalidConfig(
                    f"coefficient file {path!r}: line {n} has {len(cells)} columns, "
                    f"line {first} has {len(head)}"
                )
            try:
                values.append([float(c) for c in cells])
            except ValueError as exc:
                raise InvalidConfig(f"coefficient file {path!r}, line {n}: {exc}") from exc
        data = np.array(values)
        if data.shape != (grid_m + 1, 2):
            raise InvalidConfig(
                f"coefficient file must hold {grid_m + 1} rows of (re, im), got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise InvalidConfig("coefficient file holds NaN or Inf")
        return data[:, 0] + 1j * data[:, 1]
    raise InvalidConfig(f"unrecognized coefficient spec {text!r}")


def run_floer(grid_m=400, s_count=128, a_spec="0"):
    """Oracle agreement, spectral flow and neighbour metric moduli for the family."""
    # floer is the one module that loads scipy, so the dense experiments never
    # import it.  scipy's submodules load here, after floer and before the
    # first large array: loaded in mid-run, their import's allocations land
    # among the run's buffers and raise the peak RSS by about 4 MB, and
    # loaded before floer, by about 1.3 MB
    from . import floer

    import scipy.linalg
    import scipy.sparse.linalg

    grid_m = floer._element_count(grid_m)
    s_count = require_integer(s_count, "s-count", 8)
    samples = parse_a_spec(a_spec, grid_m)
    rows = []

    # one pencil per run; its profile goes first, so its n x n operators are
    # freed before the spectra set up the interior's near pairs and remainder
    pencil = floer.FloerPencil(samples, grid_m)
    sweep = np.linspace(0.0, 2.0 * np.pi, s_count)
    profile = floer.rho_continuity_profile(pencil, sweep[: NEIGHBOR_PAIRS + 1])
    windows = list(pencil.spectra(ORACLE_ANGLES, WINDOW))
    # one batch: the Prufer angle does not depend on s, so one pencil serves all
    oracle = floer.shooting_eigenvalues(
        pencil,
        [(s, (float(w[0]) - 0.75, float(w[-1]) + 0.75)) for s, w in zip(ORACLE_ANGLES, windows)],
    )
    tol = min(1e-2, max(_EIG_ERROR_CONSTANT / grid_m**4, 1e-10))
    for s, w, roots in zip(ORACLE_ANGLES, windows, oracle):
        label, param = f"s={s:.4f}", f"{s!r}"
        for i, lam in enumerate(w):
            expected = float(roots[np.argmin(np.abs(roots - lam))]) if roots.size else None
            rows.append(
                ReportRow("floer", label, param, f"eig_near0_{i}", float(lam), expected, tol)
            )

    crossings = flow.spectral_flow(pencil.spectra(sweep, WINDOW))
    rows.append(
        ReportRow(
            "floer",
            "sweep 0..2pi",
            str(s_count),
            "spectral_flow",
            float(crossings),
            2.0,
            0.0,
        )
    )

    for (s_a, s_b), metrics in zip(itertools.pairwise(sweep.tolist()), profile):
        label, param = f"s={s_a:.4f}->{s_b:.4f}", f"{s_b - s_a!r}"
        for name, value in metrics._asdict().items():
            rows.append(ReportRow("floer", label, param, f"{name}_neighbor", value))
    return rows


def run_graph(dim=20, trials=100, seed=7):
    """Graph-subspace oracles plus joint gap convergence of graphs and operators."""
    dim, trials = require_integer(dim, "dim", 2), require_integer(trials, "trials", 1)
    rng = gallery.generator(seed)
    worst_proj = worst_lagr = worst_susp = 0.0
    worst_kernel = 0
    for _ in range(trials):
        n = int(rng.integers(2, dim + 1))
        zeros = int(rng.integers(0, min(3, n)))
        spectrum = np.concatenate(
            [np.zeros(zeros), rng.uniform(0.5, 4.0, n - zeros) * rng.choice([-1, 1], n - zeros)]
        )
        a = gallery.random_with_spectrum(spectrum, seed=int(rng.integers(1 << 30)))
        s = lagrangian.graph_subspace(a)
        p = linalg.projection_from_basis(s)
        worst_proj = max(
            worst_proj, linalg.operator_norm(p - lagrangian.graph_projection_formula(a))
        )
        doubling = lagrangian.SymplecticDoubling(n)
        worst_lagr = max(worst_lagr, lagrangian.lagrangian_residual(s, doubling))
        meet, _ = linalg.subspace_meet_dims(doubling.horizontal(), s)
        worst_kernel = max(worst_kernel, abs(meet - zeros))
        w = lagrangian.suspension(rng.standard_normal((n, n))).spectrum
        worst_susp = max(worst_susp, float(np.max(np.abs(w + w[::-1]))))

    rows = [
        ReportRow("graph", "suite", str(trials), "qr_vs_blockformula_max", worst_proj, 0.0, 1e-10),
        ReportRow("graph", "suite", str(trials), "lagrangian_residual_max", worst_lagr, 0.0, 1e-10),
        ReportRow(
            "graph", "suite", str(trials), "kernel_dim_mismatch_max", float(worst_kernel), 0.0, 0.0
        ),
        ReportRow(
            "graph", "suite", str(trials), "suspension_symmetry_max", worst_susp, 0.0, 1e-10
        ),
    ]

    threshold = 1e-3
    agree = True
    for n in (1, 2, 4, 8, 16):
        a_n = fuglede_operator(FugledeSpec(n, 4 * n))
        a_0 = fuglede_operator(FugledeSpec(0, 4 * n))
        delta, gamma = lagrangian.kato_consistency(a_n, a_0)
        agree = agree and ((delta < threshold) == (gamma < threshold))
        # the graph distance of selfadjoint operators is one resolvent branch
        branch = fuglede_expected(n).resolvent_branch
        rows.append(ReportRow("graph", f"n={n}", str(n), "delta_graphs", delta, branch, 1e-8))
        rows.append(ReportRow("graph", f"n={n}", str(n), "gamma", gamma, 2.0 * branch, 1e-8))
    rows.append(
        ReportRow("graph", "kato", "1e-3", "joint_below_threshold_match", float(agree), 1.0, 0.0)
    )
    return rows


def run_perturb(dim=20, steps=10, seed=7):
    """Riesz distance along a schedule of shrinking relatively bounded perturbations."""
    dim, steps = require_integer(dim, "dim", 1), require_integer(steps, "steps", 1)
    base = gallery.random_selfadjoint(dim, seed=seed, spectrum_range=(-5.0, 5.0))
    schedule = [0.5**n for n in range(1, steps + 1)]
    family = gallery.perturbation_family(base, seed=seed + 1, schedule=schedule)
    rhos = [
        topology.riesz_metric(family.perturbed(k), base) for k in range(len(schedule))
    ]
    rows = [
        ReportRow("perturb", f"n={n}", repr(c), "rho", rho)
        for n, (c, rho) in enumerate(zip(schedule, rhos), start=1)
    ]
    decreasing = all(a > b for a, b in zip(rhos, rhos[1:]))
    rows.append(
        ReportRow("perturb", "trend", str(steps), "rho_strictly_decreasing", float(decreasing), 1.0, 0.0)
    )
    rows.append(ReportRow("perturb", "final", str(steps), "rho_final", rhos[-1], 0.0, 1e-3))
    return rows


def run_identities(trials=100, seed=7):
    """Resolvent identities of the bounded transform over random operators."""
    trials = require_integer(trials, "trials", 1)
    rng = gallery.generator(seed)
    worst_plus = worst_minus = worst_inv = worst_eigs = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 51))
        a = gallery.random_selfadjoint(
            n, seed=int(rng.integers(1 << 30)), spectrum_range=(-8.0, 8.0)
        )
        psi = topology.riesz_map(a)
        f = a.apply(lambda lam: 1.0 / np.sqrt(1.0 + lam * lam))
        f2 = a.apply(lambda lam: 1.0 / (1.0 + lam * lam))
        plus, minus = topology.resolvents_at_i(a)
        worst_plus = max(worst_plus, linalg.operator_norm(plus - (f @ psi - 1j * f2)))
        worst_minus = max(worst_minus, linalg.operator_norm(minus - (-f @ psi - 1j * f2)))
        worst_inv = max(
            worst_inv, linalg.operator_norm(f2 - (np.eye(n) - psi @ psi))
        )
        psi_eigs = np.sort(topology.SelfAdjointOperator(psi).spectrum)
        mapped = np.sort(topology.bounded_transform_scalar(a.decomposition.eigenvalues))
        worst_eigs = max(worst_eigs, float(np.max(np.abs(psi_eigs - mapped))))
    label = "suite"
    return [
        ReportRow("identities", label, str(trials), "resolvent_plus_identity_max", worst_plus, 0.0, 1e-10),
        ReportRow("identities", label, str(trials), "resolvent_minus_identity_max", worst_minus, 0.0, 1e-10),
        ReportRow("identities", label, str(trials), "inverse_square_identity_max", worst_inv, 0.0, 1e-10),
        ReportRow("identities", label, str(trials), "riesz_eigenvalue_map_max", worst_eigs, 0.0, 1e-12),
    ]


def _int_tuple(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}") from None


def _build_parser():
    """The ``fredlab`` parser.  Each experiment's flags are named after the
    keywords of its ``run_*`` function and have no default, so an omitted
    flag takes the run's own default."""
    parser = argparse.ArgumentParser(
        prog="fredlab",
        description="Operator-topology experiments: metric comparisons, graph "
        "subspaces and boundary-value families at desk scale.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument(
        "--strict", action="store_true", help="exit 1 if any row violates its tolerance"
    )

    sub = parser.add_subparsers(required=True)

    def experiment(name, run, summary):
        p = sub.add_parser(name, parents=[common], help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        return p

    p = experiment("fuglede", run_fuglede, "gap vs Riesz on the flipped family")
    p.add_argument("--n-list", type=_int_tuple)
    p.add_argument("--dim-factor", type=int)

    p = experiment("floer", run_floer, "boundary value family experiments")
    p.add_argument("--grid", dest="grid_m", metavar="GRID", type=int)
    p.add_argument("--s-count", type=int)
    p.add_argument(
        "--a", dest="a_spec", metavar="A", help="coefficient: 0, const:p,q or samples:PATH"
    )

    p = experiment("graph", run_graph, "graph-subspace oracle suite")
    p.add_argument("--dim", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = experiment("perturb", run_perturb, "relative-bound perturbation trend")
    p.add_argument("--dim", type=int)
    p.add_argument(
        "--trials", dest="steps", metavar="TRIALS", type=int, help="number of schedule steps"
    )
    p.add_argument("--seed", type=int)

    p = experiment("identities", run_identities, "bounded-transform identity suite")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    return parser


def main(argv=None):
    flags = vars(_build_parser().parse_args(argv))
    run, fmt, out, strict = (flags.pop(k) for k in ("run", "format", "out", "strict"))
    try:
        rows = run(**flags)
        text = report_to_csv(rows) if fmt == "csv" else report_to_json(rows)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (FredlabError, ValueError, OSError) as exc:
        print(f"fredlab: {exc}", file=sys.stderr)
        return 2

    bad = violations(rows)
    if bad and strict:
        for r in bad:
            print(
                f"fredlab: tolerance violation {r.metric} ({r.label}): "
                f"|{r.value!r} - {r.expected!r}| > {r.tol!r}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
