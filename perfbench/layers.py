"""Per-layer metrics of fredlab, derived from the spans of one traced run.

Layers are the modules of ``src/fredlab``; a metric is named
``<module>.<function>.<stat>``.  All counters are taken from outside the
library: arguments and results of traced calls, and probes on the numpy and
scipy eigensolvers that the library calls.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

import fredlab
from fredlab import cli, floer, gallery, lagrangian, linalg, topology

from tracer import Tracer, children_of, public_functions, self_times

TRACED_MODULES = (linalg, topology, gallery, lagrangian, floer, cli)

#: Scalar callbacks run once per eigenvalue inside ``apply_scalar_function``;
#: a span per call would multiply the span count by the matrix size.
EXCLUDED = frozenset({"topology.bounded_transform_scalar"})

#: Matrix dimension above which ``floer_spectrum`` is meant to avoid a dense
#: eigensolve (the library's dense cutoff at the commit that defined this
#: benchmark).  Kept here so that "fallback" means the same on every commit.
DENSE_CUTOFF = 200

#: Metric prefix -> traced function.
LAYERS = {
    "floer.assemble": "floer.assemble_floer_operator",
    "floer.spectrum": "floer.floer_spectrum",
    "floer.shooting": "floer.shooting_eigenvalues",
    "floer.spectral_flow": "floer.spectral_flow",
    "floer.mass_normalized": "floer.mass_normalized",
    "topology.gap_metric": "topology.gap_metric",
    "topology.riesz_metric": "topology.riesz_metric",
    "topology.generator_distance_profile": "topology.generator_distance_profile",
    "lagrangian.kato_consistency": "lagrangian.kato_consistency",
    "lagrangian.graph_subspace": "lagrangian.graph_subspace",
    "lagrangian.graph_projection_formula": "lagrangian.graph_projection_formula",
    "linalg.sym_eig": "linalg.sym_eig",
    "linalg.operator_norm": "linalg.operator_norm",
    "linalg.apply_scalar_function": "linalg.apply_scalar_function",
    "gallery.random_selfadjoint": "gallery.random_selfadjoint",
    "gallery.random_with_spectrum": "gallery.random_with_spectrum",
}

#: Stats reported per layer, beyond ``calls`` and ``self_s``.
EXTRA_STATS = {
    "floer.assemble": ("bytes_out",),
    "floer.spectrum": (
        "p50_ms", "p90_ms", "arpack_calls", "dense_fallbacks", "arpack_ok_ratio",
    ),
    "floer.shooting": ("roots",),
    "floer.spectral_flow": ("margin_max",),
    "linalg.sym_eig": ("work_n3",),
    "linalg.operator_norm": ("work_n3",),
}

#: Layers reported without a call count.
NO_CALLS = frozenset(
    {"gallery.random_selfadjoint", "gallery.random_with_spectrum", "floer.spectral_flow"}
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes_out": "bytes",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "arpack_calls": "count",
    "dense_fallbacks": "count",
    "arpack_ok_ratio": "ratio",
    "roots": "count",
    "margin_max": "ratio",
    "work_n3": "n3",
    "overhead_s": "s",
}


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for prefix in LAYERS:
        stats = () if prefix in NO_CALLS else ("calls",)
        stats = (*stats, "self_s", *EXTRA_STATS.get(prefix, ()))
        names.extend(f"{prefix}.{stat}" for stat in stats)
    names.append("trace.overhead_s")
    return names


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[-1]]


def _nbytes(obj, depth=3):
    # arrays held directly or one or two attributes down (dataclass fields,
    # the data/index arrays of a scipy.sparse matrix)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_nbytes(x, depth - 1) for x in items)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _work_n3(args, kwargs, result):
    shape = np.shape(_first_arg(args, kwargs))
    if len(shape) != 2:
        return 0
    m, n = shape
    return m * n * min(m, n)


CAPTURE = {
    "floer.assemble_floer_operator": lambda args, kwargs, result: _nbytes(result),
    "floer.floer_spectrum": lambda args, kwargs, result: (
        _first_arg(args, kwargs).dim,
        np.array(result, dtype=float),
    ),
    "floer.shooting_eigenvalues": lambda args, kwargs, result: len(result),
    "linalg.sym_eig": _work_n3,
    "linalg.operator_norm": _work_n3,
}


def _dense_note(args, kwargs):
    return ("dense", np.shape(_first_arg(args, kwargs))[0])


def _arpack_note(args, kwargs):
    return ("arpack", _first_arg(args, kwargs).shape[0])


def make_tracer():
    """A tracer over every public function of the traced modules, not installed."""
    targets = {}
    for module in TRACED_MODULES:
        targets.update(public_functions(module, EXCLUDED))
    probes = [
        (scipy.sparse.linalg, "eigsh", _arpack_note),
        (np.linalg, "eigh", _dense_note),
        (np.linalg, "eigvalsh", _dense_note),
        (scipy.linalg, "eigh", _dense_note),
        (scipy.linalg, "eigvalsh", _dense_note),
    ]
    return Tracer(targets, fredlab.__name__, capture=CAPTURE, probes=probes)


def flow_margin(windows):
    """Largest ratio of eigenvalue motion to half the minimum window gap.

    Mirrors the alignment rule of ``floer.spectral_flow``: consecutive
    windows are matched at the offset (0, -1 or +1) of least motion.  A value
    at or above 1 is a sweep the library rejects as sampled too coarsely.
    """
    worst = 0.0
    for prev, nxt in zip(windows, windows[1:]):
        motions = []
        for offset in (0, -1, 1):
            pairs = [
                abs(nxt[i + offset] - prev[i])
                for i in range(len(prev))
                if 0 <= i + offset < len(nxt)
            ]
            if pairs:
                motions.append(max(pairs))
        gaps = np.diff(prev)
        if motions and gaps.size:
            worst = max(worst, min(motions) / (0.5 * float(np.min(gaps))))
    return worst


def _subtree_events(kids, spans, i):
    out, todo = [], [i]
    while todo:
        j = todo.pop()
        out.extend(spans[j].events)
        todo.extend(kids[j])
    return out


def layer_metrics(spans):
    """Per-layer values of one traced run, keyed like :func:`metric_names`."""
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    out = {}
    for prefix, fn_name in LAYERS.items():
        idx = by_name.get(fn_name, [])
        if prefix not in NO_CALLS:
            out[f"{prefix}.calls"] = len(idx)
        out[f"{prefix}.self_s"] = float(sum(selfs[i] for i in idx))

    def captured(prefix):
        # a call that raised captured nothing
        idx = by_name.get(LAYERS[prefix], [])
        return [spans[i].info for i in idx if spans[i].info is not None]

    out["floer.assemble.bytes_out"] = sum(captured("floer.assemble"))

    spectrum = [i for i in by_name.get(LAYERS["floer.spectrum"], []) if spans[i].info is not None]
    ms = [1e3 * spans[i].duration for i in spectrum]
    out["floer.spectrum.p50_ms"] = float(np.percentile(ms, 50)) if ms else 0.0
    out["floer.spectrum.p90_ms"] = float(np.percentile(ms, 90)) if ms else 0.0
    arpack = fallbacks = attempts = arpack_used = 0
    for i in spectrum:
        dim = spans[i].info[0]
        events = _subtree_events(kids, spans, i)
        ran_arpack = sum(1 for kind, _ in events if kind == "arpack")
        full_dense = any(kind == "dense" and n == dim for kind, n in events)
        arpack += ran_arpack
        attempts += ran_arpack > 0
        arpack_used += ran_arpack > 0 and not full_dense
        fallbacks += dim > DENSE_CUTOFF and full_dense
    out["floer.spectrum.arpack_calls"] = arpack
    out["floer.spectrum.dense_fallbacks"] = fallbacks
    # no ARPACK attempt wastes nothing: the ratio is 1 on the dense path
    out["floer.spectrum.arpack_ok_ratio"] = arpack_used / attempts if attempts else 1.0

    out["floer.shooting.roots"] = sum(captured("floer.shooting"))

    margin = 0.0
    for i in by_name.get(LAYERS["floer.spectral_flow"], []):
        windows = [
            spans[j].info[1]
            for j in kids[i]
            if spans[j].name == LAYERS["floer.spectrum"] and spans[j].info is not None
        ]
        margin = max(margin, flow_margin(windows))
    out["floer.spectral_flow.margin_max"] = margin

    for prefix in ("linalg.sym_eig", "linalg.operator_norm"):
        out[f"{prefix}.work_n3"] = sum(captured(prefix))
    return out


def root_total(spans):
    """Summed duration of the top-level spans, which equals the summed self times."""
    return float(sum(span.duration for span in spans if span.parent is None))
