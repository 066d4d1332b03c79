"""Measured iterations of one workload, checked and summarised for ``run.py``.

Untraced, iterations are timed and nothing is wrapped.  Traced, one warm-up
iteration runs first, then untraced and traced iterations alternate, so the
tracing overhead is measured in the same process; the per-layer values come
from the traced ones.  An iteration fails
if it raises or if its output check finds a problem.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def fingerprint():
    """What a result depends on besides the code; results with different ones never compare."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed(run, tracer=None):
    """``(seconds, results, error)`` of one iteration; ``error`` is what it raised."""
    gc.collect()
    results = error = None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            results = run()
        except Exception as exc:  # a raising run is a failed run, not a crash
            error = exc
        elapsed = time.perf_counter() - start
    return elapsed, results, error


class Tally:
    """Attempts, failures and timings of one run.

    Timings are kept with a pass flag: failed iterations are left out of the
    timings unless none passed, and then the run reports ``correct: false``.
    """

    def __init__(self, name, key, reference):
        self.name, self.key, self.reference = name, key, reference
        self.attempted = self.failed = 0
        self.problems = []

    def attempt(self, run, tracer=None):
        """``(seconds, passed)`` of one timed and checked iteration."""
        self.attempted += 1
        elapsed, results, error = timed(run, tracer)
        if error is None:
            problems = workloads.check(self.name, self.key, results, self.reference)
        else:
            problems = [f"raised {type(error).__name__}: {error}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return elapsed, not problems


def passed_or_all(samples):
    """The values of passing iterations, or of all when none passed."""
    good = [value for value, passed in samples if passed]
    return good or [value for value, _ in samples]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        run, key = workloads.build(args.workload, args.seed, workdir)
        tally = Tally(args.workload, key, reference)
        untraced, traced, per_layer = [], [], []
        if args.trace:
            # first-call costs would otherwise land on the untraced side of
            # the first pair and make the measured overhead too small
            timed(run)
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            untraced.append(tally.attempt(run))
            if args.trace:
                tracer = layers.make_tracer()
                elapsed, passed = tally.attempt(run, tracer)
                traced.append((elapsed, passed))
                spans = tracer.spans
                per_layer.append(((layers.layer_metrics(spans), layers.root_total(spans)), passed))
            lap = time.perf_counter() - lap
            # stop before a further iteration would overrun the budget
            if time.perf_counter() - start + lap > args.seconds:
                break

    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "run_s": passed_or_all(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }
    if args.trace:
        out["traced_run_s"] = passed_or_all(traced)
        values = passed_or_all(per_layer)
        out["root_s"] = statistics.median(root for _, root in values)
        out["layers"] = {
            name: {
                "value": statistics.median(m[name] for m, _ in values),
                "unit": layers.unit_of(name),
            }
            for name in values[0][0]
        }
    print(json.dumps(out), flush=True)
    return 0
