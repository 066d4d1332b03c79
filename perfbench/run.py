"""Outside-in benchmark of fredlab.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload floer-default --seed 1 --seconds 20 --trace 0

Each run starts fresh processes: a few that only import the library (to
time set-up) and one that runs the workload (``child.py``), with BLAS
threads capped at the number of usable cores.  The library is taken from
``src/`` of the checkout; nothing is installed.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median wall seconds
of the workload's calls), ``setup_s`` (median seconds from process start
until fredlab, numpy and scipy are imported), ``peak_rss_mb`` (the workload
process's peak resident set) and ``ok_ratio`` (passing iterations over
attempted ones; ``fail_ratio`` is printed beside it).  ``--trace 1`` prints
the per-layer metrics of ``layers.py`` and ``trace.overhead_s``, the traced
minus the untraced median ``run_s``.  The last line of standard output is one
JSON object; the lines before it are for people.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("floer-default", "floer-dense-sweep", "metric-suite")

#: Import-only processes per run; with the workload process, set-up is the
#: median of this many plus one.
SETUP_REPEATS = 6

#: Every process of one run ends within this many seconds.
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(args, env):
    """Start ``child.py`` and wait for its ``ready`` line: ``(process, set-up seconds)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError("child exited before the library was imported")
    return proc, setup


def finish(proc, timeout):
    """Remaining standard output of ``proc``; it is killed if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child overran the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fredlab" / "__init__.py").is_file():
        print(f"run.py: no fredlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            proc, setup = start_child(["--setup-only"], env)
            finish(proc, deadline - time.monotonic())
            setups.append(setup)
    proc, setup = start_child(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env,
    )
    setups.append(setup)
    report = json.loads(finish(proc, deadline - time.monotonic()).strip().splitlines()[-1])

    attempted, failed = report["attempted"], report["failed"]
    run_s = statistics.median(report["run_s"])
    q1, q3 = quartiles(report["run_s"])
    print("fingerprint:", json.dumps(report["fingerprint"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for problem in report["problems"]:
        print("problem:", problem)
    print(
        f"run_s: median {run_s:.4f} s, quartiles {q1:.4f}..{q3:.4f} s "
        f"over {len(report['run_s'])} passing iteration(s)"
    )
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        traced_s = statistics.median(report["traced_run_s"])
        metrics = dict(report["layers"])
        metrics["trace.overhead_s"] = metric(traced_s - run_s, "s")
        print(
            f"trace: traced run_s {traced_s:.4f} s, top-level spans {report['root_s']:.4f} s, "
            f"overhead {traced_s - run_s:.4f} s"
        )
    else:
        setup_s = statistics.median(setups)
        print(f"setup_s: median {setup_s:.4f} s over {len(setups)} set-ups")
        print(f"peak_rss_mb: {report['peak_rss_mb']:.1f} MB")
        metrics = {
            "run_s": metric(run_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
