"""Run the benchmark over several seeds and record the results with their spread.

From the root of a checkout::

    python3 perfbench/record_baseline.py --workloads metric-suite --seeds 1-10 \\
        --traced-seeds 1 --out perfbench/results/baseline.json

Each run is ``run.py`` as the benchmark command makes it, one after another.
For every metric the file keeps the values, their median and quartiles, and
the spread (q3 - q1) / median.  Entries of an existing file are replaced
workload by workload, and only if the file was recorded on the same machine
fingerprint: results from different fingerprints are never mixed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x]


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    fingerprint = json.loads(lines[0].split(":", 1)[1])
    return fingerprint, json.loads(lines[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--traced-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    record = None
    if args.out and args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    fingerprint = None
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, seed_list(args.seeds)), (1, seed_list(args.traced_seeds))):
            results = []
            for seed in seeds:
                fingerprint, result = one_run(workload, seed, seconds, trace)
                results.append(result)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            if not results:
                continue
            entry["traced" if trace else "untraced"] = {
                "seeds": seeds,
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": summarise(results),
            }
            for name, m in entry["traced" if trace else "untraced"]["metrics"].items():
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"{workload} trace={trace} {name}: median {m['median']:.6g} "
                      f"{m['unit']}, spread {spread} over {len(seeds)} runs", flush=True)
        if record is None:
            record = {"fingerprint": fingerprint, "run_seconds": seconds, "workloads": {}}
        elif record["fingerprint"] != fingerprint:
            print("refusing to mix results of different fingerprints", file=sys.stderr)
            return 1
        record["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
