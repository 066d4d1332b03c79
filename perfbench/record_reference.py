"""Record the reference values of the informative report rows.

Run once, from the root of a checkout, at the commit whose outputs are the
reference::

    PYTHONPATH=src python3 perfbench/record_reference.py

It runs ``floer-default``, every coefficient of the ``floer-dense-sweep``
catalogue and ``metric-suite`` (whose informative rows do not depend on the
seed), and writes ``perfbench/reference.json``.  It records nothing if any
other part of the output check fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def main():
    entries = {}
    runs = [("floer-default", 0), ("metric-suite", 0)]
    runs += [("floer-dense-sweep", k) for k in range(len(workloads.DENSE_CATALOGUE))]
    with tempfile.TemporaryDirectory(dir=BENCH.parent, prefix=".perfbench-") as workdir:
        for name, seed in runs:
            run, key = workloads.build(name, seed, workdir)
            results = run()
            rows = workloads.informative_rows(results["rows"])
            problems = workloads.check(name, key, results, {key: rows})
            if problems:
                print(f"{key}: not recorded: {problems}", file=sys.stderr)
                return 1
            entries[key] = rows
            print(f"{key}: {len(rows)} rows", flush=True)
    payload = {"tolerance": workloads.REFERENCE_TOL, "entries": entries}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
