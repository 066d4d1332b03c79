"""Entry point of the fresh process that ``run.py`` starts for each run.

The library is imported first and ``ready`` is printed as soon as it is, so
the parent can time set-up.  With ``--setup-only`` the process stops there;
otherwise it measures the workload (see ``measure.py``) and prints one JSON
line for the parent.
"""

import sys

import numpy  # noqa: F401
import scipy  # noqa: F401

import fredlab  # noqa: F401
from fredlab import cli, floer, gallery, lagrangian, linalg, topology  # noqa: F401

print("ready", flush=True)

if __name__ == "__main__" and sys.argv[1:] != ["--setup-only"]:
    import measure

    sys.exit(measure.main())
