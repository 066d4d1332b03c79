"""``python -m fredlab``: the command-line runner of :mod:`fredlab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
