"""``python -m repro`` — the experiment runner CLI."""

import sys

from repro.errors import ReproError
from repro.eval.runner import main

if __name__ == "__main__":
    # ``main`` itself keeps raising for library callers; only the shell
    # gets a typed error as one line and an exit code instead of a traceback.
    try:
        sys.exit(main())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
