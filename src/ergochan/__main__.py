"""``python -m ergochan``: the command-line interface of :mod:`ergochan.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
