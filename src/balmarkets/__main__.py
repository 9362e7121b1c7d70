"""``python -m balmarkets``: the command line, without the console script."""

import sys

from .scenario_cli import main

if __name__ == "__main__":
    sys.exit(main())
