"""``python -m grappa``: the same command line as the ``grappa`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
