"""Entry point for python -m ialex."""

import sys

from ialex.cli import main

if __name__ == "__main__":
    sys.exit(main())
