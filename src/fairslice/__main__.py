"""Entry point for ``python -m fairslice``; the same command as ``fairslice``."""

import sys

from fairslice.cli import main

if __name__ == "__main__":
    sys.exit(main())
