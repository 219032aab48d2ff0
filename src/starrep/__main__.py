"""`python -m starrep`: the starrep command line, run as the console script runs it."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
