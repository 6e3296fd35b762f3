"""Run the command-line front end: ``python -m outerkplanar ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
