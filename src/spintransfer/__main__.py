"""`python -m spintransfer`: the same entry point as the `spintransfer` script."""

import sys

from .cli import main

sys.exit(main())
