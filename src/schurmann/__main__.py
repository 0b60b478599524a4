"""``python -m schurmann``: the command line of `schurmann.cli`."""

import sys

from .cli import main

sys.exit(main())
