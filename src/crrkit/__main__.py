"""``python -m crrkit ...``: the same command line as the ``crrkit`` script."""

import sys

from .cli import main

sys.exit(main())
