"""``python -m hcchar``: the same command line as the ``hcchar`` script."""

import sys

from .cli import main

sys.exit(main())
