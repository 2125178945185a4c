"""``python -m gmotzkin``: the ``gmotzkin`` command, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
