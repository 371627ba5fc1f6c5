"""``python3 -m nilquiver``: the command-line interface of ``nilquiver.cli``."""

import sys

from .cli import main

sys.exit(main())
