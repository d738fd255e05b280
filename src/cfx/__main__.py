"""``python -m cfx``: the command-line front end, as the ``cfx`` script."""

import sys

from .cli import main

sys.exit(main())
