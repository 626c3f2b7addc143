"""``python -m varimix``: the ``varimix`` command line."""

import sys

from .cli import main

sys.exit(main())
