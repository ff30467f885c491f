"""``python -m repro.service`` — the ``repro-serve`` entry point.

Conventions as in :mod:`repro.service.server`: times in seconds, cells
sized by node count and ranks per node.
"""

import sys

from repro.service.server import main

if __name__ == "__main__":
    sys.exit(main())
