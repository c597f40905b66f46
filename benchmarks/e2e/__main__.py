"""``python -m benchmarks.e2e`` (with ``src`` on ``PYTHONPATH``)."""

import sys

from .cli import main

sys.exit(main())
