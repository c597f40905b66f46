"""Entry point: ``python3 benchmarks/e2e/run.py`` (see ``cli.py``).

Run as a script this file is not part of a package, so it puts the
checkout's root (for ``benchmarks.e2e``) and ``src`` (for ``repro``) on
the path and hands over.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
