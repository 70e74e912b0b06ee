"""Self-tests of the repository benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/suite/tests -q``; they sit
outside the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1]
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))
