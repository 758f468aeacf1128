"""Self-tests of the benchmark; run with ``python -m pytest bench/tests -q``.

Tier-1's ``testpaths`` does not collect this directory, by design: the
benchmark is checked on its own and may take a minute.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
