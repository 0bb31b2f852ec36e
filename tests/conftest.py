"""Make the tests directory importable (shared helpers module)."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

#: ``pytest tests/test_records.py --hypothesis-profile=wide``: the
#: run-once wide search of the loader fuzz properties (tier-1 runs a
#: derandomised sample; every other property test sets its own count).
settings.register_profile("wide", max_examples=2500, deadline=None)
