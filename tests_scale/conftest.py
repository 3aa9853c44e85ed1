"""The scale checks draw on the corpus and helpers of ``tests/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
