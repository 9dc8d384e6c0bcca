"""Puts ``tests/`` on ``sys.path`` so every suite can import ``oracles``:
the slow reference implementations that fast paths in ``src/`` are checked
against, and that are not product code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
