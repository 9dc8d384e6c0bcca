"""Puts ``tests/`` on ``sys.path`` so every suite can import ``oracles``:
the slow reference implementations that fast paths in ``src/`` are checked
against, and that are not product code.  Also the one fixture two suites
share, ``kernel_calls``."""

import sys
from pathlib import Path

import pytest

import repro.core.mrc as mrc

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Lengths of the traces ``stack_distances`` is called on."""
    calls = []
    kernel = mrc.stack_distances

    def counting(trace):
        calls.append(len(trace))
        return kernel(trace)

    monkeypatch.setattr(mrc, "stack_distances", counting)
    return calls
