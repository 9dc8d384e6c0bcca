"""Puts ``tests/`` on ``sys.path`` so every suite can import ``oracles``:
the slow reference implementations that fast paths in ``src/`` are checked
against, and that are not product code.  Also the one fixture two suites
share, ``kernel_calls``, and the rule that ``ledger`` tests run only when a
``-m`` expression names them."""

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


def pytest_collection_modifyitems(config, items):
    if "ledger" in config.getoption("markexpr"):
        return
    ledger = [item for item in items if item.get_closest_marker("ledger")]
    if ledger:
        config.hook.pytest_deselected(items=ledger)
        items[:] = [item for item in items if not item.get_closest_marker("ledger")]
