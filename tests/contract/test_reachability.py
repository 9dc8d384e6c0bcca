"""The contract ledger, kept true: every ``def`` in ``src/`` is reached by a
contract run, or is on ``reachability_allow.txt`` with a reason.

Marker-gated (``pytest -m ledger``; the default run deselects it): one pass
drives the whole contract under a profile hook, several minutes of work.
See ``ledger.py`` for what the contract runs are and how a reached ``def``
is recorded.  Abstract declarations — a body that only raises
``NotImplementedError`` or is only ``...`` — are exempt by rule.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from contract.ledger import ROOT, SRC, defs

pytestmark = pytest.mark.ledger

ALLOW_LIST = Path(__file__).with_name("reachability_allow.txt")


def allow_list() -> dict[str, str]:
    """``module:qualname`` to its reason; comments and blank lines skipped."""
    entries = {}
    for number, line in enumerate(ALLOW_LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        entries[name.strip()] = reason.strip()
        assert reason.strip(), f"{ALLOW_LIST.name}:{number}: {name.strip()} has no reason"
    return entries


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[str]:
    out = tmp_path_factory.mktemp("ledger") / "reached.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("ledger.py")), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, f"contract run failed:\n{run.stdout[-3000:]}\n{run.stderr[-3000:]}"
    return set(out.read_text().split())


@pytest.fixture(scope="module")
def concrete() -> set[str]:
    return {name for name, abstract in defs().values() if not abstract}


def test_every_unreached_def_is_allow_listed(reached, concrete):
    unreached = sorted(concrete - reached - set(allow_list()))
    assert not unreached, (
        "defs no contract run reaches: delete them, move them to tests/, or "
        "allow-list them with a reason:\n  " + "\n  ".join(unreached)
    )


def test_no_allow_listed_def_is_reached(reached):
    stale = sorted(set(allow_list()) & reached)
    assert not stale, "allow-listed but reached; drop from the list:\n  " + "\n  ".join(stale)


def test_every_allow_listed_def_exists(concrete):
    gone = sorted(set(allow_list()) - concrete)
    assert not gone, "allow-listed but not a def in src/:\n  " + "\n  ".join(gone)
