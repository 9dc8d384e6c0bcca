#!/usr/bin/env python
"""Benchmark baseline harness — record and check ``BENCH_<name>.json``.

``repro bench`` run from a checkout: same driver
(:mod:`repro.experiments.bench`), same flags, no install needed.  Typical
flows (from the repo root):

Refresh the committed baselines after an intentional behaviour change::

    python benchmarks/baseline.py --write-baselines

Check this machine's run against the committed baselines and evaluate every
scenario's invariants (exits non-zero on artefact drift, on a broken
invariant and on a committed baseline no scenario owns; baselines hold no
timing, so there is nothing to warn about)::

    python benchmarks/baseline.py --check --parallel 4
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
