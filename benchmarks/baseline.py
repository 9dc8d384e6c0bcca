#!/usr/bin/env python
"""Benchmark baseline harness — record and check ``BENCH_<name>.json``.

Thin entry point over :mod:`repro.experiments.bench`; the same driver backs
``repro bench``.  Typical flows (run from the repo root with
``PYTHONPATH=src``):

Refresh the committed baselines after an intentional behaviour change::

    PYTHONPATH=src python benchmarks/baseline.py --write-baselines

Check this machine's run against the committed baselines and evaluate every
scenario's invariants (exits non-zero on artefact drift or a broken
invariant; timing drift outside the tolerance band only warns)::

    PYTHONPATH=src python benchmarks/baseline.py --check --parallel 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.bench import (  # noqa: E402
    add_bench_arguments,
    run_bench_command,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/baseline.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
