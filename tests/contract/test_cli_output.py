"""The CLI's stdout and exported files, pinned by sha256.

Marker-gated (``pytest -m ledger``; the default run deselects it): each case
is one ``repro`` process, about 30 s in all.  A case runs its command with
the file options, drops the ``written:`` block those options append (only
its wording may change), and compares the rest of stdout — and each written
file — with the digest of the same command at the committed configuration.
A digest moves only when a command's behaviour or rendering moves on
purpose; refresh it in the same change that says why.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from contract.ledger import ROOT, SRC

pytestmark = pytest.mark.ledger

CASES = {
    "plan": (
        ["plan", "--validate", "--apply", "--export", "{dir}/plan.json"],
        "8bb5f0b2d99b1ebdd9272baf57c57420c5a3964c81de2f76fa64bbc80dba1d76",
        {"plan.json":
         "8dae3ba0a7d4c36585cd66c9b0984508ce9079e7b7006b47601914296e036757"},
    ),
    "chaos": (
        ["chaos"],
        "3ba21050d1ecc5a0dab1869ca461a03bafb61b60be67a9d57a7d57d7365c4d48",
        {},
    ),
    "storm": (
        ["storm", "--seed", "0"],
        "b1877a1d8dc3c98573c906eb42221b2b98cfb8c30c2041b540bbc757576eda82",
        {},
    ),
    "zoo": (
        ["zoo", "--records", "{dir}/zoo.jsonl"],
        "490b1624693d75a042f61ae6a26401027734429d089a25a895e73f0417afc6fd",
        {"zoo.jsonl":
         "a85aaf57137b3e14d41ded1460686bc273e12b7f99901a71b91737bd961cac71"},
    ),
    "forecast": (
        ["forecast", "--export", "{dir}/forecast.json",
         "--records", "{dir}/forecast.jsonl"],
        "1ce15f34138f3b6e3c1d6cb21b00e4410f9ce5986f159d9020b9f2f300e4c280",
        {"forecast.json":
         "bdeb774ff4537f05462682ae87e242e9dcc76371f6d268969caacab63fa266aa",
         "forecast.jsonl":
         "6a17a824f0d3995a870c634635b3739b8a0f939bf82ba05eb6e01a8673445d1e"},
    ),
    "all": (
        ["all"],
        "ad673eae1274b147c860bb6c5ee0d3cef3d5a7685a477f0eb7a0a3cbb10c8854",
        {},
    ),
}
"""Case → (argv, sha256 of stdout without the ``written:`` block, file →
sha256)."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_files_match_their_digests(case, tmp_path):
    argv, stdout_digest, files = CASES[case]
    argv = [arg.format(dir=tmp_path) for arg in argv]
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, check=True,
    )
    lines = run.stdout.decode("utf-8").splitlines(keepends=True)
    if files:
        # The file options append a blank line, then one line per file.
        written = lines[-len(files):]
        assert lines[-len(files) - 1] == "\n"
        assert all(" written: " in line for line in written)
        lines = lines[:-len(files) - 1]
    assert sha256("".join(lines).encode("utf-8")) == stdout_digest
    assert {name: sha256((tmp_path / name).read_bytes()) for name in files} == files
