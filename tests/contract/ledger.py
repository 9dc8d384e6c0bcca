"""The contract ledger: which ``def``s of ``src/repro`` the contract runs enter.

The contract runs are what the repository promises to reproduce: ``repro
bench --check`` (serial: every scenario against its committed baseline and
its invariants), the eight examples, and the CLI commands in
:data:`COMMANDS`.  Run as a script, this module installs a
``sys.setprofile`` hook *before* ``repro`` is imported (so import-time calls
count too), drives every run in this one process, and writes the reached
``def``s, one ``module:qualname`` a line::

    PYTHONPATH=src python tests/contract/ledger.py --out reached.txt

``sys.setprofile`` rather than ``sys.monitoring`` (absent on Python 3.10) or
``coverage`` (not a dependency).  Lambdas and comprehensions are not
``def``s and are not counted.  ``tests/contract/test_reachability.py``
compares the output with :func:`defs` and the allow-list next to this file.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"

# CLI argument vectors; "{dir}" is a scratch directory for their files.
COMMANDS: tuple[tuple[str, ...], ...] = (
    ("bench", "--check"),
    ("list",),
    ("all",),
    ("obs", "report", "--export", "{dir}/telemetry.jsonl"),
    ("obs", "report", "--scenario", "quickstart"),
    ("obs", "report", "--input", "{dir}/telemetry.jsonl"),
    ("plan", "--validate", "--apply", "--export", "{dir}/plan.json"),
    ("chaos",),
    ("storm", "--seed", "0"),
    ("zoo", "--records", "{dir}/zoo.jsonl"),
    ("forecast", "--export", "{dir}/forecast.json",
     "--records", "{dir}/forecast.jsonl"),
)


def _qualnames(tree: ast.Module):
    """``(first line, qualname, node)`` of every ``def`` in ``tree``.

    The first line is the first decorator's, as in ``co_firstlineno``;
    qualnames follow ``__qualname__`` (``Outer.method``,
    ``func.<locals>.inner``)."""
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield first, name, child
                stack.append((child, name + ".<locals>."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))


def _abstract(node: ast.FunctionDef) -> bool:
    """A declaration without a body of its own: after an optional docstring,
    only ``raise NotImplementedError`` (an abstract method) or ``...`` (a
    ``Protocol`` member)."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:] or body
    if len(body) != 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Expr):
        return isinstance(statement.value, ast.Constant) and statement.value.value is Ellipsis
    if not isinstance(statement, ast.Raise):
        return False
    exc = statement.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def defs() -> dict[tuple[str, int], tuple[str, bool]]:
    """Every ``def`` under ``src/``: ``(path, first line)`` to
    ``(module:qualname, abstract)``."""
    table = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        module = ".".join(relative.with_suffix("").parts).removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        for first, name, node in _qualnames(tree):
            table[str(relative), first] = (f"{module}:{name}", _abstract(node))
    return table


def run_contract(workdir: Path) -> set[str]:
    """Drive every contract run under a profile hook; the reached defs."""
    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        # A c_call's frame is its caller's, entered already: no filter needed.
        add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(hook)
    try:
        from repro.cli import main

        for argv in COMMANDS:
            argv = [arg.format(dir=workdir) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
            if status:
                raise SystemExit(f"repro {' '.join(argv)} exited {status}")
        for example in sorted(EXAMPLES.glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.setprofile(None)

    table = defs()
    reached = set()
    for code in codes:
        path = Path(code.co_filename)
        if path.is_relative_to(SRC):
            entry = table.get((str(path.relative_to(SRC)), code.co_firstlineno))
            if entry is not None:
                reached.add(entry[0])
    return reached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="write the reached defs here, one a line")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as workdir:
        reached = run_contract(Path(workdir))
    args.out.write_text("".join(f"{name}\n" for name in sorted(reached)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
