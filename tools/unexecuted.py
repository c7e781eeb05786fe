"""Print every statement of the ``candofsm`` package that tier-1 never runs.

Run it from the repository root::

    PYTHONPATH=src python3 tools/unexecuted.py

It runs ``tests/`` with ``pytest.main`` in this process and records, with
``sys.settrace`` and ``threading.settrace``, each line executed in
``src/candofsm``.  A statement counts as run when one of its lines ran: a
simple statement's lines, or a compound statement's header and decorators.
Docstrings, ``global`` and ``nonlocal`` compile to no code, and the body
of an ``if TYPE_CHECKING:`` never runs: these are left out.  What runs only in a subprocess, such as the CLI tests that start
``python -m candofsm``, is not seen.  Tracing makes the suite several
times slower.  The output is one ``path:line: source`` line per statement
never run, then their count; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "candofsm"
NO_CODE = (ast.Global, ast.Nonlocal)


def statement_lines(tree: ast.Module) -> dict[int, range]:
    """First line -> the lines whose execution shows it ran, per statement."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                skipped.add(first)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            skipped.update(n for stmt in node.body for n in ast.walk(stmt))
    lines = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skipped or isinstance(node, NO_CODE):
            continue
        start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        end = node.end_lineno
        body = getattr(node, "body", None)
        if body:
            end = max(node.lineno, body[0].lineno - 1)
        lines[node.lineno] = range(start, end + 1)
    return lines


def traced_run(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per package file, the lines it executed."""
    executed: dict[str, set[int]] = {}
    local_tracers: dict[str, object] = {}
    package = str(PACKAGE) + os.sep

    def local_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(package):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_tracers[filename]
        except KeyError:
            local = local_tracers[filename] = local_for(filename)
            return local

    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main() -> int:
    code, executed = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = executed.get(str(path.resolve()), set())
        text = source.splitlines()
        for lineno, span in sorted(statement_lines(ast.parse(source)).items()):
            if ran.isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
    print(f"{missed} statements never run")
    return code


if __name__ == "__main__":
    sys.exit(main())
