"""List the library statements that no test runs, and the ``if`` outcomes that no test takes.

Run from the root of a checkout, with any extra pytest arguments:

    PYTHONPATH=src python bench/untested_lines.py

The tier-1 suite runs in this process under ``sys.settrace``, which records
the arcs from line to line, and from a line to the frame's return, executed
in the files of ``src/noonsim`` (matched by resolved path, so the package
must be imported from this checkout).  Every statement that never ran is
printed as ``path:line: statement``.  Docstrings and ``def``, ``class`` and
import lines are skipped: they run at import time, not in a test.  An ``if``
whose test ran is printed as ``path:line: statement (never true)`` when no
run entered its body, and as ``(never false)`` when no run left its test for
any other line.  Code run only in subprocesses, such as the ``__main__``
guard, is listed too.  The traced suite takes about twice as long as the
plain one.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = {path.resolve() for path in (ROOT / "src" / "noonsim").glob("*.py")}
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
#: Arc ends that are not lines: a frame's entry and its return.
ENTRY, RETURN = 0, -1


def statements(path: Path) -> tuple[dict[int, str], list[ast.If]]:
    """First line number -> source line of every statement a test can run, and the ``if`` statements."""
    source = path.read_text()
    lines = source.splitlines()
    found, branches = {}, []
    for node in ast.walk(ast.parse(source)):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, SKIP) and not docstring:
            found[node.lineno] = lines[node.lineno - 1].strip()
        if isinstance(node, ast.If):
            branches.append(node)
    return found, branches


def untaken(node: ast.If, arcs: set[tuple[int, int]]) -> str | None:
    """Which outcome of ``node`` no arc from its test takes, if its test ran."""
    test = range(node.lineno, node.test.end_lineno + 1)
    body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
    targets = {end for start, end in arcs if start in test}
    if not targets:
        return None
    if not any(end in body for end in targets):
        return "never true"
    if all(end in body or end in test for end in targets):
        return "never false"
    return None


def main(argv: list[str]) -> int:
    arcs: dict[Path, set[tuple[int, int]]] = {path: set() for path in FILES}
    resolved: dict[str, Path | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = Path(name).resolve()
            resolved[name] = path if path in FILES else None
        if resolved[name] is None:
            return None
        hits = arcs[resolved[name]]
        last = ENTRY

        def on_line(frame, event, arg):
            nonlocal last
            if event == "line":
                hits.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                hits.add((last, RETURN))
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    for path in sorted(FILES):
        ran = {end for _, end in arcs[path]}
        found, branches = statements(path)
        report = {line: text for line, text in found.items() if line not in ran}
        for node in branches:
            outcome = untaken(node, arcs[path])
            if outcome:
                report[node.lineno] = f"{found[node.lineno]} ({outcome})"
        for line, text in sorted(report.items()):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
