"""List the library statements that no test runs.

Run from the root of a checkout, with any extra pytest arguments:

    PYTHONPATH=src python bench/untested_lines.py

The tier-1 suite runs in this process under ``sys.settrace``, which records
the lines executed in the files of ``src/noonsim`` (matched by resolved
path, so the package must be imported from this checkout).  Every statement
that never ran is printed as ``path:line: statement``.  Docstrings and
``def``, ``class`` and import lines are skipped: they run at import time,
not in a test.  Code run only in subprocesses, such as the ``__main__``
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


def statements(path: Path) -> dict[int, str]:
    """First line number -> source line of every statement a test can run."""
    source = path.read_text()
    lines = source.splitlines()
    found = {}
    for node in ast.walk(ast.parse(source)):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, SKIP) and not docstring:
            found[node.lineno] = lines[node.lineno - 1].strip()
    return found


def main(argv: list[str]) -> int:
    ran: dict[Path, set[int]] = {path: set() for path in FILES}
    resolved: dict[str, Path | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = Path(name).resolve()
            resolved[name] = path if path in FILES else None
        if resolved[name] is None:
            return None
        hits = ran[resolved[name]]

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    for path in sorted(FILES):
        for line, text in sorted(statements(path).items()):
            if line not in ran[path]:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
