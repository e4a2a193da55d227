"""List the statements of a source directory that no test runs.

Runs pytest in this process under `sys.settrace` and `threading.settrace`,
recording the lines that run in the `*.py` files under SOURCE and nowhere
else.  A statement is run when any line of it runs; for a compound
statement (`if`, `for`, `def`, ...) only its header lines count, and an
`except` clause counts as a statement of its own.  Docstrings, and
statements that compile to no traceable line (`global`, a bare `else:`),
are not listed.  Statements that run only in child processes, such as
the CLI under `python -m rscodec`, are listed too: the trace sees only
this process.  Stdlib only, besides pytest itself and `code_lines.py`
beside it, whose docstring rule it shares.

Run from the repository root, with the package importable:

    PYTHONPATH=src python scripts/line_trace.py [SOURCE] [-- PYTEST_ARG ...]

SOURCE defaults to src/rscodec and the pytest arguments to `-q`.  Prints
pytest's own output, then one `path:line: source` row per statement that
did not run, then their count; exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest
from code_lines import _docstring_lines


def _statements(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement and `except` clause,
    docstrings left out."""
    docstrings = _docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)) and node.lineno not in docstrings:
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return out


def _line_starts(code) -> set[int]:
    """The lines that can raise a line event in `code` and the code nested
    in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _line_starts(const)
    return lines


def not_run(source: Path, ran: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, line, text) of each statement under `source` none of whose
    traceable header lines is in `ran`, keyed by resolved path."""
    out = []
    for path in sorted(source.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        traceable = _line_starts(compile(text, str(path), "exec"))
        hit = ran.get(str(path.resolve()), set())
        for first, header in sorted(_statements(ast.parse(text))):
            own = traceable.intersection(header)
            if own and not own & hit:
                out.append((path, first, lines[first - 1].strip()))
    return out


def trace_pytest(source: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `pytest_args` under the trace; returns its exit code
    and the lines that ran in each file under `source`."""
    root = str(source.resolve())
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = str(Path(name).resolve()).startswith(root)
            if inside[name]:
                ran.setdefault(name, set())
        return local if inside[name] else None

    old, old_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)
    resolved: dict[str, set[int]] = {}
    for name, lines in ran.items():
        resolved.setdefault(str(Path(name).resolve()), set()).update(lines)
    return int(code), resolved


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    source = Path(argv[0] if split else "src/rscodec")
    code, ran = trace_pytest(source, argv[split + 1:] or ["-q"])
    missed = not_run(source, ran)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements not run")
    return code


if __name__ == "__main__":
    sys.exit(main())
