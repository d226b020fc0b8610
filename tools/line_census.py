#!/usr/bin/env python3
"""List the lines of src/rdbridge that a Python command never runs.

Runs the command in this process under ``sys.settrace`` (and
``threading.settrace``, for worker threads), recording line events in the
modules under src/rdbridge only.  It then prints, per module, the
executable lines that never ran: the line numbers that ``co_lines()``
reports for the module's compiled code objects, less those seen.  Child
processes (a test that runs the CLI in a subprocess, say) are not traced;
they find the package through PYTHONPATH.  So the body of a module's
``if __name__ == "__main__":`` block, which only such a process runs, is
not counted as executable.

The exit status is the command's exit code when that is nonzero, else 1
when some line never ran, else 0.

    python3 tools/line_census.py -m pytest -q
    python3 tools/line_census.py demos/uniform_atoms.py

src is put first on sys.path and on PYTHONPATH, so the package is the
one in this tree.  The census is printed once the command returns or
exits, before the interpreter tears down.
"""
from __future__ import annotations

import ast
import os
import runpy
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "rdbridge"


def code_lines(code: types.CodeType) -> set[int]:
    """Line numbers of the instructions of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def guarded(tree: ast.Module) -> set[int]:
    """Line numbers of the bodies of the module's top-level ``if __name__ == "__main__":`` blocks."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for statement in node.body:
                lines.update(range(statement.lineno, statement.end_lineno + 1))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run(argv: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run ``argv`` (``-m module args`` or ``script args``) traced.

    Returns the lines seen per file and the command's exit code.
    """
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    module = argv[0] == "-m"
    target = argv[1] if module else argv[0]
    sys.argv = argv[1:] if module else argv
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen, code


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1:2] == ["-m"] and len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    seen, code = run(sys.argv[1:])
    print(f"\nlines never run (exit code {code}):")
    never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        executable = code_lines(compile(text, str(path), "exec")) - guarded(ast.parse(text))
        missed = sorted(executable - seen.get(str(path), set()))
        never += len(missed)
        print(f"{path.name:<16}{len(missed):>5} of {len(executable):<5} {ranges(missed)}")
    return code or int(never > 0)


if __name__ == "__main__":
    sys.exit(main())
