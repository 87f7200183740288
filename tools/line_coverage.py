"""Statement coverage of ``src/osscontrol`` by the tier-1 tests, with the stdlib only.

    python tools/line_coverage.py [PYTEST ARGS...]

Runs pytest in this process (by default on ``tests``, quietly) under a
``sys.settrace`` line tracer that records the lines executed in the package's
modules, then prints, per module, the statements reached out of all its
statements and the first line of each statement never reached.  Exits with
pytest's exit code.

A statement is a node of the module's syntax tree (``ast.stmt``): a simple
statement counts as reached when any of its lines ran, a compound one (``def``,
``if``, ``for``, ...) when a line of its header did.  Docstrings and
``global``/``nonlocal`` declarations run no code and are not counted, nor is
a ``try:`` line, which runs none either: its body is counted instead.  Code
that tests reach only in a subprocess (``cli.py``'s ``list``,
``__main__.py``) reads as unreached.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "osscontrol"


def statement_lines(source: str) -> dict[int, range]:
    """``{first line: lines that mark it reached}`` of every counted
    statement of a module's source."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal, ast.Try)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring, or a string standing alone
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[first] = range(first, last + 1)
    return out


def ranges(lines: list[int]) -> str:
    """``1-3, 7`` for [1, 2, 3, 7]."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_reached = total = 0
    print(f"{'module':<16}{'reached':>9}{'total':>7}{'%':>7}  unreached lines")
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statement_lines(path.read_text())
        ran = hits.get(str(path), set())
        missed = sorted(first for first, lines in stmts.items() if ran.isdisjoint(lines))
        reached = len(stmts) - len(missed)
        total_reached, total = total_reached + reached, total + len(stmts)
        print(f"{path.name:<16}{reached:>9}{len(stmts):>7}{100 * reached / max(len(stmts), 1):>7.1f}"
              f"  {ranges(missed)}")
    print(f"{'TOTAL':<16}{total_reached:>9}{total:>7}{100 * total_reached / max(total, 1):>7.1f}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
