"""List the statements of ``src/frobmat/`` that no test executes.

    python tests/unreached.py [pytest arguments]

Runs the test suite in this process, as ``python -m pytest`` from the
repository root would (any arguments are passed on to pytest), under a
``sys.settrace`` line tracer limited to the files of ``src/frobmat/``. Then
prints, per module, the first line of each statement that no test reached,
with its text. Docstrings, ``def``, ``class`` and ``import`` statements and
declarations that compile to no code are left out. A statement counts as
reached when any line of it, or of its header for a compound statement, ran.

It reports and does not gate: it exits 0 whatever the tests or the listing
say. pytest does not collect it, since its name does not start with
``test_``. The tracer is installed again before each test's setup and call,
because pytest or Hypothesis may replace it. What it cannot see is listed:

- children started with ``subprocess`` are not traced;
- the interpreter drops a trace function that raises, and at the recursion
  limit the tracer's own call raises ``RecursionError``, so the rest of that
  test's call is not traced (``fileio.group_from_spec``'s handler of that
  error is listed though a test reaches it).

Tracing slows the suite about fivefold (4 min 30 s against 58 s untraced on
a 2-core Xeon, CPython 3.11), so the tests with wall-clock budgets, such as
``test_circuit_families_above_the_pair_cap_exit_in_one_line[verify-linear-class]``,
may fail under it: ``test_recover_refuses_a_cycle_set_above_the_cap_before_building_any``
took 1.04 s on its 1 s budget in one of two runs. Such a failure says
nothing about the code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frobmat"
PREFIX = str(PACKAGE) + os.sep

reached: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    reached.setdefault(filename, set()).add(frame.f_lineno)
    return _local


def install() -> None:
    threading.settrace(_global)
    sys.settrace(_global)


class Retrace:
    """pytest plugin: put the tracer back before each setup and call."""

    def pytest_runtest_setup(self, item):
        install()

    def pytest_runtest_call(self, item):
        install()


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's own text: its header for a compound
    statement, all of it otherwise."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return body[0].lineno - 1
    return node.end_lineno


# statements left out: definitions and imports, and the declarations that
# compile to no code (``global``, ``nonlocal``, an annotation with no value)
SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal,
)


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement that executes as code."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            continue  # a docstring
        out.append((node.lineno, _header_end(node)))
    return sorted(out)


def unreached(path: Path) -> list[int]:
    ran = reached.get(str(path), set())
    return [
        first
        for first, last in statements(path.read_text())
        if not any(line in ran for line in range(first, last + 1))
    ]


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    install()
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv],
                    plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unreached(path)
        if not lines:
            continue
        total += len(lines)
        text = path.read_text().splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(lines)} unreached")
        for line in lines:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"\n{total} statements unreached")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
