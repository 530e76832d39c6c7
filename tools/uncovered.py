#!/usr/bin/env python3
"""List the lines of the anderloc package that no test reaches.

Runs pytest in this process under a ``sys.settrace`` line trace restricted
to the files below ``src/anderloc`` (threads included), then prints, per
module, each executable line that no test reached: a line is executable
when the compiled module, or a code object nested in it, holds bytecode for
it.  Lines that run only in a subprocess, such as ``python -m
anderloc.cli``, are not traced and show as unreached.

Usage: python tools/uncovered.py [PYTEST_ARGS ...]

Run from the root of the repository.  Without arguments the tests run as
tier-1 runs them (``-q --continue-on-collection-errors``); any arguments
replace those, e.g. ``tests/test_config_cli.py -q``.  Prints
``<module>: <k> of <n> executable lines unreached`` followed by
``<line>  <source>`` for each such line, then the total.  Exits with
pytest's status.  Standard library only, besides pytest itself.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path
from typing import Any, Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anderloc"
TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(source: str, filename: str = "<module>") -> set[int]:
    """Line numbers that hold bytecode in the compiled module or any code object nested in it."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace_lines(root: Path, run: Callable[[], Any]) -> tuple[Any, dict[str, set[int]]]:
    """``run()`` under a line trace of the code in files below ``root``: its result and the lines reached per file.

    Files are keyed by their resolved path.  Each file gets one line tracer
    and a table of its executable lines when its code is first called, so
    the trace allocates no memory while a test runs code it has seen (tests
    that measure allocations with tracemalloc read the same peaks).  The
    tracers that were set before are restored afterwards.
    """
    prefix = str(root.resolve()) + os.sep
    tracers: dict[str, Callable | None] = {}  # co_filename -> its line tracer, None outside root
    hits: dict[str, dict[int, bool]] = {}  # resolved path -> executable line -> reached

    def tracer_for(filename: str) -> Callable | None:
        resolved = os.path.realpath(filename)
        if not resolved.startswith(prefix):
            return None
        table = hits[resolved] = dict.fromkeys(executable_lines(Path(resolved).read_text(encoding="utf-8"),
                                                                resolved), False)

        def line(frame: types.FrameType, event: str, arg: Any):
            if event == "line":
                table[frame.f_lineno] = True
            return line

        return line

    def call(frame: types.FrameType, event: str, arg: Any):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return result, {path: {number for number, hit in table.items() if hit} for path, table in hits.items()}


def unreached(package: Path, reached: dict[str, set[int]]) -> dict[str, tuple[list[int], int]]:
    """Per module file name: the executable lines not in ``reached``, sorted, and the number of executable lines."""
    out = {}
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path.read_text(encoding="utf-8"), str(path))
        out[path.name] = (sorted(lines - reached.get(os.path.realpath(path), set())), len(lines))
    return out


def main(argv: list[str]) -> int:
    status, reached = trace_lines(PACKAGE, lambda: pytest.main(argv[1:] or TIER_1))
    missed = unreached(PACKAGE, reached)
    print()
    for name, (lines, n_lines) in missed.items():
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        print(f"{name}: {len(lines)} of {n_lines} executable lines unreached")
        for number in lines:
            print(f"{number:6d}  {source[number - 1].strip()}")
    print(f"total: {sum(len(lines) for lines, _ in missed.values())} of "
          f"{sum(n for _, n in missed.values())} executable lines unreached")
    print("lines that run only in a subprocess (python -m anderloc.cli) show as unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
