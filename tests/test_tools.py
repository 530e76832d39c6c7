"""The repository tools: the code-line counter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SYNTHETIC = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a trailing comment


class Point:
    """Class docstring."""
    x = 1


def f(a,
      b):
    """Function docstring."""

    text = """a multi-line string
that is not a docstring"""
    return (a +
            b)
'''


def test_code_lines_counts_only_code():
    # counted: import, class, x = 1, both lines of def, both lines of text, both lines of return
    assert code_lines.code_lines(SYNTHETIC) == 9


def test_main_prints_every_module_and_a_total(capsys):
    package = ROOT / "src" / "anderloc"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert [line.split()[1] for line in lines] == sorted(p.name for p in package.glob("*.py")) + ["total"]
    assert counts[-1] == sum(counts[:-1]) > 0
