"""The repository tools: the code-line counter and the pair summary and verdicts of the benchmark runner."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

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


def synthetic_pairs():
    walls = [(1.0, 0.6), (0.8, 0.7), (0.9, 0.9), (1.2, 0.5), (0.7, 0.8)]  # (parent, change) per pair
    rss = [(30.0, 31.0)] * 5
    return [{"pair": i, "first": "parent" if i % 2 == 0 else "change",
             "parent": {"failed": 0, "attempted": 20, "wall_s": p, "peak_rss_mb": rss[i][0], "rate": 2.0},
             "change": {"failed": i == 4, "attempted": 21, "wall_s": c, "peak_rss_mb": rss[i][1], "rate": 2.0 + i}}
            for i, (p, c) in enumerate(walls)]


def test_bench_summary_quartiles_and_wins():
    summary = bench_pairs.summarize(synthetic_pairs(), {"wall_s": "lower", "peak_rss_mb": "lower", "rate": "higher"})
    # parent walls sorted 0.7 0.8 0.9 1.0 1.2; inclusive quartiles sit at positions 1, 2 and 3 (0-based)
    assert summary["parent"]["wall_s"] == {"median": 0.9, "q1": 0.8, "q3": 1.0}
    assert summary["change"]["wall_s"] == {"median": 0.7, "q1": 0.6, "q3": 0.8}
    # the 0.9 / 0.9 tie and the equal rates of pair 0 count for neither side
    assert summary["change_wins"] == {"wall_s": 3, "peak_rss_mb": 0, "rate": 4}
    assert summary["parent_wins"] == {"wall_s": 1, "peak_rss_mb": 5, "rate": 0}
    assert summary["parent"]["failed"] == 0 and summary["change"]["failed"] == 1
    assert summary["n_pairs"] == 5


def test_bench_quartiles_interpolate_and_accept_one_pair():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def verdicts_of(pairs, **bounds):
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "rate": "higher"}
    metrics = [{"name": name, "better": better[name], "bound": bound} for name, bound in bounds.items()]
    return bench_pairs.verdicts(pairs, bench_pairs.summarize(pairs, better), metrics)


def test_bench_verdicts_against_relative_bounds():
    pairs = synthetic_pairs()
    # parent walls: median 0.9, interquartile range 0.2 (0.22 of the median); rss 30 -> 31 MB (+3.3%); rates 2 -> 4
    assert verdicts_of(pairs, wall_s=0.25, peak_rss_mb=0.1, rate=0.1) == \
        {"wall_s": "ok", "peak_rss_mb": "ok", "rate": "ok"}
    assert verdicts_of(pairs, wall_s=0.2, peak_rss_mb=0.03, rate=0.1) == \
        {"wall_s": "unresolved", "peak_rss_mb": "worse", "rate": "ok"}
    for pair in pairs:
        pair["change"]["wall_s"] = 0.65  # beats every parent run: the parent's spread no longer leaves it open
        pair["change"]["rate"] = 1.7  # 15% below the parent's 2.0, and higher is better
    assert verdicts_of(pairs, wall_s=0.2, rate=0.1) == {"wall_s": "ok", "rate": "worse"}
    assert verdicts_of(pairs, rate=0.2) == {"rate": "ok"}
