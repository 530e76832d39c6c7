"""The repository tools: the code-line counter, the unreached-line lister, the benchmark runner's pair verdicts
and the output comparison."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from anderloc import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location("uncovered", ROOT / "tools" / "uncovered.py")
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

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


TWO_FUNCTIONS = '''"""A package of two functions, one of them never called."""


def used(x):
    """Docstring lines hold no bytecode."""
    if x > 0:
        return x + 1
    return 0


def unused(x):
    return x - 1
'''


def test_uncovered_lists_the_lines_no_call_reaches(tmp_path):
    package = tmp_path / "twofunctions"
    package.mkdir()
    (package / "__init__.py").write_text(TWO_FUNCTIONS)
    spec = importlib.util.spec_from_file_location("twofunctions", package / "__init__.py")

    def run():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.used(2)

    # the module docstring, both def lines, the if and the return of x + 1 run; the else return and unused's body do not
    assert uncovered.executable_lines(TWO_FUNCTIONS) == {1, 4, 6, 7, 8, 11, 12}
    result, reached = uncovered.trace_lines(package, run)
    assert result == 3
    assert uncovered.unreached(package, reached) == {"__init__.py": ([8, 12], 7)}


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
    assert summary["parent"]["attempted"] == 100 and summary["change"]["attempted"] == 105
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


def test_bench_failed_share_compares_failed_over_attempted():
    pairs = synthetic_pairs()
    better = {"wall_s": "lower"}
    # one failure in 105 change operations against none in 100 parent operations
    assert bench_pairs.failed_share(bench_pairs.summarize(pairs, better)) == "worse"
    pairs[0]["parent"]["failed"] = 1  # 1 of 100 against 1 of 105: the change's share is smaller
    assert bench_pairs.failed_share(bench_pairs.summarize(pairs, better)) == "ok"
    pairs[0]["parent"]["failed"], pairs[4]["change"]["failed"] = 0, 0
    assert bench_pairs.failed_share(bench_pairs.summarize(pairs, better)) == "ok"
    for pair in pairs:  # no operation attempted on either side reads a share of 0
        pair["parent"]["attempted"] = pair["change"]["attempted"] = 0
    assert bench_pairs.failed_share(bench_pairs.summarize(pairs, better)) == "ok"


def test_same_outputs_compares_two_trees_byte_for_byte(tmp_path):
    for side in ("parent", "change"):
        run = tmp_path / side / "report-seed0"
        (run / "out").mkdir(parents=True)
        (run / "exit_status").write_text("0\n")
        (run / "stdout").write_text("lambda_min = -1\n")
        (run / "out" / "ids.csv").write_text("E,N_hat\n0.5,0.25\n")
        (run / "out" / "decay.csv").write_text("eigenvalue\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert same_outputs.compare(parent, change) == ([], 4)
    (change / "report-seed0" / "out" / "ids.csv").write_text("E,N_hat\n0.5,0.26\n")
    (parent / "report-seed0" / "out" / "decay.csv").unlink()
    (change / "report-seed0" / "stdout").write_text("lambda_min = -1")
    assert same_outputs.compare(parent, change) == (
        ["report-seed0/out/decay.csv: only in the change",
         "report-seed0/out/ids.csv: line 2 differs: b'0.5,0.25' -> b'0.5,0.26'; numeric cells differ by at most "
         "0.01 absolute, 0.0385 relative",
         "report-seed0/stdout: line 2 differs: b'' -> None"], 4)


def test_same_outputs_reports_the_largest_numeric_difference_of_a_csv(tmp_path):
    old = "E,gamma_1,boundary\n-1.0,0.5,dirichlet\n0.0,-2e-3,dirichlet\n"
    new = "E,gamma_1,boundary\n-1.0,0.5000001,neumann\n0.0,-2.2e-3,dirichlet\n"
    absolute, relative = same_outputs.numeric_spread(old.encode(), new.encode())
    assert abs(absolute - 2e-4) < 1e-15 and abs(relative - 2e-4 / 2.2e-3) < 1e-15
    assert same_outputs.numeric_spread(old.encode(), old.encode()) == (0.0, 0.0)
    for side, text in (("parent", old), ("change", new)):
        (tmp_path / side / "lyapunov-seed0" / "out").mkdir(parents=True)
        (tmp_path / side / "lyapunov-seed0" / "out" / "lyapunov.csv").write_text(text)
        (tmp_path / side / "lyapunov-seed0" / "stdout").write_text("estimated spectra at 2 energies\n")
    # only the numbers moved: still a difference, so main exits 1
    assert same_outputs.compare(tmp_path / "parent", tmp_path / "change") == (
        ["lyapunov-seed0/out/lyapunov.csv: line 2 differs: b'-1.0,0.5,dirichlet' -> b'-1.0,0.5000001,neumann'; "
         "numeric cells differ by at most 0.0002 absolute, 0.0909 relative"], 2)


def test_same_outputs_diagonal_configuration_reads_uncertified(tmp_path):
    # DESK certifies every energy, so only this configuration writes the false branch of a boolean column
    config = tmp_path / "diagonal.json"
    config.write_text(json.dumps(same_outputs.DIAGONAL))
    assert cli.main(["certify", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "certificates.csv").read_text().splitlines()[1:]]
    assert len(rows) == 8 and all(row[-1] == "0" for row in rows)
    assert [row[1] for row in rows] == ["0", "1", "1", "1", "1", "1", "1", "0"]
    assert cli.main(["critical", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_NON_GENERIC


def test_same_outputs_refusal_configuration_stops_the_scan(tmp_path, capsys):
    # the stacked renormalisation fails in the first round, so each frame stack is repeated alone to name E = -400
    config = tmp_path / "refusal.json"
    config.write_text(json.dumps(same_outputs.REFUSAL))
    assert cli.main(["lyapunov", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith(
        "error: propagated frame became numerically singular at E=-400 (blocks of 1 cells): ")
    assert not (tmp_path / "lyapunov.csv").exists()


def test_same_outputs_three_channel_shooting_run_counts_agree(tmp_path):
    # the 6 x 6 chains that the byte check compares: at both seeds the script exits 0 and all four counts agree
    for seed in same_outputs.SEEDS:
        config = tmp_path / f"shooting3-seed{seed}.json"
        config.write_text(json.dumps(same_outputs.shooting_input(same_outputs.SHOOTING_3, seed)))
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "shooting.py"), str(config), "shooting.json"],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True)
        assert done.returncode == 0, done.stderr
        result = json.loads((tmp_path / "shooting.json").read_text())
        assert result["shooting_count"] > 0 and result["inertia_counts"] == [result["shooting_count"]] * 3, seed
