"""Tests of the benchmark itself: span arithmetic, tracer, output checks, metric names."""

import csv
import json
import os
import re
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from checks import check_ids, check_lyapunov, run_checks  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402

MAIN, POOL_A, POOL_B = 1, 2, 3


def _span(sid, name, start, end, parent, tid, cpu=None):
    return [sid, name, start, end, parent, tid, end - start if cpu is None else cpu]


def test_self_times_across_two_threads():
    # Main thread: root [0, 10] > estimate_ids [2, 8] and lie_closure [8, 9.5]
    # > bracket [8, 9].  Two pool threads count inside estimate_ids; under the
    # interpreter lock each gets half the CPU of its wall time.
    spans = [
        _span(0, ROOT_SPAN, 0.0, 10.0, None, MAIN),
        _span(1, "spectrum.estimate_ids", 2.0, 8.0, 0, MAIN),
        _span(2, "furstenberg.lie_closure", 8.0, 9.5, 0, MAIN),
        _span(3, "linalg.bracket", 8.0, 9.0, 2, MAIN),
        _span(4, "spectrum.count_below", 2.0, 5.0, None, POOL_A, cpu=1.5),
        _span(5, "spectrum.count_below", 5.0, 8.0, None, POOL_A, cpu=1.5),
        _span(6, "spectrum.count_below", 2.0, 8.0, None, POOL_B, cpu=3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.5)
    assert own[1] == pytest.approx(6.0)  # pool spans are not its children
    assert own[2] == pytest.approx(0.5)
    assert own[4] == pytest.approx(3.0)

    m = summarize([{"root_thread": MAIN, "spans": spans, "values": {}, "absent": [],
                    "probe_errors": 0}])
    assert m["layer.driver.self_s"] == pytest.approx(2.5)
    assert m["layer.spectrum.self_s"] == pytest.approx(6.0)
    assert m["layer.furstenberg.self_s"] == pytest.approx(0.5)
    assert m["layer.linalg.self_s"] == pytest.approx(1.0)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)  # root thread only
    assert m["spectrum.count_below.s"] == pytest.approx(12.0)
    assert m["spectrum.count_below.busy_s"] == pytest.approx(6.0)
    assert m["spectrum.estimate_ids.workers"] == 2
    assert m["spectrum.count_below.busy_s"] <= 2 * m["spectrum.estimate_ids.s"]
    assert m["spectrum.estimate_ids.thread_efficiency"] == pytest.approx(6.0 / (2 * 6.0))


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def leaf():
        both_inside.wait()

    inner = tracer.wrap("spectrum.count_below", leaf)
    outer = tracer.wrap("spectrum.estimate_ids", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent, tid, cpu in tracer.spans:
        if name == "spectrum.count_below":
            assert by_id[parent][1] == "spectrum.estimate_ids"
            assert by_id[parent][5] == tid
        else:
            assert parent is None


def test_missing_hook_is_absent_not_an_error():
    tracer = Tracer()
    tracer.install((
        ("anderloc.spectrum", "no_such_function", "spectrum.gone", None),
        ("anderloc.no_such_module", "f", "model.gone", None),
    ))
    assert tracer.absent == ["anderloc.spectrum.no_such_function", "anderloc.no_such_module.f"]
    assert summarize([tracer.document(MAIN)])["trace.hooks_absent"] == 2


def test_failed_probe_loses_the_value_not_the_call():
    tracer = Tracer()
    traced = tracer.wrap("linalg.qr_pos", lambda: "not a factorization",
                         probe=lambda args, kwargs, result: result[1].x)
    assert traced() == "not a factorization"
    assert tracer.probe_errors == 1


@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    from anderloc.cli import main

    tmp = tmp_path_factory.mktemp("outputs")
    doc = {
        "N": 1, "V": [[0.0]], "c": [1.0], "ell": 0.1, "seed": 7,
        "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "lyapunov": {"energies": [0.3, 0.6], "n_steps": 400, "n_replicas": 2},
        "ids": {"grid": {"lo": 0.5, "hi": 8.0, "count": 4}, "L": 40, "h": 0.025, "n_samples": 2},
    }
    cfg = tmp / "small.json"
    cfg.write_text(json.dumps(doc))
    for command in ("lyapunov", "ids"):
        assert main([command, "--config", str(cfg), "--out", str(tmp)]) == 0
    return tmp


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


CHECKS = [
    ("lyapunov.csv", check_lyapunov, {"n": 1, "rows_expected": 2}),
    ("ids.csv", check_ids, {"ell": 0.1, "rows_expected": 4}),
]


def test_checks_pass_on_real_outputs_and_their_own_reference(small_outputs):
    assert run_checks(CHECKS, str(small_outputs), None) == []
    assert run_checks(CHECKS, str(small_outputs), str(small_outputs)) == []


def test_checks_reject_corrupted_ids(small_outputs, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "ids.csv").write_bytes((small_outputs / "ids.csv").read_bytes())

    def decrease(rows):  # swap N_hat of the first and last energies
        rows[1][1], rows[-1][1] = rows[-1][1], rows[1][1]

    _rewrite(out / "ids.csv", decrease)
    problems = run_checks(CHECKS[1:], str(out), None)
    assert any("IDS decreases" in p for p in problems)

    (out / "ids.csv").write_bytes((small_outputs / "ids.csv").read_bytes())

    def one_more_state(rows):  # still monotone, but not a whole count
        rows[-1][1] = repr(float(rows[-1][1]) + 0.3)

    _rewrite(out / "ids.csv", one_more_state)
    problems = run_checks(CHECKS[1:], str(out), str(small_outputs))
    assert any("whole number" in p for p in problems)
    assert any("counts differ from the reference" in p for p in problems)


def test_checks_reject_corrupted_lyapunov(small_outputs, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "lyapunov.csv").write_bytes((small_outputs / "lyapunov.csv").read_bytes())

    def unpaired(rows):  # gamma_1 moves, gamma_2 does not
        rows[1][1] = repr(float(rows[1][1]) + 0.5)

    _rewrite(out / "lyapunov.csv", unpaired)
    problems = run_checks(CHECKS[:1], str(out), str(small_outputs))
    assert any("symplectic pairing" in p for p in problems)
    assert any("beyond 3 combined stderr" in p for p in problems)

    (out / "lyapunov.csv").write_text("E,gamma_1\n")
    assert run_checks(CHECKS[:1], str(out), None)


def test_failed_child_or_check_counts_as_failed_operation(monkeypatch, tmp_path):
    def workload(seed, work, out):
        steps = [["-c", "import sys; sys.exit(0 if sys.argv[1] == '1' else 3)", str(seed)]]
        return steps, [("ids.csv", check_ids, {"ell": 0.1, "rows_expected": 4})]

    monkeypatch.setitem(run.WORKLOADS, "toy", workload)
    failing_child = run.Runner(ROOT, "toy", 2, str(tmp_path))
    failing_child.iteration()
    assert (failing_child.attempted, failing_child.failed) == (1, 1)
    assert "exit 3" in failing_child.problems[0]

    missing_output = run.Runner(ROOT, "toy", 1, str(tmp_path))
    missing_output.iteration()
    assert (missing_output.attempted, missing_output.failed) == (1, 1)
    assert "ids.csv: unreadable" in missing_output.problems[0]


def test_metric_names_and_counts():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(set(names)) == len(names)
    for m in end_to_end + per_layer:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"]), m
    assert {m["name"] for m in end_to_end} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    produced = set(summarize([])) | {"trace.overhead", "trace.accounted_share"}
    assert {m["name"] for m in per_layer} == produced
    assert set(bench["workloads"][i]["name"] for i in range(len(bench["workloads"]))) == set(
        run.WORKLOADS)
