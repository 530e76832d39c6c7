"""The anderloc benchmark: four workloads, each run as child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  The inputs of a run come from ``--seed`` alone.  Iterations
repeat until ``--seconds`` are used up (at least three).  An iteration is
one or two child processes (the CLI, or the shooting script); each child's
exit status and outputs are checked, and a child that fails either way
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, each a median over the
iterations: wall and CPU time (user + sys) of the children, their peak RSS
from ``os.wait4``, and ``setup_s``, the median over several fresh
interpreters of ``import anderloc.cli`` plus ``load_config``.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``spans.summarize`` (medians over traced iterations),
plus ``trace.overhead`` (traced over untraced wall) and
``trace.accounted_share`` (summed layer self time over untraced wall minus
one setup time per child).

The last line of standard output is the result as one JSON object; the line
before it records the environment.  See README.md for why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

from checks import (check_certificates, check_critical, check_decay, check_ids, check_lyapunov,
                    check_shooting, run_checks)
from spans import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
MIN_ITERATIONS = 3
SETUP_SAMPLES = 5
# A run must end within 180 s; no child may run past this point of it.
CHILD_DEADLINE_S = 170.0

WITNESS_2 = [[0.0, 1.0], [1.0, 0.0]]
WITNESS_4 = [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
             [0.0, 0.0, 1.0, 0.0]]
BERNOULLI = {"atoms": [[0.0, 0.5], [1.0, 0.5]]}

# The README model and grids, scaled so that one report takes about 4 s.
DESK = {
    "N": 2, "V": WITNESS_2, "c": [1.0, 1.0], "ell": 0.1, "disorder": BERNOULLI,
    "certify": {"grid": {"lo": -4.5, "hi": 5.5, "count": 21}},
    "critical": {"grid_step": 0.1},
    "lyapunov": {"grid": {"lo": -4.5, "hi": 0.0, "count": 10}, "n_steps": 1000, "n_replicas": 8},
    "ids": {"grid": {"lo": 0.0, "hi": 8.0, "count": 17}, "L": 50, "h": 0.0125, "n_samples": 2},
    "localize": {"window": [-1.0, 3.0], "L": 60, "h": 0.0125, "n_paths": 2, "ref_steps": 4000},
}
LONG = {
    "N": 2, "V": WITNESS_2, "c": [1.0, 1.0], "ell": 0.1, "disorder": BERNOULLI,
    "lyapunov": {"grid": {"lo": -4.5, "hi": 0.0, "count": 4}, "n_steps": 4000, "n_replicas": 8},
}
ALGEBRA = {
    "N": 4, "V": WITNESS_4, "c": [1.0, 1.0, 1.0, 1.0], "ell": 0.1, "disorder": BERNOULLI,
    "critical": {"grid_step": 0.6},
}
SHOOTING = {"N": 2, "V": WITNESS_2, "c": [1.0, 1.5], "ell": 0.5, "cells": 40,
            "lo": 0.4, "hi": 1.9, "count": 800, "refinements": [8, 16, 32]}


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _cli(command: str, cfg: str, out: str, seed: int | None = None) -> list[str]:
    argv = ["-m", "anderloc.cli", command, "--config", cfg, "--out", out]
    return argv + ["--seed", str(seed)] if seed is not None else argv


def report_desk(seed: int, work: str, out: str):
    cfg = _write_json(os.path.join(work, "desk.json"), DESK)
    checks = [
        ("lyapunov.csv", check_lyapunov, {"n": 2, "rows_expected": 10}),
        ("ids.csv", check_ids, {"ell": DESK["ell"], "rows_expected": 17}),
        ("certificates.csv", check_certificates, {"n": 2, "rows_expected": 21}),
        ("critical.csv", check_critical, {}),
        ("decay.csv", check_decay, {"window": tuple(DESK["localize"]["window"])}),
    ]
    return [_cli("report", cfg, out, seed)], checks


def lyapunov_long(seed: int, work: str, out: str):
    cfg = _write_json(os.path.join(work, "long.json"), LONG)
    checks = [("lyapunov.csv", check_lyapunov, {"n": 2, "rows_expected": 4})]
    return [_cli("lyapunov", cfg, out, seed)], checks


def algebra_n4(seed: int, work: str, out: str):
    # The seed shifts the certificate grid inside the certified window
    # [-4.313, 5.313]; the critical scan covers that whole window.
    lo = -4.3 + 0.45 * random.Random(seed).random()
    doc = dict(ALGEBRA, certify={"grid": {"lo": lo, "hi": lo + 9.0, "count": 17}})
    cfg = _write_json(os.path.join(work, "n4.json"), doc)
    checks = [
        ("certificates.csv", check_certificates, {"n": 4, "rows_expected": 17}),
        ("critical.csv", check_critical, {}),
    ]
    return [_cli("certify", cfg, out), _cli("critical", cfg, out)], checks


def shooting_oracle(seed: int, work: str, out: str):
    rng = random.Random(seed)
    doc = dict(SHOOTING, path=[[float(rng.random() < 0.5) for _ in range(SHOOTING["N"])]
                               for _ in range(SHOOTING["cells"])])
    inp = _write_json(os.path.join(work, "shooting_in.json"), doc)
    step = [os.path.join(HERE, "shooting.py"), inp, os.path.join(out, "shooting.json")]
    return [step], [("shooting.json", check_shooting, {})]


WORKLOADS = {
    "report-desk": report_desk,
    "lyapunov-long": lyapunov_long,
    "algebra-n4": algebra_n4,
    "shooting-oracle": shooting_oracle,
}


class Child:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], env: dict, log: str, timeout: float):
        start = time.perf_counter()
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


class Runner:
    """Runs iterations of one workload and tallies attempts and failures."""

    def __init__(self, root: str, workload: str, seed: int, work: str):
        self.work = work
        self.out = os.path.join(work, "out")
        self.steps, self.checks = WORKLOADS[workload](seed, work, self.out)
        self.ref_dir = os.path.join(HERE, "reference", workload) if seed == DEFAULT_SEED else None
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _child(self, argv: list[str]) -> Child:
        left = CHILD_DEADLINE_S - (time.perf_counter() - self.started)
        return Child([sys.executable, *argv], self.env, os.path.join(self.work, "child.log"), left)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and loading a config."""
        cfg = _write_json(os.path.join(self.work, "setup.json"), DESK)
        code = "import sys, anderloc.cli; anderloc.cli.load_config(sys.argv[1])"
        child = self._child(["-c", code, cfg])
        if child.code != 0:
            raise RuntimeError(f"setup probe failed: {_tail(child.log)}")
        return child.wall

    def iteration(self, spans_prefix: str | None = None) -> dict:
        """Run every step once; with ``spans_prefix``, under the tracer."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        wall = cpu = rss = 0.0
        docs = []
        ok = True
        for k, argv in enumerate(self.steps):
            if spans_prefix is not None:
                spans = f"{spans_prefix}-{k}.json"
                argv = [os.path.join(HERE, "traced.py"), spans, *argv]
            child = self._child(argv)
            wall += child.wall
            cpu += child.cpu
            rss = max(rss, child.rss_mb)
            if child.code != 0:
                ok = False
                self.problems.append(f"exit {child.code}: {_tail(child.log)}")
            elif spans_prefix is not None:
                with open(spans, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
        if ok:
            problems = run_checks(self.checks, self.out, self.ref_dir)
            self.problems += problems
            ok = not problems
        self.attempted += 1
        self.failed += not ok
        print(f"iteration {self.attempted}: wall {wall:.3f} s, cpu {cpu:.3f} s, rss {rss:.1f} MB, "
              f"{'ok' if ok else 'FAILED'}{', traced' if docs else ''}", file=sys.stderr)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "docs": docs}


def _tail(path: str, n: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-n:].strip()


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    Set-up samples are spread between the iterations, so that a passing
    burst of load on the machine moves few of them.
    """
    results, setup = [], []
    start = time.perf_counter()
    while len(results) < MIN_ITERATIONS or (
            time.perf_counter() - start + median([r["wall_s"] for r in results]) <= seconds):
        setup.append(runner.setup_time())
        results.append(runner.iteration())
    setup += [runner.setup_time() for _ in range(SETUP_SAMPLES - len(setup))]
    metrics = {key: median([r[key] for r in results]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = median(setup)
    return metrics


def measure_traced(runner: Runner, seconds: float) -> dict[str, float]:
    """Per-layer metrics: traced iterations alternating with untraced ones."""
    setup = median([runner.setup_time() for _ in range(3)])
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (
            time.perf_counter() - start
            + median([p + t["wall_s"] for p, t in zip(plain, traced)]) <= seconds):
        plain.append(runner.iteration()["wall_s"])
        traced.append(runner.iteration(os.path.join(runner.work, f"spans-{len(traced)}")))
    layers = [summarize(t["docs"]) for t in traced if t["docs"]]
    if not layers:
        raise RuntimeError("no traced iteration finished")
    metrics = {key: median([m[key] for m in layers]) for key in layers[0]}
    untraced = median(plain)
    metrics["trace.overhead"] = median([t["wall_s"] for t in traced]) / untraced
    # every child of an iteration pays the interpreter and import set-up once
    run_time = untraced - setup * len(runner.steps)
    metrics["trace.accounted_share"] = metrics["trace.self_sum_s"] / run_time
    return metrics


def blas_record() -> dict:
    """OpenBLAS version and thread count as numpy loaded them."""
    import numpy as np

    record = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        record["blas"] = None
    record["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: the thread count stays unknown
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                record["blas_threads"] = int(fn())
                return record
    return record


def environment() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "scipy": importlib.metadata.version("scipy"),
    }
    record.update(blas_record())
    return record


def metric_units(root: str, section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in ``section``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "anderloc", "cli.py")):
        print("run from the root of an anderloc checkout: src/anderloc/cli.py not found",
              file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        print("env " + json.dumps(environment()), flush=True)
        runner = Runner(root, args.workload, args.seed, work)
        if args.trace:
            metrics = measure_traced(runner, args.seconds)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"error_rate {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} operations failed)", file=sys.stderr)
    units = metric_units(root, "per_layer" if args.trace else "end_to_end")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
