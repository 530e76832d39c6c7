#!/usr/bin/env python3
"""Check that the working tree's commands write the same bytes as commit REV's.

Usage: python tools/same_outputs.py REV

Run from the root of the repository.  REV is exported with
``bench_pairs.export`` into a temporary directory.  Each of the seven
commands then runs on two configurations at ``--seed`` 0 and 3: perfbench's
DESK (read from the working tree's ``perfbench/run.py``, which is imported
without writing bytecode) and ``DIAGONAL`` below, where the channels never
couple, so ``critical`` exits 3 and every certificate reads 0.  perfbench's
``shooting.py`` runs on the inputs that ``run.py``'s ``shooting_oracle``
builds at the same two seeds.  Every run is a fresh process against each
tree's ``src``, with the same arguments and working-directory layout on
both sides.  The exit status, stdout, stderr and every output file are
compared byte for byte.  Prints each difference, with the largest absolute
and relative difference over the numeric cells of a CSV file that differs,
and exits 1; otherwise prints the number of runs and files compared and
exits 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("interval", "certify", "critical", "lyapunov", "ids", "localize", "report")
SEEDS = (0, 3)
# A diagonal V leaves the two channels uncoupled; the certificate grid reaches past both ends of the
# certified window [-4.93, 6.93], and ids takes Neumann ends and a given h.
DIAGONAL = {
    "N": 2, "V": [[0.0, 0.0], [0.0, 1.0]], "c": [1.0, 1.0], "ell": 0.1,
    "certify": {"grid": {"lo": -6.0, "hi": 8.0, "count": 8}},
    "lyapunov": {"grid": {"lo": -2.0, "hi": 0.0, "count": 3}, "n_steps": 500, "n_replicas": 4},
    "ids": {"grid": {"lo": 0.0, "hi": 4.0, "count": 5}, "L": 20, "h": 0.025, "n_samples": 3, "boundary": "neumann"},
    "localize": {"window": [0.0, 2.0], "L": 30, "ref_steps": 1000},
}


def run(src: Path, argv: list[str], into: Path) -> None:
    """``python *argv`` against the package in ``src``, in ``into``: its files go to out/, its streams beside it."""
    (into / "out").mkdir(parents=True)
    done = subprocess.run([sys.executable, *argv], cwd=into, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True)
    (into / "exit_status").write_text(f"{done.returncode}\n")
    (into / "stdout").write_bytes(done.stdout)
    (into / "stderr").write_bytes(done.stderr)


def numeric_spread(old: bytes, new: bytes) -> tuple[float, float]:
    """Largest absolute and relative difference over the cells, in the same place, that read as numbers in both CSVs.

    The relative difference of two cells is |a - b| / max(|a|, |b|); cells
    that are equal count 0.
    """
    largest = [0.0, 0.0]
    rows = zip(csv.reader(old.decode().splitlines()), csv.reader(new.decode().splitlines()))
    for a, b in itertools.chain.from_iterable(zip(*pair) for pair in rows):
        try:
            x, y = float(a), float(b)
        except ValueError:
            continue
        if x != y:
            diff = abs(x - y)
            largest = [max(largest[0], diff), max(largest[1], diff / max(abs(x), abs(y)))]
    return largest[0], largest[1]


def compare(parent: Path, change: Path) -> tuple[list[str], int]:
    """Each difference between two directory trees, byte for byte, and the number of files compared."""
    names = sorted({path.relative_to(root) for root in (parent, change) for path in root.rglob("*") if path.is_file()})
    differences = []
    for name in names:
        old, new = parent / name, change / name
        if not (old.is_file() and new.is_file()):
            differences.append(f"{name}: only in the {'parent' if old.is_file() else 'change'}")
        elif old.read_bytes() != new.read_bytes():
            # split, unlike splitlines, keeps every byte, so two different files differ in some line
            pairs = itertools.zip_longest(old.read_bytes().split(b"\n"), new.read_bytes().split(b"\n"))
            k, (a, b) = next((k, pair) for k, pair in enumerate(pairs, 1) if pair[0] != pair[1])
            line = f"{name}: line {k} differs: {a!r} -> {b!r}"
            if name.suffix == ".csv":
                line += "; numeric cells differ by at most {:.3g} absolute, {:.3g} relative".format(
                    *numeric_spread(old.read_bytes(), new.read_bytes()))
            differences.append(line)
    return differences, len(names)


def main(argv: list[str] | None = None) -> int:
    from bench_pairs import export  # this script's directory leads sys.path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    rev = parser.parse_args(argv).rev
    sys.dont_write_bytecode = True  # perfbench/ stays as it is
    sys.path.insert(0, "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_run", "perfbench/run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tree, inputs = Path(tmp, "tree"), Path(tmp, "inputs")
        tree.mkdir()
        inputs.mkdir()
        short = export(rev, str(tree))
        runs = {}  # run directory name -> argv, the same on both sides
        for name, doc in (("desk", perfbench.DESK), ("diagonal", DIAGONAL)):
            config = inputs / f"{name}.json"
            config.write_text(json.dumps(doc))
            for command, seed in itertools.product(COMMANDS, SEEDS):
                runs[f"{name}-{command}-seed{seed}"] = perfbench._cli(command, str(config), "out", seed)
        for seed in SEEDS:
            work = inputs / f"shooting-seed{seed}"
            work.mkdir()
            steps, _ = perfbench.shooting_oracle(seed, str(work), "out")
            runs[f"shooting-seed{seed}"] = steps[0]
        for side, root in (("parent", tree), ("change", Path.cwd())):
            for name, argv in runs.items():
                run(root / "src", argv, Path(tmp, side, name))
        differences, n_files = compare(Path(tmp, "parent"), Path(tmp, "change"))
    print("\n".join(differences + [f"{len(differences)} differences from {short} in {len(runs)} runs and {n_files} "
                                   "files (exit status, stdout, stderr and output files of each run)"]))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
