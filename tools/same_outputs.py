#!/usr/bin/env python3
"""Check that the working tree's commands write the same bytes as commit REV's.

Usage: python tools/same_outputs.py REV

Run from the root of the repository.  REV is exported with
``bench_pairs.export`` into a temporary directory.  Each of the seven
commands then runs on perfbench's DESK configuration (read from the working
tree's ``perfbench/run.py``, which is imported without writing bytecode) at
``--seed`` 0 and 3, in a fresh ``python -m anderloc.cli`` process against
each tree's ``src``, with the same arguments and working-directory layout
on both sides.  The exit status, stdout, stderr and every output file are
compared byte for byte.  Prints each difference and exits 1; otherwise
prints the number of runs and files compared and exits 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
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


def run(src: Path, config: Path, command: str, seed: int, into: Path) -> None:
    """One CLI process against the package in ``src``, in ``into``: its files go to out/, its streams beside it."""
    into.mkdir(parents=True)
    argv = [sys.executable, "-m", "anderloc.cli", command, "--config", str(config), "--out", "out", "--seed", str(seed)]
    done = subprocess.run(argv, cwd=into, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
    (into / "exit_status").write_text(f"{done.returncode}\n")
    (into / "stdout").write_bytes(done.stdout)
    (into / "stderr").write_bytes(done.stderr)


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
            differences.append(f"{name}: line {k} differs: {a!r} -> {b!r}")
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
        tree, config = Path(tmp, "tree"), Path(tmp, "desk.json")
        tree.mkdir()
        short = export(rev, str(tree))
        config.write_text(json.dumps(perfbench.DESK))
        for side, root in (("parent", tree), ("change", Path.cwd())):
            for command, seed in itertools.product(COMMANDS, SEEDS):
                run(root / "src", config, command, seed, Path(tmp, side, f"{command}-seed{seed}"))
        differences, n_files = compare(Path(tmp, "parent"), Path(tmp, "change"))
    runs = len(COMMANDS) * len(SEEDS)
    print("\n".join(differences + [f"{len(differences)} differences from {short} in {runs} runs and {n_files} files "
                                   "(exit status, stdout, stderr and output files of each run)"]))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
