"""Regenerate the stored reference outputs of the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout.  Each named workload (default: all)
runs once with the default seed; its checked output files are copied to
``perfbench/reference/<workload>/``.  Only do this when a change is meant to
alter those outputs, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from run import DEFAULT_SEED, HERE, WORKLOADS, Runner


def main(names: list[str]) -> int:
    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        with tempfile.TemporaryDirectory(prefix="reference-", dir=work_root) as work:
            runner = Runner(os.getcwd(), name, DEFAULT_SEED, work)
            runner.ref_dir = None  # invariants only; there is nothing to compare yet
            runner.iteration()
            if runner.failed:
                print(f"{name}: {runner.problems}", file=sys.stderr)
                return 1
            dest = os.path.join(HERE, "reference", name)
            os.makedirs(dest, exist_ok=True)
            for file_name, _, _ in runner.checks:
                shutil.copyfile(os.path.join(runner.out, file_name), os.path.join(dest, file_name))
            print(f"{name}: wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
