#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Usage: python tools/bench_pairs.py --pr PR --workload NAME [--workload NAME ...]
           [--pairs 10] [--parent HEAD] [--claim TEXT] [--note TEXT]

Run from the root of the repository.  The change is the working tree; the
parent is the commit ``--parent`` names, exported with ``git archive`` into a
temporary directory (no worktree is registered).  Pair i runs
``perfbench/run.py --workload NAME --seed i --seconds S --trace 0`` once in
each tree, the parent first in even pairs and the change first in odd ones;
S is the ``run_seconds`` that ``BENCHMARK.json`` declares.

Writes ``BENCH_<PR>.json``: the command, the parent's short hash, the
machine, the claim and a note, and per workload the environment line of the
first run, every pair's end-to-end metrics, each side's median and inclusive
quartiles (``statistics.quantiles(..., n=4, method="inclusive")``) of every
end-to-end metric that ``BENCHMARK.json`` declares, the failed and the
attempted operations, each side's win count: the pairs in which its value is
better in the metric's declared direction (ties count for neither side), and
a verdict per metric (``verdicts``) plus a ``failed_share`` verdict
(``failed_share``).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

COMMAND = "python3 perfbench/run.py --workload W --seed PAIR --seconds {seconds:g} --trace 0"
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and inclusive first and third quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-side quartiles, failed and attempted operations, and per-side win counts, of a workload's pairs.

    ``pairs`` are records with a ``parent`` and a ``change`` entry, each a
    dict of metric values plus ``failed`` and ``attempted``; ``better`` maps
    each metric name to ``"lower"`` or ``"higher"``.
    """
    summary = {}
    for side in SIDES:
        stats = {name: quartiles([pair[side][name] for pair in pairs]) for name in better}
        stats["failed"] = sum(pair[side]["failed"] for pair in pairs)
        stats["attempted"] = sum(pair[side]["attempted"] for pair in pairs)
        summary[side] = stats
    for side, other in (("change", "parent"), ("parent", "change")):
        wins = {}
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            wins[name] = sum(sign * (pair[side][name] - pair[other][name]) > 0 for pair in pairs)
        summary[f"{side}_wins"] = wins
    summary["n_pairs"] = len(pairs)
    return summary


def verdicts(pairs: list[dict], summary: dict, metrics: list[dict]) -> dict[str, str]:
    """Each metric's verdict on a workload's pairs, judged against its bound.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``; a
    bound is relative to the parent's median.  ``worse``: the change's median
    is worse than the parent's by more than the bound.  ``unresolved``: the
    parent's interquartile range exceeds the bound and not every change run
    beats every parent run.  ``ok`` otherwise.
    """
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * value grows as the metric gets worse
        parent, change = summary["parent"][name], summary["change"][name]
        scale = bound * parent["median"]
        beats_all = max(sign * p["change"][name] for p in pairs) < min(sign * p["parent"][name] for p in pairs)
        if sign * (change["median"] - parent["median"]) > scale:
            out[name] = "worse"
        elif parent["q3"] - parent["q1"] > scale and not beats_all:
            out[name] = "unresolved"
        else:
            out[name] = "ok"
    return out


def failed_share(summary: dict) -> str:
    """``worse`` when the change's share of failed operations exceeds the parent's, else ``ok``.

    A side's share is its failed over its attempted operations, 0 when it attempted none.
    """
    share = {side: summary[side]["failed"] / summary[side]["attempted"] if summary[side]["attempted"] else 0.0
             for side in SIDES}
    return "worse" if share["change"] > share["parent"] else "ok"


def run_side(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in the tree at ``root``: its environment line and its result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2].removeprefix("env "))
    result = json.loads(lines[-1])
    record = {"failed": result["failed"], "attempted": result["attempted"]}
    record.update({name: metric["value"] for name, metric in result["metrics"].items()})
    return env, record


def export(rev: str, into: str) -> str:
    """Write the files of commit ``rev`` into the directory ``into``; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], capture_output=True, text=True,
                           check=True).stdout.strip()
    archive = os.path.join(into, "parent.tar")
    subprocess.run(["git", "archive", "--output", archive, rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    os.remove(archive)
    return short


def machine() -> str:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"{os.cpu_count()} CPUs, {memory:.0f} GB; pairs alternate which side runs first (even pairs: parent first)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--claim", default="")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        doc = {"command": COMMAND.format(seconds=seconds), "parent": export(args.parent, parent_root),
               "machine": machine(), "claim": args.claim, "note": args.note, "workloads": {}}
        roots = {"parent": parent_root, "change": os.getcwd()}
        for workload in args.workload:
            pairs, env = [], None
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    side_env, pair[side] = run_side(roots[side], workload, i, seconds)
                    env = env or side_env
                pairs.append(pair)
                print(workload, json.dumps(pair), file=sys.stderr, flush=True)
            summary = summarize(pairs, better)
            summary["verdict"] = {**verdicts(pairs, summary, benchmark["end_to_end"]),
                                  "failed_share": failed_share(summary)}
            doc["workloads"][workload] = {"env": env, "pairs": pairs, **summary}
    out = f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
