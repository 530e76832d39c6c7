"""Shooting-oracle workload: a library script, run as its own process.

    python3 perfbench/shooting.py INPUT.json OUTPUT.json

On one disorder path it samples the sign of det B(E), where B is the
boundary block of the full transfer product (``spectrum.boundary_block``),
over an energy grid.  Each sign change is one Dirichlet eigenvalue of the
continuum restriction.  It then counts the eigenvalues between two grid
energies by inertia (``spectrum.count_below``) at three finite-difference
refinements.  The benchmark checks that all four counts agree.

Two eigenvalues closer than the grid step leave no sign change between
samples, but they leave a local minimum of |det B| whose neighbours share
its sign; each such interval is sampled again, REFINE times finer.  The two
edges are the grid energies, one in each outer seventh of the grid, farthest
from any sign change and from the ends of the grid, beyond which
eigenvalues are unknown.  That keeps the finite-difference error from moving
an eigenvalue across an edge.  Layers are reached through module
attributes, which is what lets the tracer see them.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from anderloc import spectrum
from anderloc.model import DisorderSpec, ModelParams


REFINE = 16


def _edge(changes: np.ndarray, candidates: range, n: int) -> int:
    """Candidate index farthest from every sign change and both grid ends."""
    marks = np.concatenate([[-1.0], changes + 0.5, [float(n)]])
    return max(candidates, key=lambda i: np.min(np.abs(marks - i)))


def main(argv: list[str]) -> int:
    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    params = ModelParams(n=doc["N"], v=np.array(doc["V"]), c=np.array(doc["c"]), ell=doc["ell"],
                         disorder=DisorderSpec.bernoulli())
    path = np.array(doc["path"], dtype=float)
    energies = np.linspace(doc["lo"], doc["hi"], doc["count"])

    def det(e: float) -> float:
        return float(np.linalg.det(spectrum.boundary_block(params, path, e)))

    dets = np.array([det(float(e)) for e in energies])
    signs = np.sign(dets)
    # root positions in sample units: i for a sign change between samples i
    # and i + 1, and i for each root a refined minimum at sample i reveals
    roots = list(np.nonzero(signs[:-1] != signs[1:])[0])
    a = np.abs(dets)
    for i in range(1, len(energies) - 1):
        if a[i] < a[i - 1] and a[i] < a[i + 1] and signs[i - 1] == signs[i] == signs[i + 1]:
            fine = np.sign([det(float(e)) for e in
                            np.linspace(energies[i - 1], energies[i + 1], 2 * REFINE + 1)])
            roots += [i] * int(np.count_nonzero(fine[:-1] != fine[1:]))
    roots = np.sort(np.array(roots, dtype=float))
    tail = len(energies) // 7
    lo = _edge(roots, range(tail), len(energies))
    hi = _edge(roots, range(len(energies) - tail, len(energies)), len(energies))
    shooting_count = int(np.count_nonzero((roots >= lo) & (roots < hi)))

    inertia = []
    for m in doc["refinements"]:
        restriction = spectrum.FiniteRestriction(len(path) // 2, "dirichlet", params.ell / m, path)
        mat = spectrum.discretize(params, restriction)
        inertia.append(spectrum.count_below(mat, float(energies[hi]))
                       - spectrum.count_below(mat, float(energies[lo])))

    result = {"edges": [float(energies[lo]), float(energies[hi])],
              "shooting_count": shooting_count, "inertia_counts": inertia}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
