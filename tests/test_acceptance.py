"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Every tolerance is pinned here; the stochastic
criteria use frozen seeds whose margins were verified across multiple
seeds during calibration.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

from anderloc.cli import main
from anderloc.errors import SizeGuardError
from anderloc.furstenberg import lie_closure, tridiagonal_witness
from anderloc.linalg import is_symplectic, sp_dim
from anderloc.lyapunov import (
    EstimatorConfig,
    exterior_log_norm,
    lyapunov_spectrum,
    qr_log_diag_sums,
    separability_scan,
)
from anderloc.model import (
    DEFAULT_RHO,
    DisorderSpec,
    EnergyInterval,
    ModelParams,
    binary_cells,
    energy_interval,
    generator,
    generator_norm,
    sample_cell,
    spectral_bounds,
    transfer,
)
from anderloc.seeding import derive_seed, stream
from anderloc.spectrum import (
    BandedSymmetric,
    FiniteRestriction,
    boundary_block,
    count_below,
    discretize,
    eigen_decay,
    estimate_ids,
    sample_restriction,
)


def report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def random_model(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    v = rng.uniform(-1, 1, (n, n))
    c = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return ModelParams(n=n, v=v + v.T, c=c, ell=float(rng.uniform(0.05, 1.0)))


def test_criterion_01_symplecticity():
    t0 = time.perf_counter()
    rng = stream(101)
    worst = 0.0
    for _ in range(1000):
        params = random_model(rng)
        omega = rng.integers(0, 2, params.n).astype(float)
        t = transfer(params, omega, float(rng.uniform(-3, 3)))
        j = np.zeros_like(t)
        k = params.n
        j[:k, k:] = -np.eye(k)
        j[k:, :k] = np.eye(k)
        resid = np.linalg.norm(t.T @ j @ t - j) / np.linalg.norm(t) ** 2
        worst = max(worst, resid)
        assert is_symplectic(t, 1e-10 * np.linalg.norm(t) ** 2)
    elapsed = time.perf_counter() - t0
    report(1, "symplecticity of 1000 random transfer matrices",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_norm_formula():
    t0 = time.perf_counter()
    rng = stream(202)
    worst = 0.0
    for _ in range(1000):
        params = random_model(rng)
        omega = rng.integers(0, 2, params.n).astype(float)
        e = float(rng.uniform(-4, 4))
        closed = generator_norm(params, omega, e)
        oracle = float(np.linalg.svd(generator(params, omega, e), compute_uv=False)[0])
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - t0
    report(2, "generator norm formula against the SVD oracle",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_interval_arithmetic(tmp_path, capsys):
    params = ModelParams(n=1, v=np.zeros((1, 1)), c=np.ones(1), ell=0.1, rho=DEFAULT_RHO)
    bounds = spectral_bounds(params)
    window = energy_interval(params)

    def digits12(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    ok = (
        digits12(bounds.lambda_min, 0.0)
        and digits12(bounds.lambda_max, 1.0)
        and digits12(bounds.delta, 0.5)
        and digits12(bounds.ell_c, 1.0)
        and digits12(window.lo, 1.0 - DEFAULT_RHO / 0.1)
        and digits12(window.hi, 0.0 + DEFAULT_RHO / 0.1)
    )
    cfg = tmp_path / "interval.json"
    cfg.write_text(json.dumps({
        "N": 1, "V": [[0.0]], "c": [1.0], "ell": 0.1,
        "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
    }))
    rc = main(["interval", "--config", str(cfg)])
    out = capsys.readouterr().out
    ok = ok and rc == 0
    for line in ("lambda_min = 0", "lambda_max = 1", "delta = 0.5", "ell_C = 1",
                 "I = [-5.9314718056, 6.9314718056]"):
        ok = ok and line in out
    report(3, "spectral constants and window to 12 digits", ok,
           f"I = [{window.lo:.12g}, {window.hi:.12g}]")


def test_criterion_04_lie_closure(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = stream(404)

    # (a) single generator never grows past itself
    def single(n):
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n)) + np.eye(n)
        return np.block([[a, np.eye(n)], [0.5 * (c + c.T), -a.T]])

    single_ok = all(lie_closure([single(n)]).dim_reached == 1 for n in (1, 2, 3))

    # (b) one-channel binary family reaches dimension 3 for 100 random draws
    pair_ok = True
    for _ in range(100):
        v = float(rng.uniform(-2, 2))
        c = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
        e = float(rng.uniform(-3, 3))
        params = ModelParams(n=1, v=np.array([[v]]), c=np.array([c]), ell=0.1)
        gens = [generator(params, omega, e) for omega in binary_cells(1)]
        pair_ok = pair_ok and lie_closure(gens).dim_reached == 3

    # (c) tridiagonal witness fills the algebra on 50 grid energies
    witness_ok = True
    for n in (2, 3):
        params = ModelParams(n=n, v=tridiagonal_witness(n), c=np.ones(n), ell=0.1)
        window = energy_interval(params)
        for e in np.linspace(window.lo, window.hi, 50):
            gens = [generator(params, omega, float(e)) for omega in binary_cells(n)]
            witness_ok = witness_ok and lie_closure(gens).dim_reached == sp_dim(n)

    # (d) decoupled interaction stalls at 6 and drives exit status 3
    flat = ModelParams(n=2, v=np.zeros((2, 2)), c=np.ones(2), ell=0.1)
    flat_ok = True
    for e in np.linspace(-4.0, 5.0, 12):
        gens = [generator(flat, omega, float(e)) for omega in binary_cells(2)]
        flat_ok = flat_ok and lie_closure(gens).dim_reached == 6
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "N": 2, "V": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, 1.0], "ell": 0.1,
        "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "critical": {"grid_step": 1.0, "refine_iters": 5},
    }))
    rc = main(["critical", "--config", str(cfg), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    flat_ok = flat_ok and rc == 3

    elapsed = time.perf_counter() - t0
    report(4, "bracket-closure dimensions", single_ok and pair_ok and witness_ok
           and flat_ok and elapsed < 30.0,
           f"single/pair/witness/decoupled all as expected, {elapsed:.1f}s")


def test_criterion_05_lyapunov_closed_forms():
    t0 = time.perf_counter()

    def symmetric(spec):
        g, se = spec.gammas, spec.stderrs
        two_n = len(g)
        return all(
            abs(g[i] + g[two_n - 1 - i]) <= 3.0 * (se[i] + se[two_n - 1 - i]) + 1e-9
            for i in range(two_n)
        )

    hyper = ModelParams(n=1, v=np.array([[1.0]]), c=np.ones(1), ell=1.0,
                        disorder=DisorderSpec.point(0.0))
    spec_h = lyapunov_spectrum(hyper, 0.0, EstimatorConfig(n_steps=5000, n_replicas=2))
    hyper_ok = abs(spec_h.gammas[0] - 1.0) <= 1e-6 and symmetric(spec_h)

    free = ModelParams(n=1, v=np.zeros((1, 1)), c=np.ones(1), ell=0.1,
                       disorder=DisorderSpec.point(0.0))
    spec_e = lyapunov_spectrum(free, 1.0, EstimatorConfig(n_steps=100000, n_replicas=2))
    elliptic_ok = abs(spec_e.gammas[0]) <= 5e-3 and symmetric(spec_e)

    sym_ok = True
    rng = stream(505)
    for n in (1, 2, 3):
        v = rng.standard_normal((n, n))
        params = ModelParams(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n), ell=0.1)
        spec = lyapunov_spectrum(params, 0.4, EstimatorConfig(n_steps=10000, master_seed=n))
        sym_ok = sym_ok and symmetric(spec)

    elapsed = time.perf_counter() - t0
    report(5, "Lyapunov closed forms and spectrum symmetry",
           hyper_ok and elliptic_ok and sym_ok and elapsed < 60.0,
           f"gamma_hyp = {spec_h.gammas[0]:.8f}, |gamma_free| = {abs(spec_e.gammas[0]):.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_06_qr_versus_exterior_oracle():
    t0 = time.perf_counter()
    # orthogonal products: the flag volumes equal the compound norms exactly
    rot = ModelParams(n=2, v=np.zeros((2, 2)), c=np.ones(2), ell=0.35,
                      disorder=DisorderSpec.point(0.0))
    rng = stream(606)
    mats = [transfer(rot, sample_cell(rot, rng), 1.0) for _ in range(10)]
    acc = qr_log_diag_sums(mats)
    worst = 0.0
    for p in range(1, 5):
        value = exterior_log_norm(mats, p)
        worst = max(worst, abs(acc[: p].sum() - value) / max(1.0, abs(value)))
    ortho_ok = worst <= 1e-6

    # generic disordered products: the determinant power is exact, the other
    # partial sums bound the oracle from below
    gen = ModelParams(n=2, v=tridiagonal_witness(2), c=np.ones(2), ell=0.1)
    mats = [transfer(gen, sample_cell(gen, rng), 0.5) for _ in range(10)]
    acc = qr_log_diag_sums(mats)
    det_dev = abs(acc.sum() - exterior_log_norm(mats, 4))
    generic_ok = det_dev <= 1e-6
    bound_ok = all(acc[: p].sum() <= exterior_log_norm(mats, p) + 1e-9 for p in range(1, 5))

    elapsed = time.perf_counter() - t0
    report(6, "QR accumulation against exterior-power oracle",
           ortho_ok and generic_ok and bound_ok and elapsed < 10.0,
           f"worst relative deviation {worst:.1e}, det power deviation {det_dev:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_07_separability_at_desk_scale():
    t0 = time.perf_counter()
    params = ModelParams(n=2, v=tridiagonal_witness(2), c=np.ones(2), ell=0.1)
    window = energy_interval(params)
    # 20 energies inside the window (S_V is empty for the witness); above
    # E ~ 0 the second exponent sinks to ~1e-3 where 3 sigma resolution
    # would need billions of steps, so the grid stays below that region
    grid = np.linspace(-4.5, 0.0, 20)
    assert window.lo < grid[0] and grid[-1] < window.hi
    results = separability_scan(params, grid, EstimatorConfig(n_steps=80000,
                                                              master_seed=20250810))
    separated = [r.separated for r in results]
    margins = []
    for r in results:
        g, se = r.spectrum.gammas, r.spectrum.stderrs
        margins.append(min(g[1] / (3 * se[1]), (g[0] - g[1]) / (3 * (se[0] + se[1]))))
    elapsed = time.perf_counter() - t0
    report(7, "separated positive exponents at 20 energies",
           all(separated) and elapsed < 600.0,
           f"worst margin {min(margins):.1f}x over the 3 sigma bar, {elapsed:.0f}s")


def test_criterion_08_free_ids_against_weyl_law():
    t0 = time.perf_counter()
    params = ModelParams(n=1, v=np.zeros((1, 1)), c=np.ones(1), ell=1.0,
                         disorder=DisorderSpec.point(0.0))
    grid = np.linspace(0.5, 10.0, 39)
    curve = estimate_ids(params, grid, length_cells=200, h=1.0 / 32, n_samples=1)
    sup_err = float(np.max(np.abs(curve.values - np.sqrt(grid) / math.pi)))
    elapsed = time.perf_counter() - t0
    report(8, "free-case IDS against sqrt(E)/pi", sup_err <= 0.02 and elapsed < 300.0,
           f"sup error {sup_err:.4f}, {elapsed:.1f}s")


def test_criterion_09_counting_consistency():
    t0 = time.perf_counter()
    rng = stream(909)

    # inertia equals a dense eigensolve exactly at several orders
    dense_ok = True
    for order, bw in ((50, 2), (120, 1), (200, 3)):
        ab = rng.standard_normal((bw + 1, order))
        for r in range(1, bw + 1):
            ab[r, order - r:] = 0.0
        mat = BandedSymmetric(ab=ab, order=order, bandwidth=bw)
        eigs = np.linalg.eigvalsh(mat.to_dense())
        probes = np.concatenate([0.5 * (eigs[:-1] + eigs[1:])[::7], rng.uniform(-4, 4, 8)])
        for e in probes:
            dense_ok = dense_ok and count_below(mat, float(e)) == int(np.sum(eigs <= e))

    # fixed disordered two-channel instance: inertia counts stabilize under
    # h-refinement at the zero count of the shooting determinant
    params = ModelParams(n=2, v=tridiagonal_witness(2), c=np.array([1.0, 1.5]), ell=0.5,
                         disorder=DisorderSpec.bernoulli())
    path_rng = stream(424242)
    path = params.disorder.values[path_rng.integers(0, 2, size=(40, 2))]
    window = (0.4, 1.9)
    energies = np.linspace(window[0], window[1], 3000)
    dets = np.array([np.linalg.det(boundary_block(params, path, float(e))) for e in energies])
    shooting_count = int(np.sum(np.sign(dets[:-1]) != np.sign(dets[1:])))
    inertia_counts = []
    for m in (8, 16, 32):
        mat = discretize(params, FiniteRestriction(20, "dirichlet", params.ell / m, path))
        inertia_counts.append(count_below(mat, window[1]) - count_below(mat, window[0]))
    shoot_ok = all(c == shooting_count for c in inertia_counts)

    elapsed = time.perf_counter() - t0
    report(9, "inertia counting against dense and shooting oracles",
           dense_ok and shoot_ok and elapsed < 120.0,
           f"shooting zeros {shooting_count}, refined counts {inertia_counts}, {elapsed:.0f}s")


def test_criterion_10_localization_diagnostic():
    t0 = time.perf_counter()
    params = ModelParams(n=1, v=np.zeros((1, 1)), c=np.array([2.0]), ell=0.1,
                         disorder=DisorderSpec.bernoulli())
    window = EnergyInterval(0.6, 1.0)
    center = 0.5 * (window.lo + window.hi)
    assert energy_interval(params).contains(center)
    master = 123
    ref = lyapunov_spectrum(params, center,
                            EstimatorConfig(n_steps=50000, master_seed=derive_seed(master, 0)))
    gamma = float(ref.gammas[0])
    reports = []
    for k in (1, 2, 3):
        rng = stream(derive_seed(master, k))
        restriction = sample_restriction(params, 400, params.ell / 8, "dirichlet", rng)
        reports.extend(eigen_decay(params, restriction, window, gamma_ref=gamma))
    rates = np.array([r.fitted_rate for r in reports])
    median = float(np.median(rates))
    positive_frac = float(np.mean(rates > 0))
    ratio = median / gamma
    elapsed = time.perf_counter() - t0
    # diagnostic band: an engineering tolerance on a finite-volume signature
    report(10, "decay rates track the smallest positive exponent",
           0.5 <= ratio <= 2.0 and positive_frac >= 0.9 and len(rates) >= 5
           and elapsed < 600.0,
           f"median/gamma = {ratio:.2f}, {len(rates)} states, "
           f"{100 * positive_frac:.0f}% positive, {elapsed:.0f}s")


def test_criterion_11_byte_identical_reproduction(tmp_path, capsys):
    doc = {
        "N": 1, "V": [[0.0]], "c": [1.0], "ell": 0.1, "seed": 31415,
        "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "certify": {"grid": {"lo": -0.5, "hi": 0.5, "count": 3}},
        "critical": {"grid_step": 1.5, "refine_iters": 8},
        "lyapunov": {"energies": [0.3, 0.6], "n_steps": 400, "n_replicas": 2},
        "ids": {"grid": {"lo": 0.5, "hi": 3.0, "count": 4}, "L": 8, "h": 0.025,
                "n_samples": 2},
        "localize": {"window": [0.5, 0.9], "L": 40, "ref_steps": 400},
    }
    cfg = tmp_path / "repro.json"
    cfg.write_text(json.dumps(doc))
    ok = True
    detail = []
    for command in ("interval", "certify", "critical", "lyapunov", "ids", "localize", "report"):
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        rc_a = main([command, "--config", str(cfg), "--out", str(out_a)])
        text_a = capsys.readouterr().out
        rc_b = main([command, "--config", str(cfg), "--out", str(out_b)])
        text_b = capsys.readouterr().out
        ok = ok and rc_a == rc_b == 0 and text_a == text_b
        if out_a.exists():
            for name in sorted(os.listdir(out_a)):
                bytes_a = (out_a / name).read_bytes()
                bytes_b = (out_b / name).read_bytes()
                if bytes_a != bytes_b:
                    ok = False
                    detail.append(f"{command}/{name} differs")
    report(11, "byte-identical CSVs for every subcommand", ok,
           "; ".join(detail) if detail else "all artifacts identical across reruns")
