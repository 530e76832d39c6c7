"""Configuration parsing and command-line driver behavior."""

import argparse
import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import anderloc
from anderloc import cli, spectrum
from anderloc.cli import _write_text, build_parser, csv_text, exit_code_for, main
from anderloc.config import (
    CertifySettings,
    CriticalSettings,
    GridSpec,
    IdsSettings,
    LocalizeSettings,
    LyapunovSettings,
    RunConfig,
    parse_config,
)
from anderloc.errors import (
    AnderlocError,
    ConfigError,
    DimensionError,
    FactorizationError,
    GridError,
    InstabilityError,
    OracleRangeError,
    ScanRangeError,
    SingularMatrixError,
    SizeGuardError,
)
from anderloc.furstenberg import tridiagonal_witness
from anderloc.lyapunov import EstimatorConfig
from anderloc.model import DisorderSpec, ModelParams, certified_window
from anderloc.spectrum import FiniteRestriction, estimate_ids, sample_restriction


def fresh_python(*args, **env):
    """Stdout of ``python *args`` in a new interpreter that imports this package; ``env`` None values are unset."""
    src = os.path.dirname(os.path.dirname(anderloc.__file__))
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    proc = subprocess.run([sys.executable, *args], env=child, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


MINIMAL = {
    "N": 1,
    "V": [[0.0]],
    "c": [1.0],
    "ell": 0.1,
    "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
    "seed": 7,
}


def config_with(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(config_with(**overrides))
    return str(path)


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(config_with())
        assert cfg.model.n == 1
        assert cfg.model.rho == 0.6931471805599453
        assert cfg.seed == 7
        assert cfg.lyapunov.n_steps == 20000

    def test_zero_coupling_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(c=[0.0]))
        assert any("non-zero" in v for v in exc.value.violations)

    def test_asymmetric_interaction_names_the_entry(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(N=2, V=[[0.0, 1.0], [1.1, 0.0]], c=[1.0, 1.0]))
        assert any("(0,1)" in v and "(1,0)" in v for v in exc.value.violations)

    def test_config_and_model_share_the_symmetry_rule(self):
        # relative to ||V||_F the largest entry gap is 0.8e-10, but ||V - t(V)||_F is 1.13e-10
        v = [[0.0, 1.0], [1.0 + 1.13e-10, 0.0]]
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(N=2, V=v, c=[1.0, 1.0]))
        assert any(w.startswith("V: ") and "(0,1)" in w and "(1,0)" in w for w in exc.value.violations)
        with pytest.raises(DimensionError, match=r"\(0,1\) and \(1,0\)"):
            ModelParams(n=2, v=np.array(v), c=np.ones(2), ell=0.1)
        # just inside the bound, both accept and symmetrize alike
        v = [[0.0, 1.0], [1.0 + 0.9e-10, 0.0]]
        model = ModelParams(n=2, v=np.array(v), c=np.ones(2), ell=0.1)
        assert np.array_equal(parse_config(config_with(N=2, V=v, c=[1.0, 1.0])).model.v, model.v)

    @pytest.mark.parametrize("c, violation", [([1.0, 0.0, 2.0], "c[1] is 0"), ([1.0, 2.0], "c must have length 3")])
    def test_config_and_model_share_the_coupling_rule(self, c, violation):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(N=3, V=np.eye(3).tolist(), c=c))
        assert any(v.startswith(violation) for v in exc.value.violations)
        with pytest.raises((ValueError, DimensionError), match=re.escape(violation)):
            ModelParams(n=3, v=np.eye(3), c=np.array(c), ell=0.1)

    @pytest.mark.parametrize("n", [None, 0, 2.0, True])
    def test_invalid_n_adds_no_shape_violations(self, n):
        doc = {"V": [[0, 1], [1, 0]], "c": [1, 1], "ell": 0.1} | ({} if n is None else {"N": n})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.violations == [f"N must be an integer >= 1, got {n!r}"]
        # type errors in V and c do not depend on N and are still reported
        doc.update(V=[[0, "1"], [1, 0]], c="1")
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.violations[1:] == ["V entries must be finite real numbers, got '1'",
                                            "c entries must be finite real numbers, got '1'"]

    @pytest.mark.parametrize("seed", [-1, 1 << 64, True, 1.5])
    def test_seed_key_outside_64_bits_exits_two(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, seed=seed)
        out = tmp_path / "out"
        assert main(["interval", "--config", path, "--out", str(out)]) == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(seed=seed))
        assert exc.value.violations == ["seed must be an unsigned 64-bit integer"]

    def test_atoms_must_cover_zero_and_one(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(disorder={"atoms": [[0.0, 0.5], [2.0, 0.5]]}))
        assert any("{0, 1}" in v for v in exc.value.violations)

    def test_all_violations_reported_at_once(self):
        bad = config_with(c=[0.0], ell=-1.0, rho=3.0)
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert len(exc.value.violations) >= 3

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_grid_block_forms(self):
        cfg = parse_config(config_with(lyapunov={"energies": [0.1, 0.2]}))
        assert cfg.lyapunov.grid.resolve(cfg.model).tolist() == [0.1, 0.2]
        cfg = parse_config(config_with(lyapunov={"grid": {"lo": 0.0, "hi": 1.0, "count": 5}}))
        assert len(cfg.lyapunov.grid.resolve(cfg.model)) == 5
        # a range is stored as its energies
        assert np.array_equal(cfg.lyapunov.grid.energies, np.linspace(0.0, 1.0, 5))
        cfg = parse_config(config_with())
        grid = cfg.lyapunov.grid.resolve(cfg.model)
        assert len(grid) == 21  # default grid spans the certified window
        assert abs(grid[0] - (1.0 - cfg.model.rho / 0.1)) < 1e-12

    def test_bad_block_fields(self):
        with pytest.raises(ConfigError):
            parse_config(config_with(lyapunov={"n_steps": 0}))
        with pytest.raises(ConfigError):
            parse_config(config_with(ids={"boundary": "periodic"}))
        with pytest.raises(ConfigError):
            parse_config(config_with(localize={"window": [2.0, 1.0]}))
        with pytest.raises(ConfigError):
            parse_config(config_with(localize={"window": [1.0, 1.0]}))
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(lyapunov={"energies": [0.1], "grid": {"lo": 0.0, "hi": 1.0}}))
        assert exc.value.violations == ["lyapunov takes 'energies' or 'grid', not both"]

    def test_grid_scan_keys_are_accepted_without_effect(self):
        # critical needs no energy grid, so these keys are ignored rather than rejected
        for block in ({"grid_step": 0.05, "refine_iters": 40}, {"grid_step": -1, "refine_iters": "x"}):
            cfg = parse_config(config_with(critical=block))
            assert vars(cfg.critical) == {}


def _rng_untouched(call):
    """Run ``call(rng)`` and assert it raised before drawing from ``rng``."""
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    try:
        call(rng)
    finally:
        assert rng.bit_generator.state == state


_ONE = ModelParams(n=1, v=np.zeros((1, 1)), c=np.ones(1), ell=0.1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ModelParams(n=2.0, v=np.eye(2), c=np.ones(2), ell=0.1),
         ValueError, "n must be an integer >= 1, got 2.0"),
        (lambda: ModelParams(n=True, v=np.eye(1), c=np.ones(1), ell=0.1), ValueError, "n must be an integer >= 1"),
        (lambda: ModelParams(n=1, v=np.eye(1), c=np.ones(1), ell=True), ValueError, "ell must be a positive finite"),
        (lambda: EstimatorConfig(n_steps=2.5), ValueError, "n_steps must be an integer >= 1, got 2.5"),
        (lambda: EstimatorConfig(n_steps=10, burn_in=True), ValueError, "burn_in must be an integer >= 0, got True"),
        (lambda: FiniteRestriction(2.5, "dirichlet", 0.0125, np.zeros((5, 1))), ValueError, "length_cells must be"),
        (lambda: FiniteRestriction(1, "dirichlet", True, np.zeros((2, 1))), GridError, "grid step h must be"),
        (lambda: _rng_untouched(lambda rng: sample_restriction(_ONE, 2.5, 0.0125, "dirichlet", rng)),
         ValueError, "length_cells must be an integer >= 1, got 2.5"),
        (lambda: _rng_untouched(lambda rng: sample_restriction(_ONE, 1, True, "dirichlet", rng)),
         GridError, "grid step h must be a positive finite number, got True"),
        (lambda: _rng_untouched(lambda rng: sample_restriction(_ONE, 10**12, 0.0125, "dirichlet", rng)),
         SizeGuardError, "the finite restriction at L = 1000000000000, h = 0.0125 needs about"),
        (lambda: estimate_ids(_ONE, [0.0], 2, 0.0125, n_samples=1.5), ValueError, "n_samples must be an integer"),
        # library seeds follow the seed rule of the config's seed key and --seed
        *((lambda seed=seed: EstimatorConfig(n_steps=10, master_seed=seed), ValueError, "seed must be an unsigned")
          for seed in (-1, True, 1.5, "3", 2**64)),
        *((lambda seed=seed: estimate_ids(_ONE, [0.0], 2, 0.0125, n_samples=1, master_seed=seed),
           ValueError, "seed must be an unsigned") for seed in (-1, True, 1.5, "3", np.int64(-1))),
        (lambda: ModelParams(n=1, v=np.eye(1), c=np.ones(1), ell=0.1, disorder=((0.0, 0.5), (1.0, 0.5))),
         ValueError, "disorder must be a DisorderSpec, got ((0.0, 0.5), (1.0, 0.5))"),
        (lambda: ModelParams(n=1, v=np.eye(1), c=np.ones(1), ell=0.1, disorder=None),
         ValueError, "disorder must be a DisorderSpec, got None"),
        (lambda: ModelParams(n=1, v=np.eye(1), c=np.ones(1), ell=0.1, disorder="bernoulli"),
         ValueError, "disorder must be a DisorderSpec, got 'bernoulli'"),
        # entries of V and c follow the number rule: no complex, string or boolean entries
        (lambda: ModelParams(n=2, v=[[0, 1j], [-1j, 0]], c=[1, 1], ell=0.1),
         ValueError, "V entries must be finite real numbers, got 1j"),
        (lambda: ModelParams(n=2, v=np.eye(2), c=np.array([1.0, 1j]), ell=0.1),
         ValueError, "c entries must be finite real numbers, got (1+0j)"),
        (lambda: ModelParams(n=2, v=[["0", "1"], ["1", "0"]], c=[1, 1], ell=0.1),
         ValueError, "V entries must be finite real numbers, got '0'"),
        (lambda: ModelParams(n=2, v=np.eye(2), c=["1", "1"], ell=0.1),
         ValueError, "c entries must be finite real numbers, got '1'"),
        (lambda: ModelParams(n=2, v=[[0, True], [True, 0]], c=[1, 1], ell=0.1),
         ValueError, "V entries must be finite real numbers, got True"),
        (lambda: ModelParams(n=2, v=np.eye(2, dtype=bool), c=[1, 1], ell=0.1),
         ValueError, "V entries must be finite real numbers, got True"),
        (lambda: ModelParams(n=2, v=np.eye(2), c=[True, 1.0], ell=0.1),
         ValueError, "c entries must be finite real numbers, got True"),
        (lambda: ModelParams(n=2, v=np.eye(2), c=np.ones(2, dtype=bool), ell=0.1),
         ValueError, "c entries must be finite real numbers, got True"),
        (lambda: DisorderSpec(((0.0, 0.5), (True, 0.5))), ValueError, "disorder atom entries must be"),
        (lambda: DisorderSpec(((0.0, 0.5), ("1", 0.5))), ValueError, "disorder atom entries must be"),
        (lambda: DisorderSpec(((0.0, 0.5), (1j, 0.5))), ValueError, "disorder atom entries must be"),
        (lambda: DisorderSpec(()), ValueError, "disorder law needs a non-empty list of (value, probability) pairs"),
        (lambda: DisorderSpec(((1.0, 0.5), (1.0, 0.5))), ValueError, "disorder atoms must have distinct values"),
        (lambda: FiniteRestriction(1, "dirichlet", 0.0125, np.zeros((3, 1))),
         ValueError, "omega_path must have 2L = 2 rows"),
    ],
)
def test_library_rejects_the_sizes_the_config_rejects(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        build()


def test_library_accepts_numpy_integers():
    params = ModelParams(n=np.int64(1), v=np.zeros((1, 1)), c=np.ones(1), ell=np.float64(0.1))
    assert params.n == 1 and type(params.n) is int
    est = EstimatorConfig(n_steps=np.int32(10), n_replicas=np.int64(2), burn_in=np.uint8(0), master_seed=np.int64(3))
    assert (est.n_steps, est.n_replicas, est.burn_in, est.master_seed) == (10, 2, 0, 3)
    assert type(est.master_seed) is int
    restriction = FiniteRestriction(np.int64(1), "neumann", np.float32(0.0125), np.zeros((2, 1)))
    assert restriction.length_cells == 1 and restriction.h == float(np.float32(0.0125))
    curve = estimate_ids(params, [0.0], np.int64(2), 0.0125, n_samples=np.int64(2))
    assert curve.values.shape == (1,)
    assert np.array_equal(estimate_ids(params, [0.0], 2, 0.0125, n_samples=2, master_seed=np.uint64(0)).values,
                          curve.values)
    # numpy integer and float arrays pass the number rule
    wide = ModelParams(n=2, v=np.array([[0, 1], [1, 0]], dtype=np.int32), c=np.array([1, 2], dtype=np.int8),
                       ell=0.1, disorder=DisorderSpec(np.array([[0.0, 0.5], [1.0, 0.5]], dtype=np.float32)))
    assert wide.v.tolist() == [[0.0, 1.0], [1.0, 0.0]] and wide.c.tolist() == [1.0, 2.0]
    assert wide.disorder == DisorderSpec.bernoulli()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, violation",
    [
        ({"certify": {"energies": [NAN, 1.0]}}, "certify.energies"),
        ({"N": 2, "V": [[0.0, NAN], [NAN, 0.0]], "c": [1.0, 1.0]}, "V entries"),
        ({"N": 2, "V": [[INF, 0.0], [0.0, 0.0]], "c": [1.0, 1.0]}, "V entries"),
        ({"c": [INF]}, "c entries"),
        ({"certify": {"tol": NAN}}, "certify.tol"),
        ({"critical": {"tol": INF}}, "critical.tol"),
        ({"lyapunov": {"grid": {"lo": 0.0, "hi": INF}}}, "lyapunov.grid"),
        ({"localize": {"window": [NAN, 1.0]}}, "localize.window"),
        ({"ids": {"h": INF}}, "ids.h"),
        ({"disorder": {"atoms": [[0.0, NAN], [1.0, 0.5]]}}, "disorder.atoms"),
        ({"ids": {"grid": {"lo": 0.0, "hi": 1.0, "count": True}}}, "ids.grid.count"),
        ({"N": 2, "V": [["0", "1"], [True, 0]], "c": [1.0, 1.0]}, "V entries"),
        ({"N": 2, "V": [[0.0, None], [None, 0.0]], "c": [1.0, 1.0]}, "V entries"),
        ({"V": [[10**400]]}, "V entries"),
        ({"certify": {"tol": None}}, "certify.tol"),
        ({"critical": {"tol": None}}, "critical.tol"),
        ({"ids": {"h": None}}, "ids.h"),
        ({"localize": {"h": None}}, "localize.h"),
        ({"localize": {"window": None}}, "localize.window"),
        ({"disorder": None}, "'disorder' block must be a JSON object"),
        ({"N": 2, "V": [[0.0, 1.0], [1.0, 0.0]], "c": [True, 1.0]}, "c entries"),
        ({"disorder": {"atoms": [[0.0, 0.5], [True, 0.5]]}}, "disorder.atoms"),
        # 2 rho / ell overflows: the window read [-inf, inf] and the default grids NaN
        ({"ell": 5e-324}, "ell = 5e-324 is too small"),
        ({"ell": 1e-310}, "ell = 1e-310 is too small"),
    ],
)
def test_non_finite_numbers_and_bool_counts_are_config_errors(tmp_path, capsys, overrides, violation):
    text = config_with(**overrides)  # json.dumps writes NaN and Infinity, which json.loads reads back
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(v.startswith(violation) for v in exc.value.violations)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for command in ("interval", "certify", "ids"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert violation in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "v",
    [[[0, "1"], ["1", 0]], [[0, True], [True, 0]], [[0, None], [None, 0]], [[0.0, NAN], [NAN, 0.0]],
     [[0.0, 1.0], [1.0]], [[0.0]], [[0.0, 1.0], [1.1, 0.0]], [[0.0, 1.0], [1.0 + 1.13e-10, 0.0]]],
)
def test_config_and_model_give_one_message_for_a_bad_interaction(v):
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with(N=2, V=v, c=[1.0, 1.0]))
    with pytest.raises((ValueError, DimensionError)) as lib:
        ModelParams(n=2, v=v, c=np.ones(2), ell=0.1)
    assert exc.value.violations == [str(lib.value)]


@pytest.mark.parametrize(
    "overrides, violations",
    [
        ({"ids": {"Length": 500}}, ["ids.Length is not a known key"]),
        ({"lyapunov": {"nsteps": 5}}, ["lyapunov.nsteps is not a known key"]),
        ({"sede": 3}, ["sede is not a known key"]),
        ({"zeta": 1, "Seed": 2}, ["Seed is not a known key", "zeta is not a known key"]),
        # a field name is not a config key, and localize takes no energy grid
        ({"localize": {"length_cells": 40, "energies": [0.5]}},
         ["localize.energies is not a known key", "localize.length_cells is not a known key"]),
        ({"critical": {"grid": {"lo": 0.0, "hi": 1.0}}}, ["critical.grid is not a known key"]),
        ({"ids": {"grid": {"lo": 0.0, "hi": 1.0, "Count": 5}}}, ["ids.grid.Count is not a known key"]),
        ({"disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]], "p": 0.3}}, ["disorder.p is not a known key"]),
        # the genericity verdict is exact, so neither block takes a rank tolerance
        ({"certify": {"tol": 1e-8}, "critical": {"tol": 1e-8}},
         ["certify.tol is not a known key", "critical.tol is not a known key"]),
        # the parser's other refusals, each with its one message
        ({"V": None}, ["V is required (N x N array)"]),
        ({"c": None}, ["c is required (length-N array of non-zero couplings)"]),
        # a block, a grid or a disorder law that is not an object gets one message, none about its keys
        ({"certify": None}, ["'certify' block must be a JSON object"]),
        ({"ids": [1, 2], "localize": "x"},
         ["'ids' block must be a JSON object", "'localize' block must be a JSON object"]),
        ({"lyapunov": {"grid": [0.0, 1.0]}}, ["'lyapunov.grid' block must be a JSON object"]),
        ({"disorder": [1, 2]}, ["'disorder' block must be a JSON object"]),
        ({"ids": {"grid": {"lo": 1.0, "hi": 0.0}}}, ["ids.grid needs lo <= hi"]),
        ({"certify": {"energies": []}}, ["certify.energies must be a non-empty list of finite numbers"]),
        # a given grid step must divide ell, by the rule the restriction applies
        ({"ids": {"h": 0.03}}, ["ids.h: grid step h = 0.03 does not divide the cell length ell = 0.1"]),
        ({"ids": {"h": 0.2}, "localize": {"h": 0.03}},
         ["ids.h: grid step h = 0.2 does not divide the cell length ell = 0.1",
          "localize.h: grid step h = 0.03 does not divide the cell length ell = 0.1"]),
        # a given step whose kinetic term 2/h^2 overflows (about h < 1.06e-154) is refused under its key
        ({"ell": 1e-150, "ids": {"h": 1e-155}},
         ["ids.h: grid step h = 1e-155 is too small: the kinetic term 2/h^2 is not a finite float"]),
        ({"ell": 1e-150, "localize": {"h": 1e-160}},
         ["localize.h: grid step h = 1e-160 is too small: the kinetic term 2/h^2 is not a finite float"]),
        # the step is checked against a valid model only
        ({"ids": {"h": 0.03}, "ell": -1.0}, ["ell must be a positive finite number, got -1.0"]),
        # a disorder law without atoms names the missing key, as a missing V or c does
        ({"disorder": {}}, ["disorder.atoms is required (list of [value, probability] pairs)"]),
        ({"disorder": {"atoms": None}}, ["disorder.atoms is required (list of [value, probability] pairs)"]),
    ],
)
def test_unknown_keys_are_config_errors(overrides, violations):
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with(**overrides))
    assert exc.value.violations == violations


def test_grid_step_defaults_to_an_eighth_of_ell():
    cfg = parse_config(config_with(ids={"h": 0.025}))
    assert cfg.ids.h == 0.025
    assert cfg.localize.h == 0.1 / 8.0


def test_top_level_value_must_be_an_object():
    with pytest.raises(ConfigError) as exc:
        parse_config("[1, 2]")
    assert exc.value.violations == ["top-level JSON value must be an object"]


@pytest.mark.parametrize("ell", [0.1, 0.3, 1.0 / 3.0, 0.7, 1e-7, 123.456])
def test_the_default_grid_step_is_never_refused(ell):
    cfg = parse_config(config_with(ell=ell))
    assert cfg.ids.h == cfg.localize.h == ell / 8.0
    assert spectrum._steps_per_cell(cfg.model, cfg.ids.h) == 8


def test_a_run_config_built_without_the_parser_defaults_the_grid_step():
    blocks = {"ids": {"energies": [0.5, 2.0], "L": 2, "n_samples": 1},
              "localize": {"window": [0.5, 0.9], "L": 4, "ref_steps": 100}}
    parsed = parse_config(config_with(**blocks))
    built = RunConfig(
        model=parsed.model,
        seed=parsed.seed,
        certify=CertifySettings(),
        critical=CriticalSettings(),
        lyapunov=LyapunovSettings(),
        ids=IdsSettings(grid=GridSpec(energies=(0.5, 2.0)), length_cells=2, n_samples=1),
        localize=LocalizeSettings(window=(0.5, 0.9), length_cells=4, ref_steps=100),
    )
    assert built.ids.h == built.localize.h == 0.1 / 8.0
    for command in (cli.cmd_ids, cli.cmd_localize):
        ours, theirs = command(built, 7), command(parsed, 7)
        assert (ours.stdout, ours.files, ours.status) == (theirs.stdout, theirs.files, theirs.status)


def test_default_localize_window_is_the_middle_quarter():
    cfg = parse_config(config_with())
    full, window = certified_window(cfg.model), cfg.localize.resolve_window(cfg.model)
    assert window.length == pytest.approx(full.length / 4.0, rel=1e-12)
    assert window.lo + window.hi == pytest.approx(full.lo + full.hi, rel=1e-12)


class TestExitCodeMapping:
    def test_config_like_errors_map_to_two(self):
        for exc in (ConfigError(["x"]), GridError("x"), ScanRangeError("x"), SizeGuardError("x"),
                    DimensionError("x"), AnderlocError("x")):
            assert exit_code_for(exc) == 2

    def test_numeric_errors_map_to_four(self):
        for exc in (InstabilityError("x"), FactorizationError("x"), SingularMatrixError("x"), OracleRangeError("x")):
            assert exit_code_for(exc) == 4


class TestCsvWriter:
    def test_atomic_write_and_formatting(self, tmp_path):
        path = str(tmp_path / "sub" / "table.csv")
        text = csv_text(["a", "b", "flag"], [(0.1, 2, True), (float(np.float64(0.25)), -3, False)])
        assert text == "a,b,flag\n0.1,2,1\n0.25,-3,0\n"
        _write_text(path, text)
        assert open(path).read() == text
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path / "sub"))

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _write_text(str(tmp_path / "table.csv"), csv_text(["a"], [(1,)]))
        assert os.listdir(tmp_path) == []


SMALL_BLOCKS = {
    "certify": {"grid": {"lo": -0.5, "hi": 0.5, "count": 3}},
    "critical": {"grid_step": 1.0, "refine_iters": 10},
    "lyapunov": {"energies": [0.3], "n_steps": 400, "n_replicas": 2},
    "ids": {"grid": {"lo": 0.5, "hi": 3.0, "count": 4}, "L": 8, "h": 0.025, "n_samples": 2},
    "localize": {"window": [0.5, 0.9], "L": 40, "ref_steps": 500},
}


class TestCommandLine:
    def test_interval_prints_constants(self, tmp_path, capsys):
        rc = main(["interval", "--config", write_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lambda_min = 0" in out
        assert "lambda_max = 1" in out
        assert "delta = 0.5" in out
        assert "ell_C = 1" in out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["interval", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        rc = main(["interval", "--config", str(path)])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    # json raises ValueError for an integer literal of more than 4300 digits and
    # RecursionError for nesting deeper than the interpreter's recursion limit
    @pytest.mark.parametrize("text", ['{"N": 1' + "0" * 4400 + "}", "[" * 100000 + "]" * 100000],
                             ids=["long-integer", "deep-nesting"])
    def test_undecodable_json_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["interval", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON: " in err and "Traceback" not in err

    def test_config_violations_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, c=[0.0])
        rc = main(["certify", "--config", path])
        assert rc == 2
        assert "non-zero" in capsys.readouterr().err

    def test_certify_writes_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["certify", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "certificates.csv")).readline().strip()
        assert header == "E,norm_ok,closure_dim,target_dim,certified"

    def test_critical_schema_and_clean_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["critical", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "critical.csv")).readline().strip()
        assert header == "E_lo,E_hi,E_mid,dim_reached,target_dim,tol"

    def test_critical_non_generic_exits_three(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "N": 2, "V": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, 1.0], "ell": 0.1,
            "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
            "critical": {"grid_step": 2.0, "refine_iters": 5},
        }))
        rc = main(["critical", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_commands_never_reach_lie_closure(self, tmp_path, capsys, monkeypatch):
        # the genericity verdict is read off V's coupling graph; the numerical closure is library code
        def refuse(*args, **kwargs):
            raise AssertionError("lie_closure called")

        monkeypatch.setattr(anderloc.furstenberg, "lie_closure", refuse)
        witness = write_config(tmp_path, N=2, V=[[0.0, 1.0], [1.0, 0.0]], c=[1.0, 1.0], **SMALL_BLOCKS)
        decoupled = write_config(tmp_path, "flat.json", N=2, V=[[0.0, 0.0], [0.0, 0.0]], c=[1.0, 1.0])
        out = str(tmp_path / "out")
        assert main(["certify", "--config", witness, "--out", out]) == 0
        assert main(["critical", "--config", witness, "--out", out]) == 0
        assert main(["critical", "--config", decoupled, "--out", out]) == 3

    def test_non_generic_note_names_the_channel_groups(self, tmp_path, capsys):
        # channels 0 and 2 are coupled, channel 1 is not; the diagonal couples nothing
        v = [[0.5, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 0.0]]
        path = write_config(tmp_path, N=3, V=v, c=[1.0, 1.0, 1.0], **SMALL_BLOCKS)
        note = ("non-generic interaction: closure deficient at every energy "
                "(uncoupled channel groups {0, 2}, {1})\n")
        assert main(["critical", "--config", path, "--out", str(tmp_path / "a")]) == 3
        assert capsys.readouterr() == ("", note)
        assert main(["report", "--config", path, "--out", str(tmp_path / "b")]) == 3
        assert capsys.readouterr().err == note
        summary = open(os.path.join(tmp_path, "b", "summary.txt")).read()
        assert "critical energies: non-generic interaction (deficient everywhere)" in summary

    def test_lyapunov_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["lyapunov", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "lyapunov.csv")).readline().strip()
        assert header == "E,gamma_1,gamma_2,stderr_1,stderr_2,n_steps,n_replicas,seed"

    def test_ids_schema_and_bad_grid_step(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["ids", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "ids.csv")).readline().strip()
        assert header == "E,N_hat,stderr,L,h,n_samples,boundary"
        blocks = dict(SMALL_BLOCKS)
        blocks["ids"] = dict(blocks["ids"], h=0.03)  # does not divide ell = 0.1
        bad = write_config(tmp_path, name="bad.json", **blocks)
        assert main(["ids", "--config", bad, "--out", out]) == 2

    DESK = {"N": 2, "V": [[0.0, 1.0], [1.0, 0.0]], "c": [1.0, 1.0], "ell": 0.1,
            "lyapunov": {"grid": {"lo": -4.5, "hi": 0.0, "count": 10}, "n_steps": 20000, "n_replicas": 8}}

    @pytest.mark.parametrize("command", ["interval", "certify", "critical", "lyapunov", "ids", "localize", "report"])
    @pytest.mark.parametrize("key", ["ids", "localize"])
    def test_a_grid_step_that_does_not_divide_ell_runs_no_command(self, tmp_path, capsys, monkeypatch, command, key):
        # report used to run certify, critical and the Lyapunov scan before ids exited 2
        def scan(*args):
            raise AssertionError("the Lyapunov scan ran")

        monkeypatch.setattr(cli, "separability_scan", scan)
        monkeypatch.setattr(cli, "lyapunov_spectrum", scan)
        path = write_config(tmp_path, **self.DESK, **{key: {"h": 0.03}})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error:\n"
                                f"  - {key}.h: grid step h = 0.03 does not divide the cell length ell = 0.1\n")
        assert captured.out == "" and not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("ell", [1e-200, 1e-160])
    def test_a_default_grid_step_too_small_for_the_band_exits_two(self, tmp_path, capsys, ell):
        # at ell / 8 the square of h underflows to 0 (ell 1e-200) or 2/h^2 overflows (ell 1e-160); the band
        # then failed with a traceback, and the commands that build no restriction still run
        path = write_config(tmp_path, ell=ell, ids={"n_samples": 1}, localize={"ref_steps": 10})
        assert main(["interval", "--config", path, "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        for command in ("ids", "localize"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (f"error: grid step h = {ell / 8!r} is too small: "
                                               "the kinetic term 2/h^2 is not a finite float\n")
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["interval", "certify", "critical", "lyapunov", "ids", "localize", "report"])
    def test_a_given_grid_step_too_small_for_the_band_runs_no_command(self, tmp_path, capsys, command):
        path = write_config(tmp_path, ell=1e-150, ids={"h": 1e-155})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("configuration error:\n  - ids.h: grid step h = 1e-155 is too small: "
                                           "the kinetic term 2/h^2 is not a finite float\n")
        assert not os.path.exists(tmp_path / "o")

    def test_localize_takes_the_midpoint_of_a_window_near_the_float_limit(self, tmp_path, capsys):
        # 0.5 * (lo + hi) overflowed to inf here, and the reference exponent crashed with exit 1
        path = write_config(tmp_path, V=[[1e308]])
        assert main(["localize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: decay window [1e+308, 1e+308] has zero width\n"

    def test_lyapunov_near_the_float_range_writes_finite_errors(self, tmp_path):
        # the default grid spans +-6.9e299: the replica spread used to square to inf, with a RuntimeWarning
        path = write_config(tmp_path, ell=1e-300, lyapunov={"n_steps": 200})
        out = tmp_path / "o"
        fresh_python("-W", "error", "-m", "anderloc.cli", "lyapunov", "--config", path, "--out", str(out))
        with open(out / "lyapunov.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        assert all(math.isfinite(float(value)) for row in rows for value in row.values())
        assert any(float(row["stderr_1"]) > 1e280 for row in rows)

    def test_localize_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["localize", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "decay.csv")).readline().strip()
        assert header == "eigenvalue,center,fitted_rate,residual,L,h"

    # c = 2 gives delta = 1, so ell_C = rho = log 2 < ell
    EMPTY_WINDOW = {"c": [2.0], "ell": 0.9}
    EMPTY_MESSAGE = ("error: certified energy window is empty (ell = 0.9 >= ell_C = 0.69314718056); "
                     "decrease ell, or give explicit energies or localize.window\n")

    @pytest.mark.parametrize("command", ["certify", "lyapunov", "ids", "localize", "critical", "report"])
    def test_empty_window_is_refused_once(self, tmp_path, capsys, command):
        # every command that needs the window, for its default energies or its range, gives one message
        path = write_config(tmp_path, **self.EMPTY_WINDOW)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", self.EMPTY_MESSAGE)
        assert not out.exists()

    def test_empty_window_on_explicit_energies(self, tmp_path, capsys):
        path = write_config(tmp_path, **self.EMPTY_WINDOW, certify={"energies": [-1.0, 0.0, 1.0]})
        assert main(["interval", "--config", path]) == 0
        assert "I = empty (ell >= ell_C)" in capsys.readouterr().out
        out = str(tmp_path / "out")
        assert main(["certify", "--config", path, "--out", out]) == 0
        assert capsys.readouterr().out.startswith("certified 0/3 energies")
        lines = open(os.path.join(out, "certificates.csv")).read().splitlines()
        assert lines[1:] == ["-1.0,0,3,3,0", "0.0,0,3,3,0", "1.0,0,3,3,0"]

    def test_size_guard_exits_two(self, tmp_path, capsys):
        # the spectral bounds come from two cells, so no command has a channel limit
        n = 24
        path = write_config(tmp_path, "big.json", N=n, V=tridiagonal_witness(n).tolist(), c=[1.0] * n,
                            ell=0.01, certify={"energies": [0.5]})
        assert main(["certify", "--config", path, "--out", str(tmp_path / "big")]) == 0
        assert "certified 1/1" in capsys.readouterr().out
        assert main(["interval", "--config", path, "--out", str(tmp_path / "big")]) == 0
        # 2^50 grid steps per cell (a band of about 4.5e15 entries) or 10^12 cells (a path of 2e12 entries) fit
        # no machine: both commands refuse them before drawing a path or building a band
        for size in ({"L": 1, "h": 0.1 / 2**50}, {"L": 10**12}):
            for command, block in (("ids", {"n_samples": 1}), ("localize", {"window": [0.5, 0.9], "ref_steps": 10})):
                path = write_config(tmp_path, **{command: {**block, **size}})
                # the first call imports what the command needs; only the second one is traced
                assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
                tracemalloc.start()
                try:
                    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1e6
                assert f"the finite restriction at L = {size['L']}, h = " in capsys.readouterr().err
                assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("sizes", [{"n_steps": 10**12}, {"n_replicas": 10**12}])
    def test_lyapunov_size_guard_exits_two(self, tmp_path, capsys, sizes):
        path = write_config(tmp_path, lyapunov={"energies": [0.3], "n_steps": 400, **sizes})
        assert main(["lyapunov", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the Lyapunov estimate at n_steps = ") and "Traceback" not in err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["certify", "lyapunov", "ids"])
    def test_grid_count_guard_exits_two(self, tmp_path, capsys, command):
        # 10^12 grid energies fit no machine: the configuration refuses the count before the command runs
        path = write_config(tmp_path, **{command: {"grid": {"lo": 0.0, "hi": 1.0, "count": 10**12}}})
        tracemalloc.start()
        try:
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        err = capsys.readouterr().err
        assert f"{command}.grid.count = 1000000000000 needs about 2e+06 GB, more than the " in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "o")

    def test_lyapunov_grid_count_guard_grows_with_n(self):
        # a lyapunov row has 4 N + 4 fields: at N = 50 a count that 2000 B per energy admits outgrows memory
        n = 50
        n_points = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 10_000
        grid = {"grid": {"lo": 0.0, "hi": 1.0, "count": n_points}}
        wide = dict(N=n, V=tridiagonal_witness(n).tolist(), c=[1.0] * n)
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(**wide, lyapunov=grid))
        assert len(exc.value.violations) == 1
        assert exc.value.violations[0].startswith(f"lyapunov.grid.count = {n_points} needs about ")
        assert exc.value.violations[0].endswith("decrease lyapunov.grid.count")
        # the other grids keep 2000 B per energy; so does lyapunov at N = 1, or where N is not valid
        assert len(parse_config(config_with(**wide, ids=grid)).ids.grid.energies) == n_points
        assert len(parse_config(config_with(lyapunov=grid)).lyapunov.grid.energies) == n_points
        with pytest.raises(ConfigError) as exc:
            parse_config(config_with(**dict(wide, N=0), lyapunov=grid))
        assert not any(v.startswith("lyapunov.grid.count") for v in exc.value.violations)

    def test_output_that_cannot_be_written_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a regular file where the output directory should go\n")
        path = write_config(tmp_path, **SMALL_BLOCKS)
        assert main(["critical", "--config", path, "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot write output: ") and "Traceback" not in captured.err
        assert captured.out == "" and taken.read_text().startswith("a regular file")

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["lyapunov", "--config", path, "--out", out1, "--seed", "1"]) == 0
        assert main(["lyapunov", "--config", path, "--out", out2, "--seed", "2"]) == 0
        a = open(os.path.join(out1, "lyapunov.csv")).read()
        b = open(os.path.join(out2, "lyapunov.csv")).read()
        assert a != b

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), str((1 << 65) - 1)])
    def test_seed_flag_outside_64_bits_exits_two(self, tmp_path, capsys, seed):
        # reduced modulo 2^64 these would alias 2^64 - 1, 0 and 2^64 - 1
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["lyapunov", "--config", path, "--out", str(out), "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_accepted_by_key_and_flag(self, tmp_path, capsys):
        top = (1 << 64) - 1
        assert parse_config(config_with(seed=top)).seed == top
        by_key = write_config(tmp_path, "key.json", **SMALL_BLOCKS, seed=top)
        by_flag = write_config(tmp_path, "flag.json", **SMALL_BLOCKS, seed=0)
        out_key, out_flag = str(tmp_path / "key"), str(tmp_path / "flag")
        assert main(["lyapunov", "--config", by_key, "--out", out_key]) == 0
        assert main(["lyapunov", "--config", by_flag, "--out", out_flag, "--seed", str(top)]) == 0
        a = open(os.path.join(out_key, "lyapunov.csv")).read()
        assert a == open(os.path.join(out_flag, "lyapunov.csv")).read()

    def test_report_composes_subcommands(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        solo = str(tmp_path / "solo")
        combo = str(tmp_path / "combo")
        for command in ("certify", "critical", "lyapunov", "ids", "localize"):
            assert main([command, "--config", path, "--out", solo]) == 0
        assert main(["report", "--config", path, "--out", combo]) == 0
        tables = ["certificates.csv", "critical.csv", "lyapunov.csv", "ids.csv", "decay.csv"]
        assert sorted(os.listdir(solo)) == sorted(tables)
        assert sorted(os.listdir(combo)) == sorted(tables + ["summary.txt", "plot_results.py"])
        for name in tables:
            with open(os.path.join(solo, name), "rb") as a:
                with open(os.path.join(combo, name), "rb") as b:
                    assert a.read() == b.read(), name

    def test_no_command_imports_scipy(self, tmp_path):
        # localize loads scipy's LAPACK extension module from its file, never the scipy package
        script = "\n".join([
            "import json, sys",
            "from anderloc.cli import main",
            "cfg, out = sys.argv[1:]",
            "for command in ('interval', 'certify', 'critical', 'lyapunov', 'ids', 'localize', 'report'):",
            "    assert main([command, '--config', cfg, '--out', out]) == 0, command",
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        ])
        stdout = fresh_python("-c", script, write_config(tmp_path, **SMALL_BLOCKS), str(tmp_path / "out"))
        assert json.loads(stdout.splitlines()[-1]) == []

    def test_summary_prints_the_separation_verdict(self, tmp_path, capsys):
        # gamma_1 > 0 here, but 200 steps cannot clear the 3 sigma bar at E = 2
        blocks = dict(SMALL_BLOCKS, lyapunov={"energies": [2.0], "n_steps": 200, "n_replicas": 4})
        path = write_config(tmp_path, **blocks)
        out = str(tmp_path / "out")
        assert main(["report", "--config", path, "--out", out]) == 0
        lines = open(os.path.join(out, "summary.txt")).read().splitlines()
        header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["E"])
        assert lines[header].split()[-1] == "separated"
        row = lines[header + 1].split()
        assert float(row[0]) == 2.0 and float(row[2]) > 0.0
        assert row[-1] == "no"

    def test_replicas_that_do_not_spread_are_inconclusive(self, tmp_path):
        # an almost sure atom makes every replica draw the same free path: gamma_1 > 0 is finite-n bias and the
        # replica spread is exactly 0, so no verdict may clear a 3 sigma bar of 0
        blocks = dict(SMALL_BLOCKS, lyapunov={"energies": [3.0, 5.0], "n_steps": 2000})
        path = write_config(tmp_path, disorder={"atoms": [[0.0, 1 - 1e-13], [1.0, 1e-13]]}, **blocks)
        out = tmp_path / "out"
        assert main(["report", "--config", path, "--out", str(out)]) == 0
        lyap = np.loadtxt(out / "lyapunov.csv", delimiter=",", skiprows=1)
        assert list(lyap[:, 0]) == [3.0, 5.0] and np.all(lyap[:, 1] > 0) and np.all(lyap[:, 3] == 0.0)
        lines = (out / "summary.txt").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["E"])
        assert [line.split()[-1] for line in lines[header + 1 : header + 3]] == ["no", "no"]

    @pytest.mark.parametrize("command, block", [("ids", {"n_samples": 1}), ("lyapunov", {"n_replicas": 1})])
    def test_one_sample_has_a_standard_error_of_zero(self, tmp_path, command, block):
        # one disorder path or one replica has no spread to measure (seeding._mean_stderr); that a single
        # replica's verdict is inconclusive is checked in test_lyapunov.py
        path = write_config(tmp_path, **{command: dict(SMALL_BLOCKS[command], **block)})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        with open(out / f"{command}.csv") as fh:
            errors = [v for row in csv.DictReader(fh) for k, v in row.items() if k.startswith("stderr")]
        assert errors and set(errors) == {"0.0"}


def test_readme_flags_match_the_parser():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    paragraph = readme[readme.index("Flags:"):].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    actions = build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert documented == options - {"--help", "--version"}


def test_readme_library_example_runs():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["generic"] and namespace["cert"].certified


def test_readme_configuration_matches_the_parser():
    from anderloc.config import _BLOCKS, _MODEL_KEYS, _block_keys

    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme[readme.index("### Configuration"):readme.index("### CSV schemas")]
    example = section[section.index("```json") + len("```json"):section.index("```\n\n")]
    parse_config(example)
    rows = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", section, re.M))
    blocks = {f"{name}.{key}" for name in _BLOCKS for key in _block_keys(name)}
    assert rows.keys() == _MODEL_KEYS | blocks
    # a default written as a code literal is the settings field's default
    defaults = parse_config(config_with())
    for name, (_, table) in _BLOCKS.items():
        for key, entry in table.items():
            default = rows[f"{name}.{key}"].strip()
            if entry is not None and default.startswith("`"):
                assert getattr(getattr(defaults, name), entry[0]) == json.loads(default.strip("`")), key
    # so is a model key's: writing it out changes nothing
    required = {key: MINIMAL[key] for key in ("N", "V", "c", "ell")}
    implicit = parse_config(json.dumps(required))
    read = {"seed": lambda cfg: cfg.seed, "disorder": lambda cfg: cfg.model.disorder}
    assert {key for key in _MODEL_KEYS if rows[key].strip().startswith("`")} == read.keys()
    for key, value in read.items():
        explicit = parse_config(json.dumps({**required, key: json.loads(rows[key].strip().strip("`"))}))
        assert value(explicit) == value(implicit), key
    assert rows["rho"].strip() == "log 2" and implicit.model.rho == math.log(2.0)


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_import_sets_one_openblas_thread_unless_set(preset, threads):
    script = ("import json, os, sys, anderloc; threads = os.environ.get('OPENBLAS_NUM_THREADS'); import anderloc.cli; "
              "print(json.dumps([threads, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    assert json.loads(fresh_python("-c", script, OPENBLAS_NUM_THREADS=preset)) == [threads, []]


# perfbench's report-desk configuration (perfbench/run.py DESK)
DESK = {
    "N": 2, "V": [[0.0, 1.0], [1.0, 0.0]], "c": [1.0, 1.0], "ell": 0.1,
    "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
    "certify": {"grid": {"lo": -4.5, "hi": 5.5, "count": 21}},
    "critical": {"grid_step": 0.1},
    "lyapunov": {"grid": {"lo": -4.5, "hi": 0.0, "count": 10}, "n_steps": 1000, "n_replicas": 8},
    "ids": {"grid": {"lo": 0.0, "hi": 8.0, "count": 17}, "L": 50, "h": 0.0125, "n_samples": 2},
    "localize": {"window": [-1.0, 3.0], "L": 60, "h": 0.0125, "n_paths": 2, "ref_steps": 4000},
}


def test_openblas_thread_count_leaves_every_csv_unchanged(tmp_path):
    cfg = tmp_path / "desk.json"
    cfg.write_text(json.dumps(DESK))
    tables = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        fresh_python("-m", "anderloc.cli", "report", "--config", str(cfg), "--out", str(out), "--seed", "0",
                     OPENBLAS_NUM_THREADS=threads)
        tables[threads] = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert len(tables["1"]) == 5 and tables["1"] == tables["2"]


def test_exports_resolve():
    # the modules' __all__ lists are the one list of the names the package publishes
    published = set()
    for info in pkgutil.iter_modules(anderloc.__path__):
        module = importlib.import_module(f"anderloc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"anderloc.{info.name}.__all__ lists missing {name}"
            assert getattr(anderloc, name) is getattr(module, name), f"anderloc.{name} is not anderloc.{info.name}.{name}"
            published.add(name)
    public = {name for name, value in vars(anderloc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == published
