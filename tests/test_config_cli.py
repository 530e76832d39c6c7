"""Configuration parsing and command-line driver behavior."""

import argparse
import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import anderloc
from anderloc.cli import build_parser, exit_code_for, main, write_csv
from anderloc.config import parse_config, resolve_h
from anderloc.errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GridError,
    InstabilityError,
    ScanRangeError,
    SizeGuardError,
)
from anderloc.lyapunov import EstimatorConfig
from anderloc.model import DisorderSpec, ModelParams
from anderloc.spectrum import FiniteRestriction, estimate_ids, sample_restriction

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
        (lambda: estimate_ids(_ONE, [0.0], 2, 0.0125, n_samples=1.5), ValueError, "n_samples must be an integer"),
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
    ],
)
def test_library_rejects_the_sizes_the_config_rejects(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        build()


def test_library_accepts_numpy_integers():
    params = ModelParams(n=np.int64(1), v=np.zeros((1, 1)), c=np.ones(1), ell=np.float64(0.1))
    assert params.n == 1 and type(params.n) is int
    est = EstimatorConfig(n_steps=np.int32(10), n_replicas=np.int64(2), burn_in=np.uint8(0))
    assert (est.n_steps, est.n_replicas, est.burn_in) == (10, 2, 0)
    restriction = FiniteRestriction(np.int64(1), "neumann", np.float32(0.0125), np.zeros((2, 1)))
    assert restriction.length_cells == 1 and restriction.h == float(np.float32(0.0125))
    curve = estimate_ids(params, [0.0], np.int64(2), 0.0125, n_samples=np.int64(2))
    assert curve.n_samples == 2
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
        ({"disorder": None}, "disorder.atoms"),
        ({"N": 2, "V": [[0.0, 1.0], [1.0, 0.0]], "c": [True, 1.0]}, "c entries"),
        ({"disorder": {"atoms": [[0.0, 0.5], [True, 0.5]]}}, "disorder.atoms"),
    ],
)
def test_non_finite_numbers_and_bool_counts_are_config_errors(tmp_path, capsys, overrides, violation):
    text = config_with(**overrides)  # json.dumps writes NaN and Infinity, which json.loads reads back
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(v.startswith(violation) for v in exc.value.violations)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for command in ("interval", "certify"):
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
    ],
)
def test_unknown_keys_are_config_errors(overrides, violations):
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with(**overrides))
    assert exc.value.violations == violations


def test_grid_step_defaults_to_an_eighth_of_ell():
    cfg = parse_config(config_with(ids={"h": 0.025}))
    assert resolve_h(cfg.ids.h, cfg.model) == 0.025
    assert resolve_h(cfg.localize.h, cfg.model) == 0.1 / 8.0


class TestExitCodeMapping:
    def test_config_like_errors_map_to_two(self):
        for exc in (ConfigError(["x"]), GridError("x"), ScanRangeError("x"), SizeGuardError("x")):
            assert exit_code_for(exc) == 2

    def test_numeric_errors_map_to_four(self):
        for exc in (InstabilityError("x"), FactorizationError("x")):
            assert exit_code_for(exc) == 4


class TestCsvWriter:
    def test_atomic_write_and_formatting(self, tmp_path):
        path = str(tmp_path / "sub" / "table.csv")
        write_csv(path, ["a", "b", "flag"], [(0.1, 2, True), (float(np.float64(0.25)), -3, False)])
        text = open(path).read()
        assert text == "a,b,flag\n0.1,2,1\n0.25,-3,0\n"
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path / "sub"))


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

    def test_localize_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, **SMALL_BLOCKS)
        out = str(tmp_path / "out")
        assert main(["localize", "--config", path, "--out", out]) == 0
        header = open(os.path.join(out, "decay.csv")).readline().strip()
        assert header == "eigenvalue,center,fitted_rate,residual,L,h"

    def test_size_guard_exits_two(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        n = 21
        path.write_text(json.dumps({
            "N": n, "V": np.zeros((n, n)).tolist(), "c": [1.0] * n, "ell": 0.1,
            "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
            "certify": {"energies": [0.0]},
        }))
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        # 2^50 grid steps per cell: the eigensolver's dense workspace fits no machine
        path = write_config(tmp_path, localize={"window": [0.5, 0.9], "L": 1, "h": 0.1 / 2**50, "ref_steps": 10})
        assert main(["localize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "localize at L = 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

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

    def test_only_localize_imports_scipy(self, tmp_path):
        script = "\n".join([
            "import json, sys",
            "from anderloc.cli import main",
            "cfg, out = sys.argv[1:]",
            "for command in ('interval', 'certify', 'critical', 'lyapunov', 'ids'):",
            "    assert main([command, '--config', cfg, '--out', out]) == 0, command",
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert main(['localize', '--config', cfg, '--out', out]) == 0",
            "print(json.dumps([before, 'scipy.linalg' in sys.modules]))",
        ])
        src = os.path.dirname(os.path.dirname(anderloc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", script, write_config(tmp_path, **SMALL_BLOCKS), str(tmp_path / "out")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], True]

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


def test_exports_resolve():
    # every __all__ name exists, and every name the package imports is in its module's __all__
    modules = {}
    for info in pkgutil.iter_modules(anderloc.__path__):
        module = importlib.import_module(f"anderloc.{info.name}")
        modules[info.name] = module
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"anderloc.{info.name}.__all__ lists missing {name}"
    tree = ast.parse(open(anderloc.__file__).read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = modules[node.module].__all__
            for alias in node.names:
                assert alias.name in exported, f"anderloc imports {alias.name}, not in {node.module}.__all__"
