"""Tests for the command line front end.

The pipelines themselves are exercised end to end on deliberately small
configurations; the numerical content they delegate to is covered by the
per-module suites, so the assertions here target the contract of the
front end itself: schema strictness, precedence of flags over
environment over config, exit codes per failure class, manifest
completeness, and byte-level reproducibility of the CSV artifacts.
"""

import csv
import importlib
import io
import json
import math
import multiprocessing
import os
import pkgutil
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbmlab
import sbmlab.cli as cli_module
from sbmlab.barriers import sandwich_bounds, solve_hA
from sbmlab.cli import (
    EXIT_BUDGET,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    CliConfigError,
    ExperimentConfig,
    load_bank,
    main,
    run_pipeline,
    save_bank,
)
from sbmlab.extremal import ClusterBank
from sbmlab.fronts import FrontsError
from sbmlab.particles import simulate

QUAD = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "none"}}
JUMPS = {
    "alpha": 1.0,
    "beta": 0.0,
    "levy": {"kind": "truncated-stable", "c": 1.0, "index": 1.5, "cutoff": 5.0},
}


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="the constants run in worker processes only where fork and CPU affinity exist",
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def check_manifest_covers_dir(out_dir):
    """Every artifact listed exists, and every file on disk is listed once."""
    manifest = manifest_of(out_dir)
    listed = [e["path"] for e in manifest["outputs"]]
    assert len(listed) == len(set(listed))
    for rel in listed:
        assert os.path.isfile(os.path.join(out_dir, rel)), rel
    on_disk = []
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), out_dir)
            if rel != "manifest.json":
                on_disk.append(rel)
    assert sorted(on_disk) == sorted(listed)
    return manifest


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(CliConfigError, match="unknown top-level"):
            ExperimentConfig.from_sources("kpp", {"mechanism": QUAD, "grids": {}}, env={})

    def test_unknown_block_key_rejected(self):
        with pytest.raises(CliConfigError, match="kpp"):
            ExperimentConfig.from_sources("kpp", {"kpp": {"dx": 0.1, "dxx": 1}}, env={})

    def test_other_pipeline_blocks_are_validated_too(self):
        with pytest.raises(CliConfigError, match="barriers"):
            ExperimentConfig.from_sources("kpp", {"barriers": {"junk": 1}}, env={})

    def test_pipeline_name_mismatch_rejected(self):
        with pytest.raises(CliConfigError, match="asks for"):
            ExperimentConfig.from_sources("kpp", {"pipeline": "csbp"}, env={})

    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(CliConfigError, match="seed"):
            ExperimentConfig.from_sources("kpp", {"seed": "twelve"}, env={})
        with pytest.raises(CliConfigError, match="t_end"):
            ExperimentConfig.from_sources("kpp", {"kpp": {"t_end": True}}, env={})

    def test_boolean_not_accepted_as_number(self):
        with pytest.raises(CliConfigError, match="boolean"):
            ExperimentConfig.from_sources("kpp", {"kpp": {"dx": True}}, env={})

    def test_stochastic_pipeline_needs_seed(self):
        with pytest.raises(CliConfigError, match="stochastic"):
            ExperimentConfig.from_sources("simulate", {}, env={})

    def test_deterministic_pipeline_runs_without_seed(self):
        config = ExperimentConfig.from_sources("kpp", {}, env={})
        assert config.seed is None

    def test_mechanism_defaults_to_quadratic(self):
        config = ExperimentConfig.from_sources("kpp", {}, env={})
        assert config.mechanism.alpha == 1.0
        assert config.mechanism.beta == 1.0
        assert config.mechanism.levy.kind == "none"

    def test_unknown_levy_kind_rejected(self):
        bad = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "cauchy"}}
        with pytest.raises(CliConfigError, match="kind"):
            ExperimentConfig.from_sources("kpp", {"mechanism": bad}, env={})

    def test_extra_levy_key_rejected(self):
        bad = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "none", "c": 2.0}}
        with pytest.raises(CliConfigError, match="levy"):
            ExperimentConfig.from_sources("kpp", {"mechanism": bad}, env={})

    def test_bad_phi_spec_rejected(self):
        data = {"fronts": {"phi": {"kind": "bump", "center": 0.0, "width": -1.0, "height": 1.0}}}
        with pytest.raises(CliConfigError, match="fronts.phi"):
            ExperimentConfig.from_sources("fronts", data, env={})


# config mistakes that only a library constructor or validator catches; each
# must exit 2 naming the key before the run directory is made
CONFIG_MISTAKES = [
    ("fronts", {"fronts": {"r_ladder": [4, 8]}}, "fronts.r_ladder"),
    ("ldp", {"ldp": {"r_ladder": [4, 8]}}, "ldp.r_ladder"),
    ("kpp", {"kpp": {"t_end": 1, "dt": 0.3}}, "kpp.dt"),
    ("csbp", {"csbp": {"theta_grid": [-1]}}, "csbp.theta_grid"),
    ("barriers", {"barriers": {"strip_times": [0.5, 1.0]}}, "strip_times"),
    ("barriers", {"barriers": {"m_ladder": [1e2, 1e3, 1e4]}}, "m_ladder"),
    ("barriers", {"barriers": {"n_cells": 32}}, "n_cells"),
    ("barriers", {"barriers": {"theta": 1.5}}, "barriers.theta"),
    ("fk", {"seed": 1, "fk": {"r": 2, "t": 1}}, "fk.r"),
    ("fk", {"seed": 1, "fk": {"r": 0.4, "t": 1.0, "dt": 0.2}}, "fk.dt"),
    (
        "kpp",
        {"kpp": {"data": {"kind": "bump", "center": 0.0, "width": -1.0, "height": 1.0}}},
        "kpp.data",
    ),
    (
        "fronts",
        {"fronts": {"phi": {"kind": "table", "ys": [0, 1], "vals": [1, -1]}}},
        "fronts.phi.vals",
    ),
    ("simulate", {"seed": 1, "simulate": {"bank": {"z": 0.0}}}, "simulate.bank.n_accept"),
    # banks come only from simulate; extremal reads one and must be told where
    ("extremal", {"seed": 1, "extremal": {"c_tilde_0": 1.0, "bank": "b", "build": {}}}, "build"),
    ("extremal", {"seed": 1, "extremal": {"c_tilde_0": 1.0}}, "extremal.bank"),
    ("simulate", {"seed": 1, "simulate": {"stats_only": False}}, "stats_only"),
    (
        "extremal",
        {"seed": 1, "extremal": {"c_tilde_0": 1.0, "bank": "b", "stability": {"a": 1.0}}},
        "extremal.stability.a",
    ),
    # a time off its block's step grid exits 2 at parse, before any file
    ("fronts", {"fronts": {"r_ladder": [4.005, 8, 16]}}, "fronts.r_ladder"),
    ("ldp", {"ldp": {"r_ladder": [4.005, 8, 16]}}, "ldp.r_ladder"),
    ("kpp", {"kpp": {"snapshots": [0.013]}}, "kpp.snapshots"),
    ("simulate", {"seed": 1, "simulate": {"dt": 0.025, "snapshots": [1.013]}}, "simulate.snapshots"),
    ("simulate", {"seed": 1, "simulate": {"dt": 0.025, "t_end": 2.01}}, "simulate.t_end"),
    (
        "simulate",
        {"seed": 1, "simulate": {"dt": 0.025, "bank": {"z": 0.0, "t": 2.01, "n_accept": 1}}},
        "simulate.bank.t",
    ),
    # NaN and infinities in a number key or a list entry
    ("kpp", {"kpp": {"pad": 1e400}}, "kpp.pad"),
    ("kpp", {"kpp": {"t_end": 1e400}}, "kpp.t_end"),
    ("fk", {"seed": 1, "fk": {"x": math.nan}}, "fk.x"),
    ("csbp", {"csbp": {"t_grid": [math.nan]}}, "csbp.t_grid"),
    (
        "simulate",
        {"seed": 1, "simulate": {"bank": {"z": math.nan, "n_accept": 1}}},
        "simulate.bank.z",
    ),
    # a grid or a particle march past 10^7 nodes per row or steps
    ("kpp", {"kpp": {"dx": 1e-9}}, "62627416999 nodes per row"),
    ("kpp", {"kpp": {"dt": 1e-7}}, "80000000 steps"),
    ("fk", {"seed": 1, "fk": {"dx": 1e-9}}, "30828427127 nodes per row"),
    ("fk", {"seed": 1, "fk": {"dt": 5e-8}}, "20000000 steps"),
    ("simulate", {"seed": 1, "simulate": {"dt": 1e-7}}, "80000000 steps"),
    # and in the jump measure
    (
        "mech-check",
        {"mechanism": {"levy": {"kind": "atoms", "atoms": [[math.nan, 1.0]]}}},
        "mechanism",
    ),
    # a boolean is no number, and its message names the types as the others do
    ("kpp", {"kpp": {"t_end": True}}, "kpp.t_end: expected int/float, got a boolean"),
    # nor is a boolean or a numeric string one in the mechanism or simulate.initial
    ("mech-check", {"mechanism": {"alpha": True, "beta": 1.0}}, "mechanism.alpha"),
    ("mech-check", {"mechanism": {"beta": "2"}}, "mechanism.beta"),
    (
        "mech-check",
        {"mechanism": {"levy": {"kind": "truncated-stable", "c": True, "index": 1.5}}},
        "mechanism.levy.c",
    ),
    (
        "mech-check",
        {"mechanism": {"levy": {"kind": "truncated-stable", "c": "1", "index": 1.5}}},
        "mechanism.levy.c",
    ),
    ("mech-check", {"mechanism": {"levy": {"kind": "atoms", "atoms": [[1, True]]}}}, "mechanism.levy.atoms"),
    ("mech-check", {"mechanism": {"levy": {"kind": "atoms", "atoms": [["1", 1]]}}}, "mechanism.levy.atoms"),
    ("simulate", {"seed": 1, "simulate": {"initial": [["0", "1"]]}}, "simulate.initial"),
    ("simulate", {"seed": 1, "simulate": {"initial": [[0.0, True]]}}, "simulate.initial"),
    # unknown keys inside the nested blocks of a pipeline that is not run
    ("kpp", {"simulate": {"bank": {"z": 0.0, "n_accept": 1, "zz": 1}}}, "simulate.bank: unknown keys"),
    (
        "kpp",
        {"extremal": {"c_tilde_0": 1.0, "bank": "b", "stability": {"zz": 1}}},
        "extremal.stability: unknown keys",
    ),
    (
        "kpp",
        {"fronts": {"phi": {"kind": "bump", "center": 1.0, "width": 1.0, "height": 1.0, "zz": 1}}},
        "fronts.phi: unknown keys",
    ),
    # a strip wider than solve_hA accepts exits 2, not 3 after the run started
    ("barriers", {"barriers": {"A": 30}}, "barriers.A"),
    # so do an a whose e^(sqrt(2) a) rounds to 1, more expected points than a draw
    # takes, and an initial atom lighter than half a particle
    (
        "extremal",
        {"seed": 1, "extremal": {"c_tilde_0": 1.0, "bank": "b", "stability": {"a": -1e-20}}},
        "extremal.stability.a",
    ),
    ("extremal", {"seed": 1, "extremal": {"c_tilde_0": 1.0, "bank": "b", "expected_points": 1e20}},
     "extremal.expected_points"),
    ("simulate", {"seed": 1, "simulate": {"initial": [[0, 0.1]], "epsilon": 0.5}},
     "simulate: initial atom of weight 0.1"),
]


# "<pipeline>-<key>", and the case's index after it where an earlier case has that id
MISTAKE_IDS = [
    f"{p}-{k}" + (f"-{i}" if (p, k) in [(q, c) for q, _, c in CONFIG_MISTAKES[:i]] else "")
    for i, (p, _, k) in enumerate(CONFIG_MISTAKES)
]


@pytest.mark.parametrize("pipeline,data,key", CONFIG_MISTAKES, ids=MISTAKE_IDS)
def test_config_mistake_exits_2_before_the_run(tmp_path, capsys, pipeline, data, key):
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([pipeline, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestPrecedence:
    def test_flag_beats_env_beats_config(self):
        data = {"seed": 1, "replicas": 10}
        env = {"SBMLAB_SEED": "2", "SBMLAB_REPLICAS": "20"}
        config = ExperimentConfig.from_sources("simulate", data, env=env)
        assert config.seed == 2 and config.replicas == 20
        config = ExperimentConfig.from_sources("simulate", data, seed=3, replicas=30, env=env)
        assert config.seed == 3 and config.replicas == 30
        config = ExperimentConfig.from_sources("simulate", data, env={})
        assert config.seed == 1 and config.replicas == 10

    def test_env_out_and_quiet(self, tmp_path):
        env = {"SBMLAB_OUT": str(tmp_path / "envdir"), "SBMLAB_QUIET": "true"}
        config = ExperimentConfig.from_sources("kpp", {}, env=env)
        assert config.out == tmp_path / "envdir"
        assert config.quiet is True

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch, source):
        cfg = write_config(tmp_path, {"seed": -1} if source == "config" else {})
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg, "--out", str(out), "--quiet"]
        if source == "flag":
            argv += ["--seed", "-1"]
        monkeypatch.setenv("SBMLAB_SEED", "-1" if source == "env" else "")
        assert main(argv) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_env_value_is_config_error(self):
        with pytest.raises(CliConfigError, match="SBMLAB_SEED"):
            ExperimentConfig.from_sources("simulate", {}, env={"SBMLAB_SEED": "soon"})
        with pytest.raises(CliConfigError, match="SBMLAB_QUIET"):
            ExperimentConfig.from_sources("kpp", {}, env={"SBMLAB_QUIET": "maybe"})

    def test_default_out_and_replicas(self):
        config = ExperimentConfig.from_sources("fk", {"seed": 5}, env={})
        assert str(config.out) == os.path.join("runs", "fk")
        assert config.replicas == 20000

    def test_hash_ignores_out_and_quiet_but_not_seed(self):
        base = ExperimentConfig.from_sources("simulate", {"seed": 1}, env={})
        moved = ExperimentConfig.from_sources(
            "simulate", {"seed": 1}, out="elsewhere", quiet=True, env={}
        )
        reseeded = ExperimentConfig.from_sources("simulate", {"seed": 2}, env={})
        assert base.config_hash == moved.config_hash
        assert base.config_hash != reseeded.config_hash

    def test_hash_is_frozen(self):
        # recorded before the mechanism's JSON form moved to mechanism.py;
        # the canonical form, and every hash made from it, must not change
        config = ExperimentConfig.from_sources("csbp", {"mechanism": JUMPS}, env={})
        assert config.config_hash == (
            "a18bffcecdcacc0d2e26ca598459b00fb6beb9f2a5bdd802e7bd373a8e512790"
        )


# one config per pipeline and its config_sha256, which parsing must never
# move.  The barriers hash reflects that block's schema: a, b, theta and A
# only, with no strip_times, m_ladder or n_cells key.  The simulate block has
# no stats_only key, and the extremal hash leaves out where its bank lives.
PINNED_HASHES = {
    "mech-check": ({}, "5834ce6e8f1575b0022311e71912b0080f4eec12afe42b551d10ecb8e8d950a2"),
    "kpp": (
        {"kpp": {"t_end": 1.0, "dx": 0.1, "dt": 0.025, "pad": 8.0, "snapshots": [0.5]}},
        "70ac28c54a80bfae8fd27bf7fc8fc8d25b695ddd0ba4a5edfaf1739bf0053d65",
    ),
    "csbp": (
        {"csbp": {"theta_grid": [1, 2.0], "t_grid": [0.25, 0.5]}},
        "71e1a4edfda8e77f14d0e38f8b4797db724843c35f2f0015b8a27a9ecbba11d6",
    ),
    "fk": (
        {
            "seed": 7,
            "replicas": 4000,
            "fk": {"r": 0.5, "t": 1.0, "data": {"kind": "indicator", "lam": 0.5}},
        },
        "deb6014e797e7ea3cf5014b3d7a01a9d35373c0f7b01c44a26c70fc6037ea8ef",
    ),
    "fronts": (
        {
            "fronts": {
                "phi": {"kind": "bump", "center": 1.0, "width": 1.0, "height": 1.0},
                "r_ladder": [4, 8, 16],
            }
        },
        "1c5f406e16fcf865a3ce5273a4bbc274881c251745a920b52bfb0a6c0f4c792e",
    ),
    "ldp": (
        {"ldp": {"delta": 0.5, "r_ladder": [3.0, 6.0, 12.0]}},
        "8498816f056291385fb91c64c5f7a2e2942e56013c7b5d66577c07b05b143742",
    ),
    "simulate": (
        {
            "seed": 11,
            "replicas": 50,
            "simulate": {
                "t_end": 2.0,
                "snapshots": [1.0, 2.0],
                "bank": {"z": 0.0, "t": 2.0, "n_accept": 5},
            },
        },
        "526b12a5e5f80afc4afbbe0d873317aa3b533aadbfdb6bc7a09e579da5f833ff",
    ),
    "extremal": (
        {
            "seed": 13,
            "replicas": 40,
            "extremal": {
                "c_tilde_0": 3.42,
                "bank": "runs/simulate/bank",
                "stability": {"n_samples": 60},
            },
        },
        "315e36ddf83ac45aa3dd2d0c9d795b2f598332ed5c63c9c5e627084bf954701b",
    ),
    "barriers": (
        {"barriers": {"a": 1.0, "b": 1.0, "theta": 1.0, "A": 5.0}},
        "d836d1b842e2757bd9f16a97f02028b3604e5239d7b0cee2c1c336b7e2e9e748",
    ),
}


@pytest.mark.parametrize("pipeline", sorted(PINNED_HASHES))
def test_config_hash_is_pinned(pipeline):
    data, digest = PINNED_HASHES[pipeline]
    assert ExperimentConfig.from_sources(pipeline, data, env={}).config_hash == digest


class TestMainUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_pipeline_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["kpp", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["kpp", "--config", str(path)]) == EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    def test_import_leaves_scipy_stats_unloaded(self):
        # every CLI run pays for importing sbmlab.cli; scipy.stats serves
        # only the extremal stability check, which imports it itself,
        # nothing in the package calls scipy.integrate, and the package's
        # own Brent root finder stands in for scipy.optimize
        src = str(Path(sbmlab.__file__).resolve().parents[1])
        probe = (
            "import sys, sbmlab.cli; "
            "print(*(m in sys.modules for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize')))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "False"]

    def test_every_exported_name_resolves(self):
        modules = ["sbmlab"] + [f"sbmlab.{m.name}" for m in pkgutil.iter_modules(sbmlab.__path__)]
        missing = []
        for name in modules:
            module = importlib.import_module(name)
            missing += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
        assert missing == []


class TestMechCheckPipeline:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "mech"
        assert main(["mech-check", "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        manifest = check_manifest_covers_dir(str(out))
        assert manifest["status"] == "ok"
        assert manifest["config_sha256"]
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "sbmlab"}
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["h1"] is True
        assert abs(report["lambda_star"] - 1.0) < 1e-9


class TestCsbpPipeline:
    def test_tables_and_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"csbp": {"theta_grid": [1.0, 2.0], "t_grid": [0.25, 0.5], "extinction": True}},
        )
        out = tmp_path / "csbp"
        assert main(["csbp", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        rows = (out / "laplace.csv").read_text().strip().splitlines()
        assert rows[0] == "theta,t,laplace"
        assert len(rows) == 5
        ext = (out / "extinction.csv").read_text().strip().splitlines()
        assert len(ext) == 3
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert abs(summary["lambda_star"] - 1.0) < 1e-9
        assert abs(summary["extinction_limit"] - math.exp(-1.0)) < 1e-12

    def test_jump_mechanism_extinction(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"mechanism": JUMPS, "csbp": {"theta_grid": [2.0], "t_grid": [0.5, 1.0], "extinction": True}},
        )
        out = tmp_path / "csbp"
        assert main(["csbp", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        ext = (out / "extinction.csv").read_text().strip().splitlines()
        assert ext[0] == "t,prob,v_bar,converged"
        t, prob, v_bar, converged = ext[2].split(",")
        assert float(t) == 1.0 and converged == "1"
        # v_bar(1) of this mechanism, from a DOP853 flow started at theta = 1e16
        assert float(v_bar) == pytest.approx(1.69878898, rel=1e-7)
        assert float(prob) == pytest.approx(math.exp(-float(v_bar)), rel=1e-12)


class TestKppPipeline:
    CFG = {"kpp": {"t_end": 1.0, "dx": 0.1, "dt": 0.025, "pad": 8.0}}

    def test_profiles_median_and_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "kpp"
        assert main(["kpp", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        manifest = check_manifest_covers_dir(str(out))
        assert manifest["diagnostics"]["solve"]["reaction"] == "logistic"
        assert manifest["diagnostics"]["solve"]["steps"] == 40
        assert 0.0 <= manifest["diagnostics"]["solve"]["max_guard_drift"] <= 1e-6
        header = (out / "profiles.csv").read_text().splitlines()[0]
        assert header.split(",") == ["x", "u_t0", "u_t0.25", "u_t0.5", "u_t1"]
        med = (out / "median.csv").read_text().splitlines()
        assert med[0] == "t,median_x,front_m,lag"
        script = (out / "front_profiles.gp").read_text()
        assert '"profiles.csv"' in script and "using 1:5" in script

    def test_byte_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["kpp", "--config", cfg, "--out", str(out1), "--quiet"]) == EXIT_OK
        assert main(["kpp", "--config", cfg, "--out", str(out2), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        for name in ("profiles.csv", "median.csv", "front_profiles.gp"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1, m2 = manifest_of(str(out1)), manifest_of(str(out2))
        for m in (m1, m2):
            m.pop("created_utc")
            m.pop("wall_times_s")
        assert m1 == m2

    def test_front_touching_boundary_is_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"kpp": {"t_end": 1.0, "dx": 0.1, "dt": 0.02, "pad": 1.0}}
        )
        out = tmp_path / "tight"
        assert main(["kpp", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERIC
        assert "numeric-error" in capsys.readouterr().err
        manifest = manifest_of(str(out))
        assert manifest["status"] == "numeric-error"
        assert "enlarge the domain" in manifest["message"]


class TestFkPipeline:
    def test_agreement_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "seed": 7,
                "replicas": 4000,
                "fk": {"r": 0.5, "t": 1.0, "x": 0.0, "path_dt": 0.01,
                       "dx": 0.04, "dt": 0.01, "pad": 10.0},
            },
        )
        out = tmp_path / "fk"
        assert main(["fk", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["agree"] is True
        assert report["n_paths"] == 4000
        assert report["abs_gap"] <= report["gap_budget"]

    def test_r_beyond_t_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "fk": {"r": 2.0, "t": 1.0}})
        assert main(["fk", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE
        capsys.readouterr()


class TestFrontsPipeline:
    def test_ladder_and_constants(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "fronts": {
                    "phi": {"kind": "indicator", "lam": 1.0},
                    "r_ladder": [2.0, 4.0, 8.0],
                    "dx": 0.1,
                    "dt": 0.02,
                    "with_tilde": False,
                    "with_base": True,
                }
            },
        )
        out = tmp_path / "fronts"
        assert main(["fronts", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        rows = (out / "ladder.csv").read_text().strip().splitlines()
        assert rows[0] == "r,C_phi,C_tilde_0"
        assert len(rows) == 4
        with open(out / "constants.json") as fh:
            constants = json.load(fh)
        assert constants["C_phi"]["value"] > 0
        assert constants["C_tilde_0"]["value"] > 0
        assert len(constants["C_phi"]["ladder"]) == 3
        manifest = manifest_of(out)
        assert set(manifest["diagnostics"]["constants"]) == {"workers"}
        assert set(manifest["wall_times_s"]) == {"C_phi", "C_tilde_0", "total"}

    ALL_THREE = {
        "fronts": {
            "phi": {"kind": "bump", "center": 1.0, "width": 1.0, "height": 1.0},
            "r_ladder": [2.0, 4.0, 8.0],
            "dx": 0.1,
            "dt": 0.02,
        }
    }

    @staticmethod
    def _run_with_cpus(tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = write_config(tmp_path, TestFrontsPipeline.ALL_THREE, name=f"config-{cpus}.json")
        out = tmp_path / f"fronts-{cpus}"
        code = main(["fronts", "--config", cfg, "--out", str(out), "--quiet"])
        assert multiprocessing.active_children() == []
        return code, out

    @needs_fork
    def test_constants_do_not_depend_on_the_worker_count(self, tmp_path, capsys, monkeypatch):
        outputs = {}
        for cpus, workers in ((1, 1), (2, 3)):
            code, out = self._run_with_cpus(tmp_path, monkeypatch, cpus)
            assert code == EXIT_OK
            manifest = check_manifest_covers_dir(str(out))
            assert manifest["diagnostics"]["constants"] == {"workers": workers}
            assert set(manifest["wall_times_s"]) == {"C_phi", "C_tilde_phi", "C_tilde_0", "total"}
            outputs[cpus] = [(out / name).read_bytes() for name in ("constants.json", "ladder.csv")]
        capsys.readouterr()
        assert outputs[1] == outputs[2]

    def test_failing_constants_fail_as_in_process(self, tmp_path, capsys, monkeypatch):
        def slow_failure(*args, **kwargs):
            time.sleep(0.3)
            raise FrontsError("C_phi failed")

        def quick_failure(*args, **kwargs):
            raise FrontsError("C_tilde failed")

        # the forked workers inherit the patches
        monkeypatch.setattr(cli_module, "constant_C", slow_failure)
        monkeypatch.setattr(cli_module, "constant_C_tilde", quick_failure)
        messages = []
        for cpus in (1, 2):
            code, out = self._run_with_cpus(tmp_path, monkeypatch, cpus)
            assert code == EXIT_NUMERIC
            manifest = manifest_of(out)
            assert manifest["status"] == "numeric-error"
            messages.append(manifest["message"])
        capsys.readouterr()
        assert messages == ["C_phi failed", "C_phi failed"]


class TestLdpPipeline:
    def test_tilted_ladder(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"ldp": {"delta": 0.5, "r_ladder": [3.0, 6.0, 12.0], "dx": 0.1, "dt": 0.02}},
        )
        out = tmp_path / "ldp"
        assert main(["ldp", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        with open(out / "ldp.json") as fh:
            payload = json.load(fh)
        assert payload["delta"] == 0.5
        assert payload["C_hat"]["value"] > 0


class TestSimulatePipeline:
    CFG = {
        "seed": 11,
        "replicas": 50,
        "simulate": {"epsilon": 0.5, "dt": 0.025, "t_end": 2.0, "snapshots": [1.0, 2.0]},
    }

    def test_stats_and_cdf(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        manifest = check_manifest_covers_dir(str(out))
        replicas = manifest["diagnostics"]["replicas"]
        assert {k: replicas[k] for k in ("groups", "workers")} == {"groups": 1, "workers": 1}
        assert replicas["splits"] > 0 and replicas["deaths"] > 0
        assert replicas["jumps"] == replicas["pruned"] == replicas["barrier_emptied"] == 0
        rows = (out / "replicas.csv").read_text().strip().splitlines()
        assert len(rows) == 51
        snap = (out / "snapshots.csv").read_text().strip().splitlines()
        assert snap[0] == "t,alive_fraction,mean_m,mean_mass,mean_z"
        assert len(snap) == 3
        cdf = (out / "mt_cdf.csv").read_text().strip().splitlines()
        assert cdf[0] == "m_minus_center,cdf"
        assert len(cdf) > 1

    def test_csvs_hold_the_result_columns(self, tmp_path, capsys):
        # replicas.csv and snapshots.csv of a run equal, bit for bit, the
        # SimResult columns of its config; this seed has extinct replicas
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        res = simulate(ExperimentConfig.from_sources("simulate", self.CFG, env={}).block["sim"])
        assert 0 < np.count_nonzero(~res.survived) < 50

        def table(name):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            return rows[0], np.array(rows[1:], dtype=float).T

        header, got = table("replicas.csv")
        assert header == ["replica", "survived", "exploded", "extinction_time", "m_final", "z_final", "mass_final"]
        want = (np.arange(50), res.survived, res.exploded, res.extinction_time,
                res.m[:, -1], res.z[:, -1], res.mass[:, -1])
        for column, expected in zip(got, want):
            assert column.tobytes() == np.asarray(expected, dtype=float).tobytes()

        header, got = table("snapshots.csv")
        assert header == ["t", "alive_fraction", "mean_m", "mean_mass", "mean_z"]
        for t, m, mass, z, row in zip(res.times, res.m.T, res.mass.T, res.z.T, got.T):
            alive = np.isfinite(m)
            means = [np.nanmean(np.where(alive, c, np.nan)) for c in (mass, z)]
            assert row.tobytes() == np.array([t, np.mean(alive), np.mean(m[alive]), *means]).tobytes()

    def test_bank_export_and_roundtrip(self, tmp_path, capsys, monkeypatch):
        # one CPU, so the bank's groups march in this process on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        payload = json.loads(json.dumps(self.CFG))
        payload["simulate"]["bank"] = {"z": 0.0, "t": 2.0, "n_accept": 5}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        manifest = check_manifest_covers_dir(str(out))
        kinds = {e["path"]: e["kind"] for e in manifest["outputs"]}
        assert kinds["bank/clusters.csv"] == "bank"
        assert kinds["bank/bank.json"] == "bank"
        # one 64-replica batch of one group fills the bank
        assert manifest["diagnostics"]["bank"] == {"batches": 1, "groups": 1, "workers": 1}
        bank = load_bank(out / "bank")
        assert bank.size == 5
        assert bank.z == 0.0
        assert bank.seed == self.CFG["seed"]
        assert np.all(np.abs(np.maximum.reduceat(bank.locations, bank.starts[:-1])) < 1e-12)

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        payload = json.loads(json.dumps(self.CFG))
        payload["simulate"]["t_end"] = 1.0
        payload["simulate"]["snapshots"] = None
        payload["simulate"]["bank"] = {
            "z": 30.0, "t": 1.0, "n_accept": 5, "max_attempts": 500
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_BUDGET
        assert "budget-exhausted" in capsys.readouterr().err
        assert manifest_of(str(out))["status"] == "budget-exhausted"

    def test_snapshot_beyond_horizon_is_usage_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(self.CFG))
        payload["simulate"]["snapshots"] = [3.0]
        cfg = write_config(tmp_path, payload)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        assert "snapshot" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestExtremalPipeline:
    def test_draws_from_saved_bank(self, tmp_path, capsys):
        sim_cfg = write_config(
            tmp_path,
            {
                "seed": 11,
                "replicas": 50,
                "simulate": {
                    "epsilon": 0.5,
                    "dt": 0.025,
                    "t_end": 2.0,
                    "bank": {"z": 0.0, "t": 2.0, "n_accept": 8},
                },
            },
            name="sim.json",
        )
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out), "--quiet"]) == EXIT_OK
        ext_cfg = write_config(
            tmp_path,
            {
                "seed": 13,
                "replicas": 40,
                "extremal": {
                    "c_tilde_0": 3.42,
                    "bank": str(sim_out / "bank"),
                    "expected_points": 50.0,
                    "stability": {"n_samples": 60},
                },
            },
            name="ext.json",
        )
        out = tmp_path / "ext"
        assert main(["extremal", "--config", ext_cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        manifest = check_manifest_covers_dir(str(out))
        with open(sim_out / "bank" / "bank.json") as fh:
            assert manifest["diagnostics"]["bank"] == json.load(fh)
        rows = (out / "samples.csv").read_text().strip().splitlines()
        assert len(rows) == 41
        cdf = np.loadtxt(out / "rightmost_cdf.csv", delimiter=",", skiprows=1)
        assert cdf.shape[1] == 3
        assert np.all(np.diff(cdf[:, 2]) >= 0)
        with open(out / "stability.json") as fh:
            stability = json.load(fh)
        assert stability["n_samples"] == 60
        assert 0.0 <= stability["ks_pvalue"] <= 1.0
        # the same bank under another path: same hash, same bytes
        moved = tmp_path / "moved"
        shutil.copytree(sim_out / "bank", moved)
        again = tmp_path / "again"
        ext = json.loads((tmp_path / "ext.json").read_text())
        ext["extremal"]["bank"] = str(moved)
        ext_cfg = write_config(tmp_path, ext, name="ext.json")
        assert main(["extremal", "--config", ext_cfg, "--out", str(again), "--quiet"]) == EXIT_OK
        assert manifest_of(str(again))["config_sha256"] == manifest["config_sha256"]
        for name in ("samples.csv", "rightmost_cdf.csv", "stability.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_missing_c_tilde_0_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "extremal": {"bank": "somewhere"}})
        code = main(["extremal", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        assert "c_tilde_0" in capsys.readouterr().err

    def test_corrupt_bank_is_usage_error(self, tmp_path, capsys):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        (bank_dir / "bank.json").write_text("{}")
        (bank_dir / "clusters.csv").write_text("cluster,location,weight\n")
        cfg = write_config(
            tmp_path,
            {"seed": 1, "extremal": {"c_tilde_0": 3.42, "bank": str(bank_dir)}},
        )
        code = main(["extremal", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_bank_with_bad_atoms_is_usage_error(self, tmp_path, capsys):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        meta = {"n_clusters": 2, "z": 0.0, "t": 1.0, "acceptance": 0.5, "seed": 1}
        (bank_dir / "bank.json").write_text(json.dumps(meta))
        (bank_dir / "clusters.csv").write_text("cluster,location,weight\n0,0.0,0.5\n1,0.0,nan\n")
        cfg = write_config(
            tmp_path,
            {"seed": 1, "extremal": {"c_tilde_0": 3.42, "bank": str(bank_dir)}},
        )
        code = main(["extremal", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_USAGE
        assert "cluster 1 needs finite locations and finite positive weights" in capsys.readouterr().err


class TestBarriersPipeline:
    def test_profile_and_constants(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"barriers": {"a": 1.0, "b": 1.0, "theta": 1.0, "A": 5.0}})
        out = tmp_path / "bar"
        assert main(["barriers", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        check_manifest_covers_dir(str(out))
        table = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        x, h, lower, upper = table.T
        assert x.size == 63 and np.all(np.abs(x) < 5.0)
        assert np.all(lower <= h) and np.all(h <= upper)
        # each row carries the envelopes of its own node
        sol = solve_hA(1.0, 1.0, 1.0, 5.0)
        expected_lower, expected_upper = sandwich_bounds(sol)
        assert np.allclose(x, sol.x, rtol=1e-15, atol=0)
        assert np.allclose(lower, expected_lower, rtol=1e-15, atol=0)
        assert np.allclose(upper, expected_upper, rtol=1e-15, atol=0)
        with open(out / "constants.json") as fh:
            constants = json.load(fh)
        assert constants["h0"] == sol.h0
        assert not {"ladder_error", "n_cells", "newton_iterations"} & set(constants)
        assert abs(constants["c2"] - 2.0) < 1e-12
        assert constants["c4_convexity"] == 1.0
        assert abs(constants["c1"] - 12.0) < 1e-9
        assert constants["c5"] > 0


class TestBankSerialization:
    def test_roundtrip_by_hand(self, tmp_path):
        bank = ClusterBank(
            locations=np.array([-1.5, 0.0, -0.25, -0.125, 0.0]),
            weights=np.array([0.5, 0.5, 0.5, 1.0, 0.5]),
            starts=np.array([0, 2, 5]),
            z=0.5, t=4.0, acceptance=0.125, seed=3,
        )
        save_bank(bank, tmp_path / "bank")
        back = load_bank(tmp_path / "bank")
        assert back.size == 2
        assert back.z == 0.5 and back.t == 4.0 and back.seed == 3
        for name in ("locations", "weights", "starts"):
            assert np.array_equal(getattr(bank, name), getattr(back, name))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CliConfigError, match="bank.json"):
            load_bank(tmp_path / "void")

    def test_awkward_floats_write_csv_writer_bytes_and_read_back_bit_for_bit(self, tmp_path):
        awkward = [-0.0, 5e-324, 1e-5, 1.2345678901234567e16, 0.1 + 0.2]
        clusters = (
            (np.array([-1.2345678901234567e16, -(0.1 + 0.2), -1e-5, 5e-324]), np.array(awkward[1:])),
            (np.array([-5e-324, -0.0]), np.array([0.1 + 0.2, 1e-5])),
        )
        bank = ClusterBank(
            locations=np.concatenate([c[0] for c in clusters]),
            weights=np.concatenate([c[1] for c in clusters]),
            starts=np.array([0, 4, 6]),
            z=0.5, t=4.0, acceptance=0.125, seed=3,
        )
        csv_path, _ = save_bank(bank, tmp_path / "bank")
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["cluster", "location", "weight"])
        for i, (locations, weights) in enumerate(clusters):
            for loc, wt in zip(locations, weights):
                writer.writerow([str(i), repr(float(loc)), repr(float(wt))])
        assert csv_path.read_bytes() == reference.getvalue().encode()
        back = load_bank(tmp_path / "bank")
        for name in ("locations", "weights", "starts"):
            assert getattr(back, name).tobytes() == getattr(bank, name).tobytes()

    @staticmethod
    def _bank_dir(tmp_path, body: str):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        meta = {"n_clusters": 3, "z": 0.0, "t": 1.0, "acceptance": 0.5, "seed": 1}
        (bank_dir / "bank.json").write_text(json.dumps(meta))
        (bank_dir / "clusters.csv").write_text("cluster,location,weight\n" + body)
        return bank_dir

    @pytest.mark.parametrize(
        "edit,key",
        [
            ({"seed": 7.9}, "bank.json.seed: expected int, got float"),
            ({"n_clusters": 1.0}, "bank.json.n_clusters: expected int, got float"),
            ({"z": True}, "bank.json.z: expected int/float, got a boolean"),
            ({"t": "4"}, "bank.json.t: expected int/float, got str"),
            ({"note": 1}, "bank.json: unknown keys ['note']"),
        ],
        ids=["float-seed", "float-n_clusters", "boolean-z", "string-t", "extra-key"],
    )
    def test_bank_json_is_read_by_the_config_schema(self, tmp_path, edit, key):
        bank = ClusterBank(
            locations=np.array([-1.0, 0.0]), weights=np.array([0.5, 0.5]), starts=np.array([0, 2]),
            z=0.5, t=4.0, acceptance=0.125, seed=3,
        )
        _, meta_path = save_bank(bank, tmp_path / "bank")
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, **edit}))
        with pytest.raises(CliConfigError) as info:
            load_bank(tmp_path / "bank")
        assert key in str(info.value)

    def test_interleaved_indices_group_by_index_in_file_order(self, tmp_path):
        body = "1,-1.0,0.5\n0,0.0,1.0\n1,0.0,0.25\n2,0.0,2.0\n0,-3.0,1.5\n1,-0.5,0.5\n"
        bank = load_bank(self._bank_dir(tmp_path, body))
        assert bank.locations.tolist() == [0.0, -3.0, -1.0, 0.0, -0.5, 0.0]
        assert bank.weights.tolist() == [1.0, 1.5, 0.5, 0.25, 0.5, 2.0]
        assert bank.starts.tolist() == [0, 2, 5, 6]

    @pytest.mark.parametrize(
        "body,message",
        [
            ("0,0.0,1.0\n1.5,0.0,1.0\n", "malformed"),
            ("0,0.0,one\n", "malformed"),
            ("0,0.0,1.0\n1,0.0\n", "malformed"),
            ("", "no clusters"),
            ("0,0.0,1.0\n5,0.0,1.0\n1,0.0,1.0\n", "clusters.csv numbers its 3 clusters from 0 to 5"),
            ("1,0.0,1.0\n2,0.0,1.0\n3,0.0,1.0\n", "clusters.csv numbers its 3 clusters from 1 to 3"),
            ("0,0.0,1.0\n1,0.0,1.0\n", "clusters.csv holds 2 clusters, but .*bank.json states n_clusters 3"),
            ("0,0.0,1.0\n1,0.0,-0.5\n2,0.0,1.0\n", "inconsistent: cluster 1 needs finite locations and finite positive weights"),
            ("0,0.0,1.0\n1,0.0,1.0\n2,0.0,nan\n", "inconsistent: cluster 2 needs finite"),
            ("0,0.0,1.0\n0,nan,1.0\n1,0.0,1.0\n2,0.0,1.0\n", "inconsistent: cluster 0 needs finite"),
            ("0,0.0,1.0\n1,0.0,1.0\n2,0.0,1.0\n2,-inf,1.0\n", "inconsistent: cluster 2 needs finite"),
        ],
        ids=[
            "non-integer-index", "non-numeric-field", "short-row", "header-only",
            "index-gap", "no-cluster-zero", "count-below-bank-json",
            "negative-weight", "nan-weight", "nan-location", "inf-location",
        ],
    )
    def test_bad_rows_are_config_errors_without_warnings(self, tmp_path, body, message):
        bank_dir = self._bank_dir(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CliConfigError, match=message):
                load_bank(bank_dir)


class TestRunPipelineApi:
    def test_returns_code_and_directory(self, tmp_path):
        config = ExperimentConfig.from_sources(
            "mech-check", {}, out=str(tmp_path / "api"), quiet=True, env={}
        )
        code, out_dir = run_pipeline(config)
        assert code == EXIT_OK
        assert out_dir == tmp_path / "api"
        assert (out_dir / "manifest.json").is_file()

    def test_rerun_of_one_config_rewrites_identical_csvs(self, tmp_path):
        # a run must leave the parsed inputs as it found them, since one
        # config object may be run many times
        data = {
            "seed": 11,
            "replicas": 20,
            "simulate": {"t_end": 2.0, "bank": {"z": 0.0, "t": 2.0, "n_accept": 3}},
        }
        config = ExperimentConfig.from_sources(
            "simulate", data, out=str(tmp_path / "sim"), quiet=True, env={}
        )
        written = []
        for _ in range(2):
            code, out_dir = run_pipeline(config)
            assert code == EXIT_OK
            written.append({p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*.csv")})
        assert len(written[0]) == 4
        assert written[0] == written[1]
