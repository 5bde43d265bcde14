"""Tests for the command line front end.

The pipelines themselves are exercised end to end on deliberately small
configurations; the numerical content they delegate to is covered by the
per-module suites, so the assertions here target the contract of the
front end itself: schema strictness, precedence of flags over
environment over config, exit codes per failure class, manifest
completeness, and byte-level reproducibility of the CSV artifacts.
"""

import json
import math
import os

import numpy as np
import pytest

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
from sbmlab.particles import PointMeasure

QUAD = {"alpha": 1.0, "beta": 1.0, "levy": {"kind": "none"}}
JUMPS = {
    "alpha": 1.0,
    "beta": 0.0,
    "levy": {"kind": "truncated-stable", "c": 1.0, "index": 1.5, "cutoff": 5.0},
}


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
    (
        "extremal",
        {"seed": 1, "extremal": {"c_tilde_0": 1.0, "build": {"dt": 5.0}}},
        "extremal.build",
    ),
    (
        "extremal",
        {"seed": 1, "extremal": {"c_tilde_0": 1.0, "bank": "b", "stability": {"a": 1.0}}},
        "extremal.stability.a",
    ),
]


@pytest.mark.parametrize(
    "pipeline,data,key", CONFIG_MISTAKES, ids=[f"{p}-{k}" for p, _, k in CONFIG_MISTAKES]
)
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
# only, with no strip_times, m_ladder or n_cells key.
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
        "67d4558cb32e2e0c2de17c0860d695a3be0b18a2bb947ed34a27c6b05b461c43",
    ),
    "extremal": (
        {
            "seed": 13,
            "replicas": 40,
            "extremal": {
                "c_tilde_0": 3.42,
                "build": {"t": 3.0, "n_accept": 8},
                "stability": {"n_samples": 60},
            },
        },
        "2c48d529630de7a8bbafcba997d1a2b0eb4234df8d407bd6254772a7f76ed881",
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
        assert manifest["diagnostics"]["replicas"] == {"groups": 1, "workers": 1}
        rows = (out / "replicas.csv").read_text().strip().splitlines()
        assert len(rows) == 51
        snap = (out / "snapshots.csv").read_text().strip().splitlines()
        assert snap[0] == "t,alive_fraction,mean_m,mean_mass,mean_z"
        assert len(snap) == 3
        cdf = (out / "mt_cdf.csv").read_text().strip().splitlines()
        assert cdf[0] == "m_minus_center,cdf"
        assert len(cdf) > 1

    def test_bank_export_and_roundtrip(self, tmp_path, capsys):
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
        bank = load_bank(out / "bank")
        assert bank.size == 5
        assert bank.z == 0.0
        assert bank.seed == self.CFG["seed"]
        assert all(abs(c.rightmost) < 1e-12 for c in bank.clusters)

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
        check_manifest_covers_dir(str(out))
        rows = (out / "samples.csv").read_text().strip().splitlines()
        assert len(rows) == 41
        cdf = np.loadtxt(out / "rightmost_cdf.csv", delimiter=",", skiprows=1)
        assert cdf.shape[1] == 3
        assert np.all(np.diff(cdf[:, 2]) >= 0)
        with open(out / "stability.json") as fh:
            stability = json.load(fh)
        assert stability["n_samples"] == 60
        assert 0.0 <= stability["ks_pvalue"] <= 1.0

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
        clusters = (
            PointMeasure(np.array([-1.5, 0.0]), np.array([0.5, 0.5])),
            PointMeasure(np.array([-0.25, -0.125, 0.0]), np.array([0.5, 1.0, 0.5])),
        )
        bank = ClusterBank(clusters=clusters, z=0.5, t=4.0, acceptance=0.125, seed=3)
        save_bank(bank, tmp_path / "bank")
        back = load_bank(tmp_path / "bank")
        assert back.size == 2
        assert back.z == 0.5 and back.t == 4.0 and back.seed == 3
        for original, loaded in zip(bank.clusters, back.clusters):
            assert np.array_equal(original.locations, loaded.locations)
            assert np.array_equal(original.weights, loaded.weights)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CliConfigError, match="bank.json"):
            load_bank(tmp_path / "void")


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
