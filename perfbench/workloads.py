"""The three benchmark workloads: their pipeline runs, inputs and checks.

A workload is a list of operations, each one ``run_pipeline`` call on a
config built here through ``ExperimentConfig.from_sources(..., env={})``,
so ``SBMLAB_*`` variables cannot change what runs.  The seed feeds the
stochastic pipelines and draws a few inputs (csbp theta points, the fronts
bump centre, the extremal C~_0); grid sizes and replica counts are fixed,
so the work done is nearly the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sbmlab.cli import ExperimentConfig

import checks
import oracles

# pure-jump truncated-stable mechanism with a finite cutoff
JUMPS_MECHANISM = {
    "alpha": 1.0,
    "beta": 0.0,
    "levy": {"kind": "truncated-stable", "c": 1.0, "index": 1.5, "cutoff": 5.0},
}
JUMPS_PSI = oracles.StableCutoffPsi(alpha=1.0, beta=0.0, c=1.0, index=1.5, cutoff=5.0)

# the shorter front ladder keeps a fields round near 9 s, so a run holds
# several rounds and reports medians
R_LADDER = [4.0, 8.0, 16.0]
KPP_T_END = 16.0

SIM_REPLICAS = 1000
SIM_EPSILON, SIM_DT, SIM_T_END = 0.5, 0.025, 6.0
# about 29% of replicas pass M_3 > sqrt(2)*3 - 1.4, so the 400-cluster bank
# takes four batches of 400 replicas on nearly every seed
BANK = {"z": -1.4, "t": 3.0, "n_accept": 400}
DRAWS = 2000
EXPECTED_POINTS = 200.0
STABILITY_SAMPLES = 1000


@dataclass(frozen=True)
class Operation:
    """One pipeline run and the check of what it wrote.

    ``known_fault`` lists the exact problems a named program fault causes
    on every run; an operation failing with just those is counted as
    failed without making the run incorrect.
    """

    name: str
    config: ExperimentConfig
    check: Callable[[Path], list[str]]
    known_fault: frozenset[str] = frozenset()


def _config(pipeline: str, data: dict, out: Path, seed: int | None = None, replicas: int | None = None):
    return ExperimentConfig.from_sources(
        pipeline, data, seed=seed, out=str(out / pipeline), replicas=replicas, quiet=True, env={}
    )


def _fields(seed: int, out: Path) -> list[Operation]:
    rng = np.random.default_rng([seed, 1])
    thetas = sorted(float(v) for v in rng.uniform(0.25, 8.0, 5))
    center = float(rng.uniform(0.5, 1.5))
    bump = {"kind": "bump", "center": center, "width": 1.0, "height": 1.0}
    return [
        Operation(
            "kpp",
            _config("kpp", {"kpp": {"t_end": KPP_T_END}}, out),
            lambda d: checks.kpp_profiles(d) + checks.kpp_lag_settles(d, KPP_T_END),
        ),
        Operation(
            "csbp",
            _config("csbp", {"csbp": {"theta_grid": thetas}}, out),
            lambda d: checks.csbp_logistic(d, mass=1.0),
        ),
        Operation("fk", _config("fk", {}, out, seed=seed), checks.fk_report),
        Operation(
            "fronts",
            _config("fronts", {"fronts": {"phi": bump, "r_ladder": R_LADDER}}, out),
            checks.fronts_constants,
        ),
        Operation("ldp", _config("ldp", {"ldp": {"r_ladder": R_LADDER}}, out), checks.ldp_constant),
    ]


def _particles(seed: int, out: Path) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    c_tilde_0 = float(rng.uniform(0.5, 2.0))
    sim = {"simulate": {"epsilon": SIM_EPSILON, "dt": SIM_DT, "t_end": SIM_T_END, "bank": BANK}}
    bank_dir = out / "simulate" / "bank"
    extremal = {
        "extremal": {
            "c_tilde_0": c_tilde_0,
            "bank": str(bank_dir),
            "expected_points": EXPECTED_POINTS,
            "stability": {"n_samples": STABILITY_SAMPLES},
        }
    }

    def check_simulate(d: Path) -> list[str]:
        return checks.simulate_replicas(
            d, alpha=1.0, beta=1.0, epsilon=SIM_EPSILON, dt=SIM_DT, t_end=SIM_T_END
        ) + checks.bank_clusters(d / "bank", BANK["n_accept"])

    return [
        Operation("simulate", _config("simulate", sim, out, seed=seed, replicas=SIM_REPLICAS), check_simulate),
        Operation(
            "extremal",
            _config("extremal", extremal, out, seed=seed, replicas=DRAWS),
            lambda d: checks.extremal_draws(d, c_tilde_0, EXPECTED_POINTS),
        ),
    ]


def _jumps(seed: int, out: Path) -> list[Operation]:
    rng = np.random.default_rng([seed, 3])
    thetas = sorted(float(v) for v in rng.uniform(0.25, 8.0, 2))
    mech = {"mechanism": JUMPS_MECHANISM}
    csbp = {**mech, "csbp": {"theta_grid": thetas, "t_grid": [1.0], "extinction": False}}
    return [
        Operation(
            "mech_check",
            _config("mech-check", mech, out),
            lambda d: checks.mech_check(d, JUMPS_PSI),
            # LevyMeasure.excess_integral's quad breaks above lambda ~ 1e5, so
            # the capped integrals behind h2 and grey see a negative psi
            known_fault=frozenset({"mech-check reports h2 = False", "mech-check reports grey = False"}),
        ),
        Operation(
            "csbp",
            _config("csbp", csbp, out),
            lambda d: checks.csbp_reference_flow(d, mass=1.0, psi=JUMPS_PSI),
        ),
        Operation(
            "kpp",
            _config("kpp", mech, out),
            lambda d: checks.kpp_profiles(d) + checks.kpp_left_edge(d, JUMPS_PSI),
        ),
    ]


def build(workload: str, seed: int, out: Path) -> list[Operation]:
    """The operations of one round of ``workload``, writing under ``out``."""
    return {"fields": _fields, "particles": _particles, "jumps": _jumps}[workload](seed, out)
