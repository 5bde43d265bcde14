"""Checks of pipeline artifacts against the references in ``oracles``.

Each check reads what one pipeline run wrote and returns a list of
problems; an empty list means the run's outputs are right.  No check
compares against a stored copy of earlier output: every bound comes from
a closed form, a reference computed apart from ``sbmlab``, a property the
method must have, or a standard error.  README.md explains each tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import oracles

# kpp profiles: the split scheme is monotone and bounded by its data, so
# only rounding may break [0, 1] and monotonicity
ROUNDING = 1e-12
# RK45 in csbp.laplace_exponent runs at rtol 1e-10; allow its global error
FLOW_RTOL = 1e-8
# the ladder convergence tolerance csbp.extinction_prob accepts (tol=1e-5)
LADDER_TOL = 1e-5
# mechanism.make_psi_eval tabulates quadrature psi with PCHIP on a 900-point
# geometric grid of ratio 1.031; its O(h^3) interpolation error is below
# 0.031**3 relative
PSI_TABLE_RTOL = 3e-5
# excess_integral's quad runs at epsrel 1e-10; lambda_star's brentq at rtol 1e-12
LAMBDA_STAR_RTOL = 1e-10
# a correct sampler fails a test at this level once in ten thousand seeds
KS_ALPHA = 1e-4
N_SE = 4.0


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _rel_gap(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# kpp


def kpp_profiles(out: Path) -> list[str]:
    """Every profile lies in [0, 1] and is non-increasing in x."""
    header, table = _read_csv(out / "profiles.csv")
    problems = []
    for j, name in enumerate(header[1:], start=1):
        u = table[:, j]
        if u.min() < -ROUNDING or u.max() > 1.0 + ROUNDING:
            problems.append(f"kpp {name} leaves [0, 1]: [{u.min():.3g}, {u.max():.3g}]")
        rise = float(np.max(np.diff(u)))
        if rise > ROUNDING:
            problems.append(f"kpp {name} increases in x by {rise:.3g}")
    return problems


def kpp_lag_settles(out: Path, t_end: float) -> list[str]:
    """median - front_m moves over [t_end/2, t_end] by no more than the
    Ebert-van Saarloos 1/sqrt(t) correction predicts for that window."""
    _, med = _read_csv(out / "median.csv")
    t, lag = med[:, 0], med[:, 3]
    window = (t >= t_end / 2.0 - 1e-9) & (t <= t_end + 1e-9)
    if not np.all(np.isfinite(lag[window])):
        return ["kpp median lag is not finite on [t_end/2, t_end]"]
    drift = abs(float(lag[window][-1] - lag[window][0]))
    allowed = oracles.ebert_van_saarloos_drift(t_end / 2.0, t_end)
    if drift > allowed:
        return [f"kpp lag moved {drift:.3g} over [t_end/2, t_end], more than {allowed:.3g}"]
    return []


def kpp_left_edge(out: Path, psi: oracles.StableCutoffPsi) -> list[str]:
    """The left boundary node follows the reaction flow started from 1."""
    header, table = _read_csv(out / "profiles.csv")
    times = [float(name[len("u_t"):]) for name in header[1:]]
    later = [(j, t) for j, t in enumerate(times, start=1) if t > 0.0]
    ref = psi.flow(1.0, [t for _, t in later])
    problems = []
    for (j, t), v in zip(later, ref):
        gap = _rel_gap(float(table[0, j]), float(v))
        if gap > PSI_TABLE_RTOL:
            problems.append(f"kpp left edge at t={t:g} is off the reference flow by {gap:.3g}")
    return problems


# ---------------------------------------------------------------------------
# csbp


def csbp_logistic(out: Path, mass: float) -> list[str]:
    """Laplace values and extinction against the logistic closed forms."""
    # an error dv in the flow moves exp(-m v) by a relative m dv
    problems = []
    _, lap = _read_csv(out / "laplace.csv")
    for theta, t, value in lap:
        v = oracles.logistic_flow(theta, t)
        gap = _rel_gap(value, oracles.logistic_laplace(theta, t, mass))
        if gap > mass * FLOW_RTOL * v:
            problems.append(f"csbp Laplace value (t={t:g}, theta={theta:g}) off by {gap:.3g}")
    _, ext = _read_csv(out / "extinction.csv")
    for t, prob, _v_bar, converged in ext:
        v_bar = oracles.logistic_extinction_exponent(t)
        if not converged:
            problems.append(f"csbp extinction ladder did not converge at t={t:g}")
        gap = _rel_gap(prob, oracles.logistic_extinction(t, mass))
        if gap > mass * LADDER_TOL * (1.0 + v_bar):
            problems.append(f"csbp extinction probability at t={t:g} off by {gap:.3g}")
    summary = _read_json(out / "summary.json")
    if _rel_gap(summary["lambda_star"], 1.0) > LAMBDA_STAR_RTOL:
        problems.append(f"csbp lambda_star = {summary['lambda_star']!r}, closed form 1")
    return problems


def csbp_reference_flow(out: Path, mass: float, psi: oracles.StableCutoffPsi) -> list[str]:
    """Laplace values against the reference flow of the closed-form psi."""
    problems = []
    _, lap = _read_csv(out / "laplace.csv")
    for theta, t, value in lap:
        v = -math.log(value) / mass
        gap = _rel_gap(v, float(psi.flow(theta, [t])[0]))
        if gap > PSI_TABLE_RTOL:
            problems.append(f"csbp v(t={t:g}, theta={theta:g}) off the reference flow by {gap:.3g}")
    summary = _read_json(out / "summary.json")
    gap = _rel_gap(summary["lambda_star"], psi.lambda_star())
    if gap > LAMBDA_STAR_RTOL:
        problems.append(f"csbp lambda_star off the reference by {gap:.3g}")
    return problems


# ---------------------------------------------------------------------------
# mech-check


def mech_check(out: Path, psi: oracles.StableCutoffPsi) -> list[str]:
    """lambda_star matches the reference and every hypothesis holds.

    psi of a truncated-stable measure grows like lam^index with index > 1,
    so the front-formation (h2) and instant-extinction (grey) integrals
    converge, and the mechanism has finite jumps, so h1 and h3 hold.
    """
    report = _read_json(out / "report.json")
    problems = []
    if report["lambda_star"] is None:
        problems.append("mech-check found no lambda_star")
    else:
        gap = _rel_gap(report["lambda_star"], psi.lambda_star())
        if gap > LAMBDA_STAR_RTOL:
            problems.append(f"mech-check lambda_star off the reference by {gap:.3g}")
    for name in ("h1", "h2", "h3", "grey"):
        if report[name] is not True:
            problems.append(f"mech-check reports {name} = {report[name]}")
    return problems


# ---------------------------------------------------------------------------
# fronts and ldp


def fronts_constants(out: Path) -> list[str]:
    """Finite positive rungs, increasing ladders, comparison-principle order."""
    consts = _read_json(out / "constants.json")
    problems = []
    for name, est in consts.items():
        rungs = np.asarray(est["ladder"], dtype=float)
        if not (math.isfinite(est["value"]) and est["value"] > 0.0):
            problems.append(f"fronts {name} = {est['value']!r} is not finite and positive")
        if not (np.all(np.isfinite(rungs)) and np.all(rungs > 0.0)):
            problems.append(f"fronts {name} has a rung that is not finite and positive")
        if not np.all(np.diff(rungs) > 0.0):
            problems.append(f"fronts {name} ladder does not increase: {rungs.tolist()}")
    top = np.asarray(consts["C_tilde_phi"]["ladder"])
    for lower in ("C_phi", "C_tilde_0"):
        below = np.asarray(consts[lower]["ladder"])
        if np.any(below > top * (1.0 + ROUNDING)):
            problems.append(f"fronts {lower} exceeds C_tilde_phi on some rung")
    return problems


def ldp_constant(out: Path) -> list[str]:
    value = _read_json(out / "ldp.json")["C_hat"]["value"]
    if not (math.isfinite(value) and value > 0.0):
        return [f"ldp C_hat = {value!r} is not finite and positive"]
    return []


# ---------------------------------------------------------------------------
# fk


def fk_report(out: Path) -> list[str]:
    estimate = _read_json(out / "report.json")["estimate"]
    if not 0.0 <= estimate <= 1.0:
        return [f"fk estimate {estimate!r} outside [0, 1]"]
    return []


# ---------------------------------------------------------------------------
# simulate and extremal


def simulate_replicas(out: Path, alpha: float, beta: float, epsilon: float, dt: float, t_end: float) -> list[str]:
    """Survival and mean mass against the birth-death law of the engine's rates.

    The tolerance is 4 standard errors plus the gap between the continuous
    law and its one-event-per-step version, the O(rate * dt) bias SimConfig
    documents.  Extinct replicas must carry no mass and no martingale value.
    """
    header, reps = _read_csv(out / "replicas.csv")
    col = {name: reps[:, i] for i, name in enumerate(header)}
    n = reps.shape[0]
    n0 = round(1.0 / epsilon)
    b, d = oracles.engine_rates(alpha, beta, epsilon)
    steps = round(t_end / dt)
    q_cont = oracles.birth_death_extinction(b, d, t_end, n0)
    q_step, mean_step = oracles.stepped_birth_death(b, d, dt, steps, n0)
    problems = []

    survived = col["survived"]
    surv_ref = 1.0 - q_cont
    se = math.sqrt(surv_ref * (1.0 - surv_ref) / n)
    gap = abs(float(survived.mean()) - surv_ref)
    if gap > N_SE * se + abs(q_cont - q_step):
        problems.append(f"survival {survived.mean():.4f} vs birth-death {surv_ref:.4f}, se {se:.2g}")

    pop = col["mass_final"] / epsilon
    mean_cont = oracles.birth_death_mean(b, d, t_end, n0)
    se = float(pop.std(ddof=1)) / math.sqrt(n)
    gap = abs(float(pop.mean()) - mean_cont)
    if gap > N_SE * se + abs(mean_cont - mean_step):
        problems.append(f"mean population {pop.mean():.2f} vs birth-death {mean_cont:.2f}, se {se:.2g}")

    dead = survived == 0.0
    if np.any(col["mass_final"][dead] != 0.0) or np.any(col["z_final"][dead] != 0.0):
        problems.append("an extinct replica carries mass or a martingale value")
    if np.any(np.isfinite(col["m_final"][dead])):
        problems.append("an extinct replica has a finite rightmost position")
    if not np.all(np.isfinite(col["z_final"][~dead])):
        problems.append("a surviving replica has a non-finite martingale value")
    return problems


def bank_clusters(bank_dir: Path, n_clusters: int) -> list[str]:
    """Every cluster is recentred so its rightmost atom sits exactly at 0."""
    _, rows = _read_csv(bank_dir / "clusters.csv")
    idx = rows[:, 0].astype(int)
    tops = np.full(idx.max() + 1, -np.inf)
    np.maximum.at(tops, idx, rows[:, 1])
    problems = []
    if tops.size != n_clusters:
        problems.append(f"bank holds {tops.size} clusters, asked for {n_clusters}")
    if np.any(tops != 0.0):
        problems.append(f"bank clusters not recentred: rightmost atoms up to {np.abs(tops).max():.3g}")
    return problems


def extremal_draws(out: Path, c_tilde_0: float, expected_points: float) -> list[str]:
    """Rightmost atoms follow the Gumbel law; Poisson counts have the right mean."""
    header, rows = _read_csv(out / "samples.csv")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    n = rows.shape[0]
    problems = []
    right = col["rightmost"]
    if not np.all(np.isfinite(right)):
        problems.append("a decorated draw has no atoms")
    else:
        p = stats.kstest(right, lambda x: oracles.gumbel_rightmost_cdf(x, c_tilde_0)).pvalue
        if p < KS_ALPHA:
            problems.append(f"rightmost atoms fail the KS test against the Gumbel law, p = {p:.2g}")
    se = math.sqrt(expected_points / n)
    gap = abs(float(col["n_points"].mean()) - expected_points)
    if gap > N_SE * se:
        problems.append(f"mean Poisson count {col['n_points'].mean():.2f} vs {expected_points:g}, se {se:.2g}")
    stability = _read_json(out / "stability.json")
    if stability["ks_pvalue"] < KS_ALPHA:
        problems.append(f"stability KS p-value {stability['ks_pvalue']:.2g} below {KS_ALPHA:g}")
    return problems
