"""Traced mode: spans and counts at the public functions of each sbmlab layer.

Each function listed in ``TARGETS`` is replaced by a timing wrapper at
every ``sbmlab.<module>`` attribute that refers to it, so calls between
modules and inside a module are both seen; ``LevyMeasure.excess_integral``
is patched on its class.  Spans (name, layer, start, end, parent) stay in
memory and are written out when the run ends.  A layer's self time is
the duration of its spans minus the time their child spans cover.  Counts
come from the arguments and results of the wrapped calls, never from
inside the program.  A function a later version no longer has, or whose
arguments a counter can no longer read, is listed on stderr and its
metrics read 0, so the metric set stays the same.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np


def _count_excess(counts, _a, _result):
    counts["mechanism.excess_integral_calls"] += 1


def _count_psi_table(counts, a, _result):
    levy = a["mech"].levy
    if levy.kind == "tabulated" or (levy.kind == "truncated-stable" and math.isfinite(levy.cutoff)):
        counts["mechanism.psi_table_builds"] += 1


def _count_laplace(counts, _a, _result):
    counts["csbp.laplace_exponent_calls"] += 1


def _count_solve_U(counts, a, _result):
    counts["kpp.node_steps"] += a["grid"].nx * a["grid"].nt


def _count_solve_V(counts, a, _result):
    counts["kpp.node_steps"] += a["grid"].nx * a["grid"].nt * len(a["theta_ladder"])


def _count_fk(counts, a, _result):
    span = a["t"] - a["r"]
    if span <= 0.0:
        return
    path_dt = a["path_dt"] if a["path_dt"] is not None else min(0.005, span / 100.0)
    counts["feynman_kac.path_steps"] += a["n_paths"] * max(2, math.ceil(span / path_dt))


def _count_simulate(counts, a, result):
    config = a["config"]
    counts["particles.replica_steps"] += config.n_replicas * round(config.snapshot_times[-1] / config.dt)
    for stats in result.stats:
        mass = stats.mass_path[-1]
        if math.isfinite(mass):
            counts["particles.final_particles"] += round(mass / config.epsilon)


def _count_conditioned(counts, _a, result):
    counts["particles.accepted"] += len(result.clusters)
    counts["particles.attempts"] += result.attempts


def _count_draw(counts, _a, result):
    counts["extremal.draws"] += 1
    counts["extremal.poisson_points"] += result.n_points
    counts["extremal.atoms"] += result.measure.size


def _count_artifacts(counts, _a, result):
    _code, out = result
    counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())


# (module, function, span name, counter); the span name's layer is its prefix
TARGETS = (
    ("mechanism", "check_hypotheses", "mechanism.check_hypotheses", None),
    ("mechanism", "lambda_star", "mechanism.lambda_star", None),
    ("mechanism", "make_psi_eval", "mechanism.psi_table", _count_psi_table),
    ("csbp", "laplace_exponent", "csbp.laplace_exponent", _count_laplace),
    ("csbp", "extinction_prob", "csbp.extinction_prob", None),
    ("kpp", "solve_U", "kpp.solve_U", _count_solve_U),
    ("kpp", "solve_V", "kpp.solve_V", _count_solve_V),
    ("fronts", "constant_C", "fronts.constant_C", None),
    ("fronts", "constant_C_tilde", "fronts.constant_C_tilde", None),
    ("fronts", "constant_C_hat", "fronts.constant_C_hat", None),
    ("feynman_kac", "fk_estimate", "feynman_kac.fk_estimate", _count_fk),
    ("particles", "simulate", "particles.simulate", _count_simulate),
    ("particles", "sample_conditioned_clusters", "particles.conditioned", _count_conditioned),
    ("extremal", "sample_E_star", "extremal.sample_E_star", _count_draw),
    ("extremal", "exp_stability_check", "extremal.exp_stability_check", None),
    ("cli", "run_pipeline", "cli.run_pipeline", _count_artifacts),
    ("cli", "save_bank", "cli.save_bank", None),
    ("cli", "load_bank", "cli.load_bank", None),
)

PIPELINE_OPS = ("kpp", "csbp", "fk", "fronts", "ldp", "mech_check", "simulate", "extremal")

# (metric, unit, better); see README.md for which end-to-end metric each should move
PER_LAYER = (
    ("mechanism.check_hypotheses_s", "s", "lower"),
    ("mechanism.lambda_star_s", "s", "lower"),
    ("mechanism.psi_table_s", "s", "lower"),
    ("mechanism.psi_table_builds", "count", "lower"),
    ("mechanism.excess_integral_calls", "count", "lower"),
    ("mechanism.psi_points", "count", "lower"),
    ("mechanism.warnings", "count", "lower"),
    ("csbp.laplace_exponent_s", "s", "lower"),
    ("csbp.laplace_exponent_calls", "count", "lower"),
    ("csbp.extinction_prob_s", "s", "lower"),
    ("csbp.self_s", "s", "lower"),
    ("kpp.solve_U_s", "s", "lower"),
    ("kpp.solve_V_s", "s", "lower"),
    ("kpp.self_s", "s", "lower"),
    ("kpp.node_steps", "count", "lower"),
    ("kpp.node_steps_per_s", "1/s", "higher"),
    ("fronts.constant_C_s", "s", "lower"),
    ("fronts.constant_C_tilde_s", "s", "lower"),
    ("fronts.constant_C_hat_s", "s", "lower"),
    ("fronts.self_s", "s", "lower"),
    ("feynman_kac.fk_estimate_s", "s", "lower"),
    ("feynman_kac.path_steps", "count", "lower"),
    ("particles.simulate_s", "s", "lower"),
    ("particles.replica_steps", "count", "lower"),
    ("particles.replica_steps_per_s", "1/s", "higher"),
    ("particles.final_particles", "count", "lower"),
    ("particles.conditioned_s", "s", "lower"),
    ("particles.acceptance", "ratio", "higher"),
    ("extremal.sample_E_star_s", "s", "lower"),
    ("extremal.draws", "count", "lower"),
    ("extremal.poisson_points", "count", "lower"),
    ("extremal.atoms", "count", "lower"),
    ("extremal.exp_stability_check_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.save_bank_s", "s", "lower"),
    ("cli.load_bank_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    *((f"pipeline.{op}_s", "s", "lower") for op in PIPELINE_OPS),
    ("pipeline.wall_s", "s", "lower"),
)


def _replace_everywhere(modules, orig, new) -> None:
    """Point every module attribute that refers to ``orig`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


class Tracer:
    """Installs the wrappers and turns the recorded spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def _wrap(self, fn, span_name: str, counter):
        sig = inspect.signature(fn)
        spans, stack, counts, missing = self.spans, self.stack, self.counts, self.missing
        layer = span_name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counter(counts, bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # a changed signature or result type drops the count, not the run
                    if span_name not in missing:
                        missing.append(span_name)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "sbmlab" or name.startswith("sbmlab.")]
        for module, func, span_name, counter in TARGETS:
            orig = getattr(sys.modules.get(f"sbmlab.{module}"), func, None)
            if orig is None:
                self.missing.append(f"sbmlab.{module}.{func}")
                continue
            _replace_everywhere(modules, orig, self._wrap(orig, span_name, counter))

        mechanism = sys.modules["sbmlab.mechanism"]
        counts = self.counts
        levy = getattr(mechanism, "LevyMeasure", None)
        if levy is None or "excess_integral" not in vars(levy):
            self.missing.append("sbmlab.mechanism.LevyMeasure.excess_integral")
        else:
            levy.excess_integral = self._wrap(vars(levy)["excess_integral"], "mechanism.excess_integral", _count_excess)

        # psi is called per reaction stage inside the field march, so it only
        # counts points and records no span
        psi = getattr(mechanism, "psi", None)
        if psi is None:
            self.missing.append("sbmlab.mechanism.psi")
            return

        @functools.wraps(psi)
        def counted_psi(mech, lam):
            counts["mechanism.psi_points"] += np.size(lam)
            return psi(mech, lam)

        _replace_everywhere(modules, psi, counted_psi)

    def on_warning(self, message, category, filename, lineno, file=None, line=None) -> None:
        """warnings.showwarning replacement: count per innermost open layer."""
        layer = self.spans[self.stack[-1]][1] if self.stack else "none"
        self.counts[f"{layer}.warnings"] += 1

    @contextlib.contextmanager
    def capture_warnings(self):
        """Context in which every library warning is counted, not printed."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self.on_warning
            yield

    def metrics(self, rounds: list[dict[str, float]]) -> dict[str, float]:
        """Per-layer metrics per round: totals over the run divided by the rounds."""
        n = len(rounds)
        total = defaultdict(float)
        self_time = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, layer, start, end, _parent), covered in zip(self.spans, child):
            total[name] += end - start
            self_time[layer] += end - start - covered

        # a time metric is "<span name>_s" or "<layer>.self_s"; the rest of
        # the per-round metrics are counts
        c = self.counts
        out = {}
        for name, unit, _better in PER_LAYER:
            if name.startswith("pipeline.") or unit in ("1/s", "ratio"):
                continue
            if name.endswith(".self_s"):
                out[name] = self_time[name.split(".", 1)[0]] / n
            elif unit == "s":
                out[name] = total[name[: -len("_s")]] / n
            else:
                out[name] = c[name] / n

        out["kpp.node_steps_per_s"] = c["kpp.node_steps"] / self_time["kpp"] if self_time["kpp"] else 0.0
        sim = total["particles.simulate"]
        out["particles.replica_steps_per_s"] = c["particles.replica_steps"] / sim if sim else 0.0
        attempts = c["particles.attempts"]
        out["particles.acceptance"] = c["particles.accepted"] / attempts if attempts else 0.0
        for op in PIPELINE_OPS:
            times = [r[op] for r in rounds if op in r]
            out[f"pipeline.{op}_s"] = statistics.median(times) if times else 0.0
        out["pipeline.wall_s"] = statistics.median(sum(r.values()) for r in rounds)
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as one JSON document; times are seconds on perf_counter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**header, "columns": ["name", "layer", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc))
