"""Command line front end: configured pipelines with manifested artifacts.

Each subcommand runs one pipeline for one branching mechanism and writes
its results under an output directory: CSV tables, JSON reports, plain
gnuplot scripts that reference the CSVs by relative path, and a
``manifest.json`` tying the run together.  The manifest records the
configuration hash, package and library versions, per-stage wall times,
and every artifact the run produced; each file appears in exactly one
manifest entry.  Everything except the manifest is byte-reproducible:
rerunning the same configuration and seed rewrites identical CSVs.

Every JSON document the CLI reads, the config and a saved bank's
``bank.json``, goes through one reader, ``_validate``, against the
schemas below.  Unknown keys are refused at any depth, so typos fail
loudly instead of silently running defaults.  A boolean or a string never
stands for a number, in any block, the mechanism's and ``bank.json``
included, and numbers that are NaN or infinite are refused too.  The
chosen pipeline's block is parsed once, up front, into the values its
runner uses, through the library's own constructors and validators; a
mistake names ``<block>.<key>`` and exits 2 before anything is written.
So does a time a block names that is not a whole number of steps of the
block's dt.

Cluster banks come from one place: ``simulate`` with a ``bank`` block
writes one under ``bank/`` in its output directory.  ``extremal`` only
reads banks, and its ``bank`` key, the directory of a saved bank, is
required.  Parsing reads no files, so a bad saved cluster bank exits 2
only once the run has started, a bad atom as much as a malformed row, and
so does a bank of fewer than 3 clusters for a ``stability`` check, before
any draw.
The overridable settings (seed, output directory, replica count, quiet
flag) resolve in the order: command line flag, then ``SBMLAB_*``
environment variable (``SBMLAB_SEED``, ``SBMLAB_OUT``,
``SBMLAB_REPLICAS``, ``SBMLAB_QUIET``), then config file value, then
built-in default.  Stochastic pipelines
(``fk``, ``simulate``, ``extremal``) refuse to run without a seed from
one of those sources; the deterministic ones ignore the seed entirely.
A missing ``mechanism`` block means the normalized quadratic mechanism
(alpha = 1, beta = 1, no jumps).

Exit codes: 0 success, 2 usage or configuration error, 3 a solver or a
check failed on inputs that parsed (a rule only the solver knows, or a
numeric failure), 4 Monte Carlo budget exhausted (conditioned-sampling
acceptance too low or attempts used up).
"""

from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .barriers import (
    BarriersError,
    c4_convexity,
    equilibrium,
    sandwich_bounds,
    solve_hA,
    strip_constants,
    widest_A,
)
from .csbp import CsbpError, extinction_prob, mass_laplace
from .extremal import (
    MAX_EXPECTED_POINTS, ClusterBank, ExtremalError, exp_stability_check, rightmost_cdf, sample_E_star,
    truncation_floor,
)
from .feynman_kac import FkError, fk_estimate
from .fronts import (
    FrontsError, TestFunction, _validate_ladder, constant_C, constant_C_hat, constant_C_tilde
)
from .kpp import SQRT2, Grid1D, InitialCondition, KppError, _grid_step, front_m, solve_U
from .mechanism import (
    BranchingMechanism, LevyMeasure, MechanismError, check_hypotheses, lambda_star,
    mechanism_to_dict,
)
from .particles import (
    AcceptanceTooLowError,
    ParticlesError,
    SimConfig,
    sample_conditioned_clusters,
    simulate,
)
from .pool import ordered_map, worker_count

__all__ = [
    "ENV_PREFIX",
    "EXIT_BUDGET",
    "EXIT_NUMERIC",
    "EXIT_OK",
    "EXIT_USAGE",
    "PIPELINES",
    "CliConfigError",
    "ExperimentConfig",
    "load_bank",
    "main",
    "run_pipeline",
    "save_bank",
]

ENV_PREFIX = "SBMLAB_"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4

PIPELINES = (
    "mech-check",
    "kpp",
    "csbp",
    "fk",
    "fronts",
    "simulate",
    "extremal",
    "ldp",
    "barriers",
)

_STOCHASTIC = frozenset({"fk", "simulate", "extremal"})

_DEFAULT_REPLICAS = {"fk": 20000, "simulate": 200, "extremal": 200}


class CliConfigError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# schema validation


_NUM = (int, float)


@dataclass(frozen=True)
class _Key:
    """One allowed key: accepted types, default, and an optional check.

    A key with ``min_len`` takes a list of at least that many numbers and
    parses it into a tuple of floats; its ``check`` applies to each entry.
    One with ``pairs`` takes a list of [number, number] pairs into a tuple
    of float pairs.  One with a ``schema`` takes an object validated against
    it.  One with ``kinds``, the (kinds, error) of ``_parse_kind``, takes an
    object whose "kind" names its constructor, and its default too is built.
    """

    types: tuple
    default: object = None
    required: bool = False
    check: Callable | None = None
    min_len: int = 0
    pairs: bool = False
    schema: dict | None = None
    kinds: tuple | None = None


def _positive(v) -> str | None:
    return None if v > 0 else "must be positive"


def _nonnegative(v) -> str | None:
    return None if v >= 0 else "must be nonnegative"


def _unit_interval(v) -> str | None:
    return None if 0 < v <= 1 else "must be in (0, 1]"


def _expected_points(v) -> str | None:
    return None if 0 < v <= MAX_EXPECTED_POINTS else f"must be in (0, {MAX_EXPECTED_POINTS:g}]"


def _stability_shift(v) -> str | None:
    # b solves e^{sqrt(2) a} + e^{sqrt(2) b} = 1, so e^{sqrt(2) a} must round below 1
    return None if v < 0 and math.exp(SQRT2 * v) < 1.0 else "must be negative, with e^(sqrt(2) a) below 1"


def _heaviside(v) -> str | None:
    return None if v == "heaviside" else "is neither 'heaviside' nor an object with a 'kind'"


def _check_type(name: str, value, types: tuple):
    """Refuse a value not of ``types``; a boolean is never taken for a number."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        got = "a boolean" if isinstance(value, bool) else type(value).__name__
        raise CliConfigError(f"{name}: expected {'/'.join(t.__name__ for t in types)}, got {got}")


def _number(name: str, value) -> float:
    """``value`` as a finite float, or a CliConfigError naming ``name``."""
    _check_type(name, value, _NUM)
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise CliConfigError(f"{name}: {value!r} is not a finite number")
    return out


def _read(name: str, value, spec: _Key):
    """One value the document sets, checked against ``spec`` and parsed."""
    _check_type(name, value, spec.types)
    if spec.schema is not None:
        return _validate(value, spec.schema, name)
    if spec.kinds is not None and isinstance(value, dict):
        kinds, error = spec.kinds
        return _parse_kind(value, kinds, name, error)
    if spec.pairs:
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in value):
            raise CliConfigError(f"{name}: expected a list of [number, number] pairs")
        return tuple((_number(name, p[0]), _number(name, p[1])) for p in value)
    if spec.min_len:
        if len(value) < spec.min_len:
            raise CliConfigError(f"{name}: expected a list of at least {spec.min_len} numbers")
        value = tuple(_number(name, v) for v in value)
    elif spec.types is _NUM:
        value = _number(name, value)
    for entry in value if spec.min_len else (value,):
        msg = spec.check(entry) if spec.check is not None else None
        if msg:
            raise CliConfigError(f"{name}: {entry!r} {msg}")
    return value


def _validate(data, schema: dict, where: str = "") -> dict:
    """The values ``data`` sets, defaults filled in, numbers as finite floats.

    ``where`` is the path of ``data`` in its document, "" at the top.
    Unknown keys, wrong types, NaN, infinities and failed checks raise a
    CliConfigError naming ``<where>.<key>``, at any depth.
    """
    if not isinstance(data, dict):
        raise CliConfigError(f"{where or 'config'}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        level = f"{where}: unknown keys" if where else "config: unknown top-level keys"
        raise CliConfigError(f"{level} {unknown}; allowed {sorted(schema)}")
    out = {}
    for key, spec in schema.items():
        name = f"{where}.{key}" if where else key
        value = data.get(key)
        if value is None:
            if spec.required:
                raise CliConfigError(f"{name} is required")
            if spec.kinds is None or spec.default is None:
                out[key] = spec.default
                continue
            value = spec.default
        out[key] = _read(name, value, spec)
    return out


def _parse_kind(spec: dict, kinds: dict, where: str, error: type[Exception]):
    """What ``spec["kind"]``'s constructor in ``kinds`` builds; its ``error`` comes out naming ``where``."""
    if "kind" not in spec:
        raise CliConfigError(f"{where}: expected an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise CliConfigError(f"{where}.kind: unknown kind {kind!r}; allowed {sorted(kinds)}")
    make, schema = kinds[kind]
    args = _validate({k: v for k, v in spec.items() if k != "kind"}, schema, where)
    with _blame(where, error):
        return make(**args)


def _filled(data: dict, schema: dict) -> dict:
    """``data`` as written, with the schema's defaults for absent keys: the hashed form."""
    return {k: spec.default if data.get(k) is None else data[k] for k, spec in schema.items()}


@contextlib.contextmanager
def _blame(where: str, *errors: type[Exception]):
    """Turn ``errors`` raised by a library constructor into a CliConfigError naming ``where``."""
    try:
        yield
    except errors as exc:
        raise CliConfigError(f"{where}: {exc}") from exc


_NEEDED = _Key(_NUM, required=True)

# kind: (constructor, schema of the keys besides "kind")
_PHI_KINDS = {
    "zero": (TestFunction.zero, {}),
    "indicator": (TestFunction.scaled_indicator, {"lam": _NEEDED, "a": _Key(_NUM, 0.0)}),
    "bump": (TestFunction.compact_bump, {"center": _NEEDED, "width": _NEEDED, "height": _NEEDED}),
    "table": (
        TestFunction.table,
        {
            "ys": _Key((list,), required=True, min_len=2),
            "vals": _Key((list,), required=True, min_len=2, check=_nonnegative),
        },
    ),
}
_LEVY_KINDS = {
    "none": (LevyMeasure.none, {}),
    "atoms": (lambda atoms: LevyMeasure.atoms(atoms), {"atoms": _Key((list,), required=True, pairs=True)}),
    "truncated-stable": (
        LevyMeasure.truncated_stable,
        {"c": _NEEDED, "index": _NEEDED, "cutoff": _Key(_NUM, math.inf)},
    ),
    "tabulated": (
        LevyMeasure.tabulated,
        {"y": _Key((list,), required=True, min_len=2), "density": _Key((list,), required=True, min_len=2)},
    ),
}
_PHI = (_PHI_KINDS, FrontsError)

# in a written block alpha defaults to 1.0 and beta to 0.0
_MECHANISM_SCHEMA = {
    "alpha": _Key(_NUM, 1.0),
    "beta": _Key(_NUM, 0.0),
    "levy": _Key((dict,), {"kind": "none"}, kinds=(_LEVY_KINDS, MechanismError)),
}


def _build_mechanism(opts: dict | None) -> BranchingMechanism:
    """The validated ``mechanism`` block's mechanism; no block means quadratic."""
    if opts is None:
        return BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
    with _blame("mechanism", MechanismError):
        return BranchingMechanism(**opts)


def _parse_data(data) -> InitialCondition:
    """The initial condition of a validated ``data`` key: "heaviside" or a test function."""
    return InitialCondition.heaviside() if data == "heaviside" else data.to_initial_condition()


_BANK_SCHEMA = {
    "z": _Key(_NUM, required=True),
    "t": _Key(_NUM, None, check=_positive),
    "n_accept": _Key((int,), required=True, check=_positive),
    "max_attempts": _Key((int,), None, check=_positive),
}

_STABILITY_SCHEMA = {
    "a": _Key(_NUM, -math.log(2.0) / SQRT2, check=_stability_shift),
    "n_samples": _Key((int,), 400, check=_positive),
}

_BLOCK_SCHEMAS: dict[str, dict] = {
    "kpp": {
        "t_end": _Key(_NUM, 8.0, check=_positive),
        "dx": _Key(_NUM, 0.05, check=_positive),
        "dt": _Key(_NUM, 0.01, check=_positive),
        "pad": _Key(_NUM, 20.0, check=_positive),
        "data": _Key((str, dict), "heaviside", check=_heaviside, kinds=_PHI),
        "snapshots": _Key((list,), None, min_len=1),
    },
    "csbp": {
        "theta_grid": _Key((list,), (0.5, 1.0, 2.0, 4.0, 8.0), check=_nonnegative, min_len=1),
        "t_grid": _Key((list,), (0.25, 0.5, 1.0, 2.0), min_len=1),
        "mass": _Key(_NUM, 1.0, check=_positive),
        "extinction": _Key((bool,), True),
    },
    "fk": {
        "r": _Key(_NUM, 0.5, check=_positive),
        "t": _Key(_NUM, 1.0, check=_positive),
        "x": _Key(_NUM, 0.0),
        "path_dt": _Key(_NUM, 0.002, check=_positive),
        "dx": _Key(_NUM, 0.02, check=_positive),
        "dt": _Key(_NUM, 0.004, check=_positive),
        "pad": _Key(_NUM, 14.0, check=_positive),
        "data": _Key((str, dict), "heaviside", check=_heaviside, kinds=_PHI),
    },
    "fronts": {
        "phi": _Key((dict,), {"kind": "bump", "center": 1.0, "width": 1.0, "height": 1.0}, kinds=_PHI),
        "r_ladder": _Key((list,), (4.0, 8.0, 16.0, 32.0), min_len=1),
        "dx": _Key(_NUM, 0.05, check=_positive),
        "dt": _Key(_NUM, 0.01, check=_positive),
        "with_tilde": _Key((bool,), True),
        "with_base": _Key((bool,), True),
    },
    "simulate": {
        "epsilon": _Key(_NUM, 0.5, check=_positive),
        "dt": _Key(_NUM, 0.025, check=_positive),
        "t_end": _Key(_NUM, 8.0, check=_positive),
        "snapshots": _Key((list,), None, min_len=1),
        "barrier_offset": _Key(_NUM, None, check=_positive),
        "initial": _Key((list,), None, pairs=True),
        "bank": _Key((dict,), None, schema=_BANK_SCHEMA),
    },
    "extremal": {
        "c_tilde_0": _Key(_NUM, required=True, check=_positive),
        "bank": _Key((str,), required=True),
        "expected_points": _Key(_NUM, 200.0, check=_expected_points),
        "stability": _Key((dict,), None, schema=_STABILITY_SCHEMA),
    },
    "ldp": {
        "delta": _Key(_NUM, 0.5, check=_positive),
        "r_ladder": _Key((list,), (4.0, 8.0, 16.0, 32.0), min_len=1),
        "dx": _Key(_NUM, 0.05, check=_positive),
        "dt": _Key(_NUM, 0.01, check=_positive),
    },
    "barriers": {
        "a": _Key(_NUM, 1.0, check=_positive),
        "b": _Key(_NUM, 1.0, check=_positive),
        "theta": _Key(_NUM, 1.0, check=_unit_interval),
        "A": _Key(_NUM, 5.0, check=_positive),
    },
}

# the whole config; seed and replicas are checked once flags and environment have had their say
_TOP_SCHEMA = {
    "pipeline": _Key((str,)),
    "mechanism": _Key((dict,), schema=_MECHANISM_SCHEMA),
    "seed": _Key((int,)),
    "out": _Key((str,)),
    "replicas": _Key((int,)),
    "quiet": _Key((bool,)),
    **{name: _Key((dict,), schema=schema) for name, schema in _BLOCK_SCHEMAS.items()},
}

# bank.json, as save_bank writes it
_BANK_META_SCHEMA = {
    "n_clusters": _Key((int,), required=True),
    "z": _NEEDED,
    "t": _NEEDED,
    "acceptance": _NEEDED,
    "seed": _Key((int,), required=True),
}

# block keys that say where an input lives, not what the experiment is: the
# hash leaves them out, as it leaves out the output directory
_LOCATIONS = {("extremal", "bank")}


# ---------------------------------------------------------------------------
# parsing: each pipeline's validated options into the values its runner uses;
# a parser takes (options, mechanism, seed, replicas)


def _parse_kpp(opts: dict, mech, seed, replicas) -> dict:
    t_end, dt = opts["t_end"], opts["dt"]
    with _blame("kpp.dx or kpp.dt", KppError):
        grid = Grid1D.auto(t_end, dx=opts["dx"], dt=dt, pad=opts["pad"])
    snaps = opts["snapshots"] or tuple(round(t_end * f / dt) * dt for f in (0.25, 0.5, 1.0))
    steps = [_grid_step("kpp.snapshots entry", s, dt, CliConfigError) for s in snaps]
    if not all(1 <= k <= grid.nt for k in steps):
        raise CliConfigError("kpp.snapshots must lie in (0, t_end]")
    return {"grid": grid, "init": _parse_data(opts["data"]), "snapshots": snaps}


def _parse_fk(opts: dict, mech, seed, replicas) -> dict:
    r, t, dx, dt, pad = opts["r"], opts["t"], opts["dx"], opts["dt"], opts["pad"]
    if r > t:
        raise CliConfigError("fk.r must not exceed fk.t")
    for name in ("r", "t"):
        _grid_step(f"fk.{name}", opts[name], dt, CliConfigError)
    with _blame("fk.dx or fk.dt", KppError):
        grid = Grid1D.auto(t, dx=dx, dt=dt, pad=pad)
    # the grid-error estimate solves again with both steps doubled
    with _blame("fk.dx or fk.dt (doubled for the coarse solve)", KppError):
        coarse = Grid1D.auto(t, dx=2 * dx, dt=2 * dt, pad=pad)
    return {**opts, "init": _parse_data(opts["data"]), "grid": grid, "coarse_grid": coarse}


def _parse_ladder(block: str, opts: dict, mech, seed, replicas) -> dict:
    with _blame(f"{block}.r_ladder", FrontsError):
        return {**opts, "r_ladder": _validate_ladder(opts["r_ladder"], opts["dt"])}


def _parse_simulate(opts: dict, mech, seed, replicas) -> dict:
    # no initial key means SimConfig's own default, unit mass at 0
    initial = {} if opts["initial"] is None else {"initial": opts["initial"]}
    _grid_step("simulate.t_end", opts["t_end"], opts["dt"], CliConfigError)
    for s in opts["snapshots"] or ():
        _grid_step("simulate.snapshots entry", s, opts["dt"], CliConfigError)
    with _blame("simulate", ParticlesError):
        sim = SimConfig(
            mech=mech,
            epsilon=opts["epsilon"],
            dt=opts["dt"],
            t_end=opts["t_end"],
            seed=seed,
            n_replicas=replicas,
            **initial,
            snapshot_times=opts["snapshots"],
            barrier_offset=opts["barrier_offset"],
            # the runner reads no cloud; the bank sampler turns clouds on for itself
            stats_only=True,
        )
    bank = opts["bank"]
    if bank is not None:
        bank = {**bank, "t": sim.t_end if bank["t"] is None else bank["t"]}
        _grid_step("simulate.bank.t", bank["t"], sim.dt, CliConfigError)
    return {"sim": sim, "bank": bank}


def _parse_barriers(opts: dict, mech, seed, replicas) -> dict:
    widest = widest_A(opts["a"], opts["b"], opts["theta"])
    if opts["A"] >= widest:
        raise CliConfigError(
            f"barriers.A: {opts['A']:g} is too wide; solve_hA needs A below {widest:.6g} "
            f"for a {opts['a']:g}, b {opts['b']:g}, theta {opts['theta']:g}"
        )
    return opts


# the other pipelines run on their validated options as they are
_PARSERS = {
    "kpp": _parse_kpp,
    "fk": _parse_fk,
    "fronts": functools.partial(_parse_ladder, "fronts"),
    "ldp": functools.partial(_parse_ladder, "ldp"),
    "simulate": _parse_simulate,
    "barriers": _parse_barriers,
}


# ---------------------------------------------------------------------------
# experiment configuration


def _env_int(env: dict, name: str) -> int | None:
    raw = env.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise CliConfigError(f"environment variable {name} must be an integer, got {raw!r}") from exc


def _env_bool(env: dict, name: str) -> bool | None:
    raw = env.get(name)
    if raw is None or raw == "":
        return None
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliConfigError(f"environment variable {name} must be boolean-like, got {raw!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved inputs of one pipeline run.

    ``block`` holds the chosen pipeline's options parsed into the values its
    runner uses (``Grid1D``, ``InitialCondition``, ``TestFunction``,
    ``SimConfig``, float tuples), which runners never change; ``config_hash``
    is the sha256 of the canonical experiment content (pipeline, mechanism,
    seed, replicas, the block as written with defaults filled), which excludes
    the output directory, the quiet flag and the location of a saved cluster
    bank (``extremal.bank``) on purpose, so the same experiment hashed in two
    directories matches.  The ``extremal`` manifest records the loaded bank's
    provenance instead.
    """

    pipeline: str
    mechanism: BranchingMechanism
    seed: int | None
    out: Path
    replicas: int | None
    quiet: bool
    block: dict
    config_hash: str

    @classmethod
    def from_sources(
        cls,
        pipeline: str,
        data: dict | None = None,
        seed: int | None = None,
        out: str | None = None,
        replicas: int | None = None,
        quiet: bool | None = None,
        env: dict | None = None,
    ) -> "ExperimentConfig":
        """Merge config file content, flags, and environment into one record."""
        if pipeline not in PIPELINES:
            raise CliConfigError(f"unknown pipeline {pipeline!r}; valid: {', '.join(PIPELINES)}")
        data = {} if data is None else data
        env = dict(os.environ) if env is None else env
        top = _validate(data, _TOP_SCHEMA)
        if top["pipeline"] is not None and top["pipeline"] != pipeline:
            raise CliConfigError(
                f"config names pipeline {top['pipeline']!r} but the command asks for {pipeline!r}"
            )
        mechanism = _build_mechanism(top["mechanism"])
        written = data.get(pipeline) or {}
        schema = _BLOCK_SCHEMAS.get(pipeline, {})
        opts = top.get(pipeline) or _validate({}, schema, pipeline)

        seed = seed if seed is not None else _env_int(env, ENV_PREFIX + "SEED")
        if seed is None:
            seed = top["seed"]
        if seed is not None and seed < 0:
            raise CliConfigError(f"seed must be nonnegative, got {seed}")
        replicas = replicas if replicas is not None else _env_int(env, ENV_PREFIX + "REPLICAS")
        if replicas is None:
            replicas = top["replicas"]
        if replicas is None:
            replicas = _DEFAULT_REPLICAS.get(pipeline)
        if replicas is not None and replicas < 1:
            raise CliConfigError("replicas must be at least 1")
        out_str = out if out is not None else env.get(ENV_PREFIX + "OUT") or top["out"]
        if out_str is None:
            out_str = os.path.join("runs", pipeline)
        if quiet is None:
            quiet = _env_bool(env, ENV_PREFIX + "QUIET")
        if quiet is None:
            quiet = bool(top["quiet"])

        if pipeline in _STOCHASTIC and seed is None:
            raise CliConfigError(
                f"pipeline {pipeline!r} is stochastic; set a seed via --seed, "
                f"{ENV_PREFIX}SEED, or the config file"
            )
        parse = _PARSERS.get(pipeline)
        block = opts if parse is None else parse(opts, mechanism, seed, replicas)

        canonical = json.dumps(
            {
                "pipeline": pipeline,
                "mechanism": mechanism_to_dict(mechanism),
                "seed": seed,
                "replicas": replicas,
                "block": {
                    k: v for k, v in _filled(written, schema).items()
                    if (pipeline, k) not in _LOCATIONS
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        return cls(
            pipeline=pipeline,
            mechanism=mechanism,
            seed=seed,
            out=Path(out_str),
            replicas=replicas,
            quiet=quiet,
            block=block,
            config_hash=digest,
        )

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)


# ---------------------------------------------------------------------------
# artifact bookkeeping


def _jsonable(obj):
    """Recursively convert numpy scalars, arrays, and tuples to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _dump_json(path: Path, payload) -> None:
    """Write payload as the CLI writes every JSON file: keys sorted, two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt_cell(v) -> str:
    # most cells are floats; float.__repr__ reads an np.float64 as its double
    if type(v) is float or type(v) is np.float64:
        return float.__repr__(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class _Artifacts:
    """Writes artifacts under the run directory and records manifest entries."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries: list[dict] = []
        self.wall_times: dict[str, float] = {}
        self.diagnostics: dict[str, dict] = {}

    def _register(self, rel: str, kind: str, description: str) -> None:
        if any(e["path"] == rel for e in self.entries):
            raise RuntimeError(f"artifact {rel} registered twice")
        self.entries.append({"path": rel, "kind": kind, "description": description})

    def write_csv(self, rel: str, header: list[str], rows, description: str) -> Path:
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row])
        self._register(rel, "csv", description)
        return path

    def write_json(self, rel: str, payload: dict, description: str) -> Path:
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        _dump_json(path, _jsonable(payload))
        self._register(rel, "json", description)
        return path

    def write_text(self, rel: str, text: str, kind: str, description: str) -> Path:
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        self._register(rel, kind, description)
        return path

    @contextlib.contextmanager
    def timed(self, stage: str):
        """Add the wall time of the ``with`` body to ``stage``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_times[stage] = self.wall_times.get(stage, 0.0) + time.perf_counter() - t0

    def write_manifest(self, config: ExperimentConfig, status: str, message: str) -> Path:
        payload = {
            "pipeline": config.pipeline,
            "status": status,
            "message": message,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config_sha256": config.config_hash,
            "mechanism": mechanism_to_dict(config.mechanism),
            "seed": config.seed,
            "replicas": config.replicas,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "sbmlab": __version__,
            },
            "wall_times_s": {k: round(v, 3) for k, v in sorted(self.wall_times.items())},
            "diagnostics": self.diagnostics,
            "outputs": self.entries,
        }
        path = self.out_dir / "manifest.json"
        _dump_json(path, payload)
        return path


def _gnuplot_lines(csv_name: str, n_cols: int, ylabel: str, title: str) -> str:
    plots = ", \\\n     ".join(
        f'"{csv_name}" using 1:{k} with lines' for k in range(2, n_cols + 1)
    )
    return (
        f"# {title}\n"
        f"# run with: gnuplot <this file>\n"
        "set datafile separator comma\n"
        "set key autotitle columnhead\n"
        "set grid\n"
        f'set ylabel "{ylabel}"\n'
        f"plot {plots}\n"
    )


# ---------------------------------------------------------------------------
# cluster bank serialization


def _bank_meta(bank: ClusterBank) -> dict:
    """The bank's provenance as bank.json stores it."""
    return {
        "n_clusters": bank.size,
        "z": bank.z,
        "t": bank.t,
        "acceptance": bank.acceptance,
        "seed": bank.seed,
    }


_BANK_HEADER = "cluster,location,weight\n"
_BANK_ROW = np.dtype([("cluster", np.int64), ("location", float), ("weight", float)])


def save_bank(bank: ClusterBank, directory: Path | str) -> tuple[Path, Path]:
    """Write a cluster bank as clusters.csv plus bank.json in ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "clusters.csv"
    owner = np.repeat(np.arange(bank.size), np.diff(bank.starts))
    # the rows csv.writer would write: a float's repr never needs quoting
    with open(csv_path, "w", newline="") as fh:
        fh.write(_BANK_HEADER)
        fh.writelines(
            f"{i},{loc!r},{wt!r}\n"
            for i, loc, wt in zip(owner.tolist(), bank.locations.tolist(), bank.weights.tolist())
        )
    meta_path = directory / "bank.json"
    _dump_json(meta_path, _bank_meta(bank))
    return csv_path, meta_path


def load_bank(directory: Path | str) -> ClusterBank:
    """Read a cluster bank written by :func:`save_bank`."""
    directory = Path(directory)
    meta_path = directory / "bank.json"
    csv_path = directory / "clusters.csv"
    if not meta_path.is_file() or not csv_path.is_file():
        raise CliConfigError(f"bank directory {directory} needs bank.json and clusters.csv")
    try:
        meta = _validate(json.loads(meta_path.read_text()), _BANK_META_SCHEMA, str(meta_path))
    except json.JSONDecodeError as exc:
        raise CliConfigError(f"bank metadata {meta_path} is not valid JSON: {exc}") from exc
    with open(csv_path) as fh:
        header = fh.readline()
        if header != _BANK_HEADER:
            raise CliConfigError(f"{csv_path} has unexpected header {header.rstrip()!r}")
        # np.loadtxt warns on a body with no rows, so look at the first one here
        body = fh.tell()
        if not fh.readline().strip():
            raise CliConfigError(f"{csv_path} holds no clusters")
        fh.seek(body)
        try:
            rows = np.loadtxt(fh, dtype=_BANK_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise CliConfigError(f"{csv_path} has a malformed row: {exc}") from exc
    # clusters in index order, each cluster's atoms in file order
    order = np.argsort(rows["cluster"], kind="stable")
    index = rows["cluster"][order]
    cuts = np.flatnonzero(np.diff(index)) + 1
    if index[0] != 0 or index[-1] != cuts.size:
        raise CliConfigError(
            f"{csv_path} numbers its {cuts.size + 1} clusters from {index[0]} to {index[-1]}, "
            f"not 0 to {cuts.size}"
        )
    stated = meta.pop("n_clusters")
    with _blame(f"bank in {directory} is inconsistent", ExtremalError):
        starts = np.concatenate(([0], cuts, [index.size]))
        bank = ClusterBank(rows["location"][order], rows["weight"][order], starts, **meta)
    if stated != bank.size:
        raise CliConfigError(
            f"{csv_path} holds {bank.size} clusters, but {meta_path} states n_clusters {stated!r}"
        )
    return bank


# ---------------------------------------------------------------------------
# pipeline runners


def _run_mech_check(config: ExperimentConfig, art: _Artifacts) -> None:
    with art.timed("checks"):
        report = check_hypotheses(config.mechanism)
    payload = dataclasses.asdict(report)
    payload["mechanism"] = mechanism_to_dict(config.mechanism)
    art.write_json("report.json", payload, "hypothesis checks and lambda_star")
    config.say(
        f"h1={report.h1} h2={report.h2} h3={report.h3} grey={report.grey} "
        f"lambda_star={report.lambda_star}"
    )


def _run_csbp(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    thetas, ts, mass = block["theta_grid"], block["t_grid"], block["mass"]
    rows = []
    with art.timed("laplace"):
        for theta in thetas:
            for t in ts:
                rows.append((theta, t, mass_laplace(config.mechanism, theta, t, mass=mass)))
    art.write_csv(
        "laplace.csv",
        ["theta", "t", "laplace"],
        rows,
        "Laplace functional of the total mass over the theta and t grids",
    )
    summary = {
        "mass": mass,
        "lambda_star": lambda_star(config.mechanism),
    }
    if block["extinction"]:
        ext_rows = []
        with art.timed("extinction"):
            for t in ts:
                res = extinction_prob(config.mechanism, t, mass=mass)
                ext_rows.append((t, res.prob, res.v_bar, res.converged))
        art.write_csv(
            "extinction.csv",
            ["t", "prob", "v_bar", "converged"],
            ext_rows,
            "extinction probability by time, from the flow started at infinity",
        )
        summary["extinction_final_t"] = ext_rows[-1][1]
        summary["extinction_limit"] = math.exp(-mass * summary["lambda_star"])
    art.write_json("summary.json", summary, "mass and extinction summary")
    config.say(f"lambda_star={summary['lambda_star']:.6g}")


def _run_kpp(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    grid = block["grid"]
    with art.timed("solve"):
        field = solve_U(config.mechanism, block["init"], grid, snapshot_times=block["snapshots"])
    art.diagnostics["solve"] = dict(field.diagnostics)
    header = ["x"] + [f"u_t{float(t):g}" for t in field.times]
    rows = zip(grid.x, *field.snapshots)
    art.write_csv("profiles.csv", header, rows, "field profiles at the snapshot times")
    med_rows = []
    for t, xm in zip(field.median_times, field.median_values):
        center = front_m(config.mechanism.alpha, float(t)) if t > 0 else float("nan")
        med_rows.append((t, xm, center, xm - center))
    art.write_csv(
        "median.csv",
        ["t", "median_x", "front_m", "lag"],
        med_rows,
        "per-step median position against the log-corrected centering",
    )
    art.write_text(
        "front_profiles.gp",
        _gnuplot_lines("profiles.csv", len(header), "u(t, x)", "Front profiles"),
        "plot",
        "gnuplot script for the profile snapshots",
    )
    snap_list = ", ".join(f"{float(t):g}" for t in field.times)
    config.say(f"solved to t={grid.t_end:g} on {grid.nx} cells, snapshots {snap_list}")


def _run_fk(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    r, t, x = block["r"], block["t"], block["x"]
    with art.timed("pde"):
        field = solve_U(config.mechanism, block["init"], block["grid"], snapshot_times=(r, t))
        coarse = solve_U(config.mechanism, block["init"], block["coarse_grid"], snapshot_times=(t,))
    pde_value = field.interp(t, x)
    grid_error = abs(pde_value - coarse.interp(t, x))
    with art.timed("paths"):
        est = fk_estimate(
            field,
            config.mechanism,
            r,
            t,
            x,
            n_paths=int(config.replicas),
            seed=int(config.seed),
            path_dt=block["path_dt"],
        )
    gap = abs(est.mean - pde_value)
    budget = 3.0 * (est.std_error + grid_error)
    payload = {
        "r": r,
        "t": t,
        "x": x,
        "n_paths": est.n_paths,
        "estimate": est.mean,
        "std_error": est.std_error,
        "pde_value": pde_value,
        "grid_error": grid_error,
        "abs_gap": gap,
        "gap_budget": budget,
        "agree": gap <= budget,
    }
    art.write_json("report.json", payload, "path estimate against the PDE value")
    config.say(
        f"estimate={est.mean:.6f} pde={pde_value:.6f} gap={gap:.2e} budget={budget:.2e}"
    )
    if not payload["agree"]:
        raise FkError(
            f"path estimate {est.mean:.6f} disagrees with the PDE value "
            f"{pde_value:.6f} beyond the error budget {budget:.2e}"
        )


def _ladder_csv(art: _Artifacts, estimates: dict[str, object], rel: str) -> int:
    names = list(estimates)
    r_values = estimates[names[0]].r_values
    rows = [(r, *[estimates[n].ladder[i] for n in names]) for i, r in enumerate(r_values)]
    art.write_csv(
        rel,
        ["r"] + names,
        rows,
        "constant ladder rungs by horizon r",
    )
    return len(names) + 1


def _estimate_payload(est) -> dict:
    return {
        "value": est.value,
        "error": est.error,
        "r_values": list(est.r_values),
        "ladder": list(est.ladder),
    }


_FRONT_CONSTANTS = ("C_phi", "C_tilde_phi", "C_tilde_0")


def _front_constant(config: ExperimentConfig, name: str):
    """One constant of the fronts pipeline and its wall time: a pool task."""
    block = config.block
    grid = {"r_ladder": block["r_ladder"], "dx": block["dx"], "dt": block["dt"]}
    t0 = time.perf_counter()
    if name == "C_phi":
        est = constant_C(config.mechanism, block["phi"], **grid)
    else:
        phi = block["phi"] if name == "C_tilde_phi" else None
        est = constant_C_tilde(config.mechanism, phi, **grid)
    return est, time.perf_counter() - t0


def _run_fronts(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    wanted = (True, block["with_tilde"], block["with_base"])
    names = [name for name, want in zip(_FRONT_CONSTANTS, wanted) if want]
    # the constants are few and about equally long, so each gets a worker
    # of its own wherever the pool runs at all
    workers = len(names) if worker_count(len(names)) > 1 else 1
    art.diagnostics["constants"] = {"workers": workers}
    estimates: dict[str, object] = {}
    task = functools.partial(_front_constant, config)
    with contextlib.closing(ordered_map(task, names, workers)) as results:
        for name, (est, seconds) in zip(names, results):
            estimates[name] = est
            art.wall_times[name] = seconds
    n_cols = _ladder_csv(art, estimates, "ladder.csv")
    art.write_json(
        "constants.json",
        {name: _estimate_payload(est) for name, est in estimates.items()},
        "extrapolated front constants with ladder diagnostics",
    )
    art.write_text(
        "ladder_convergence.gp",
        _gnuplot_lines("ladder.csv", n_cols, "rung value", "Ladder convergence"),
        "plot",
        "gnuplot script for the constant ladders",
    )
    config.say(
        " ".join(f"{name}={est.value:.6g}(±{est.error:.1g})" for name, est in estimates.items())
    )


def _run_ldp(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    delta = block["delta"]
    with art.timed("C_hat"):
        est = constant_C_hat(
            config.mechanism, delta, r_ladder=block["r_ladder"], dx=block["dx"], dt=block["dt"]
        )
    n_cols = _ladder_csv(art, {"C_hat": est}, "ladder.csv")
    art.write_json(
        "ldp.json",
        {"delta": delta, "C_hat": _estimate_payload(est)},
        "tilted constant for the chosen speedup delta",
    )
    art.write_text(
        "ladder_convergence.gp",
        _gnuplot_lines("ladder.csv", n_cols, "rung value", "Tilted ladder convergence"),
        "plot",
        "gnuplot script for the tilted ladder",
    )
    config.say(f"C_hat({delta:g})={est.value:.6g}(±{est.error:.1g})")


def _run_simulate(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    sim_config = block["sim"]
    with art.timed("replicas"):
        result = simulate(sim_config)
    art.diagnostics["replicas"] = dict(result.diagnostics)
    rows = zip(
        range(result.m.shape[0]),
        result.survived,
        result.exploded,
        result.extinction_time,
        result.m[:, -1],
        result.z[:, -1],
        result.mass[:, -1],
    )
    art.write_csv(
        "replicas.csv",
        ["replica", "survived", "exploded", "extinction_time", "m_final", "z_final", "mass_final"],
        rows,
        "per-replica survival and final observables",
    )
    snap_rows = []
    for t, m, mass, z in zip(result.times, result.m.T, result.mass.T, result.z.T):
        alive = np.isfinite(m)
        snap_rows.append(
            (
                t,
                float(np.mean(alive)),
                float(np.mean(m[alive])) if alive.any() else float("nan"),
                float(np.nanmean(np.where(alive, mass, np.nan))) if alive.any() else float("nan"),
                float(np.nanmean(np.where(alive, z, np.nan))) if alive.any() else float("nan"),
            )
        )
    art.write_csv(
        "snapshots.csv",
        ["t", "alive_fraction", "mean_m", "mean_mass", "mean_z"],
        snap_rows,
        "per-snapshot survival fraction and survivor means",
    )
    t_last = float(result.times[-1])
    m_last = result.m[:, -1]
    survivors = np.sort(m_last[np.isfinite(m_last)])
    center = front_m(config.mechanism.alpha, t_last)
    cdf_rows = [
        (v - center, (i + 1) / survivors.size) for i, v in enumerate(survivors)
    ]
    art.write_csv(
        "mt_cdf.csv",
        ["m_minus_center", "cdf"],
        cdf_rows,
        "empirical CDF of the centered front among surviving replicas",
    )
    art.write_text(
        "mt_cdf.gp",
        _gnuplot_lines("mt_cdf.csv", 2, "P(M - m(t) <= x)", "Centered front CDF"),
        "plot",
        "gnuplot script for the centered front CDF",
    )
    config.say(
        f"survival={result.survived.mean():.3f} over {result.survived.size} replicas "
        f"to t={t_last:g}"
    )
    bank_spec = block["bank"]
    if bank_spec is not None:
        with art.timed("bank"):
            bank = sample_conditioned_clusters(
                sim_config,
                z=bank_spec["z"],
                t=bank_spec["t"],
                n_accept=bank_spec["n_accept"],
                max_attempts=bank_spec["max_attempts"],
            )
            save_bank(bank, art.out_dir / "bank")
        art.diagnostics["bank"] = dict(bank.diagnostics)
        art._register("bank/clusters.csv", "bank", "conditioned cluster atoms, one row per atom")
        art._register("bank/bank.json", "bank", "bank provenance: level, horizon, acceptance, seed")
        config.say(
            f"bank: {bank.size} clusters at z={bank.z:g}, acceptance {bank.acceptance:.2e}"
        )


def _run_extremal(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    c0 = block["c_tilde_0"]
    bank = load_bank(Path(block["bank"]))
    # the config hash leaves the bank's location out; its provenance goes here
    art.diagnostics["bank"] = _bank_meta(bank)
    stab_spec = block["stability"]
    if stab_spec is not None and bank.size < 3:
        # the check splits the bank three ways, one part per arm
        raise CliConfigError(
            f"extremal.stability needs a bank of at least 3 clusters; {block['bank']} holds {bank.size}"
        )
    expected = block["expected_points"]
    floor = truncation_floor(c0, expected)
    rng = np.random.default_rng([int(config.seed), 211])
    n_samples = int(config.replicas)
    rows = []
    rightmosts = np.empty(n_samples)
    with art.timed("draws"):
        for i in range(n_samples):
            draw = sample_E_star(c0, bank, rng, x_floor=floor)
            rightmosts[i] = draw.rightmost
            rows.append((i, rightmosts[i], draw.n_points, draw.total_mass))
    art.write_csv(
        "samples.csv",
        ["sample", "rightmost", "n_points", "total_mass"],
        rows,
        "per-draw rightmost atom, point count, and total decorated mass",
    )
    finite = rightmosts[np.isfinite(rightmosts)]
    if finite.size:
        xs = np.linspace(max(float(finite.min()), floor), float(finite.max()) + 0.5, 201)
        emp = np.searchsorted(np.sort(finite), xs, side="right") / finite.size
        theory = rightmost_cdf(xs, c0, Z=1.0)
        art.write_csv(
            "rightmost_cdf.csv",
            ["x", "empirical", "theory"],
            zip(xs, emp, theory),
            "empirical rightmost-atom CDF against the closed-form limit law",
        )
        art.write_text(
            "rightmost_cdf.gp",
            _gnuplot_lines("rightmost_cdf.csv", 3, "P(max <= x)", "Rightmost atom CDF"),
            "plot",
            "gnuplot script comparing the empirical and limit CDFs",
        )
    if stab_spec is not None:
        with art.timed("stability"):
            report = exp_stability_check(
                c0,
                bank,
                a=stab_spec["a"],
                seed=np.random.default_rng([int(config.seed), 212]),
                n_samples=stab_spec["n_samples"],
            )
        art.write_json(
            "stability.json",
            dataclasses.asdict(report),
            "split-and-shift invariance check on rightmost points",
        )
        config.say(
            f"stability: KS p={report.ks_pvalue:.3f} over {report.n_samples} paired draws"
        )
    config.say(
        f"{n_samples} draws from a bank of {bank.size} clusters, "
        f"median rightmost {float(np.median(finite)) if finite.size else float('nan'):.3f}"
    )


def _run_barriers(config: ExperimentConfig, art: _Artifacts) -> None:
    block = config.block
    a, b, theta, big_a = block["a"], block["b"], block["theta"], block["A"]
    with art.timed("solve"):
        sol = solve_hA(a, b, theta, big_a)
    lower, upper = sandwich_bounds(sol)
    art.write_csv(
        "profile.csv",
        ["x", "h", "lower", "upper"],
        zip(sol.x, sol.h, lower, upper),
        "blow-up profile between its analytic envelopes",
    )
    with art.timed("constants"):
        strip = strip_constants(a, b, theta)
    payload = {
        "a": a,
        "b": b,
        "theta": theta,
        "A": big_a,
        "equilibrium": equilibrium(a, b, theta),
        "c1": strip.c1,
        "c2": strip.c2,
        "c3": strip.c3,
        "c4_convexity": c4_convexity(theta),
        "strip_delta": strip.delta,
        "strip_K": strip.K,
        "strip_c4": strip.c4,
        "c5": strip.c5,
        "h0": sol.h0,
    }
    art.write_json("constants.json", payload, "sandwich and confinement constants")
    art.write_text(
        "profile.gp",
        _gnuplot_lines("profile.csv", 4, "h_A(x)", "Blow-up profile and envelopes"),
        "plot",
        "gnuplot script for the profile between its envelopes",
    )
    config.say(
        f"profile at {len(sol.x)} nodes, center h(0)={sol.h0:.6g}, "
        f"c5={strip.c5:.6g}"
    )


_RUNNERS = {
    "mech-check": _run_mech_check,
    "kpp": _run_kpp,
    "csbp": _run_csbp,
    "fk": _run_fk,
    "fronts": _run_fronts,
    "simulate": _run_simulate,
    "extremal": _run_extremal,
    "ldp": _run_ldp,
    "barriers": _run_barriers,
}

_NUMERIC_ERRORS = (
    MechanismError,
    CsbpError,
    KppError,
    FkError,
    FrontsError,
    ParticlesError,
    ExtremalError,
    BarriersError,
)


def run_pipeline(config: ExperimentConfig) -> tuple[int, Path]:
    """Run one configured pipeline; returns (exit code, artifact directory).

    The manifest is written even when the run fails, so partial artifacts
    stay accounted for; its ``status`` and ``message`` fields say what
    happened.
    """
    config.out.mkdir(parents=True, exist_ok=True)
    art = _Artifacts(config.out)
    status, message, code = "ok", "", EXIT_OK
    t0 = time.perf_counter()
    try:
        _RUNNERS[config.pipeline](config, art)
    except CliConfigError as exc:
        status, message, code = "config-error", str(exc), EXIT_USAGE
    except AcceptanceTooLowError as exc:
        status, message, code = "budget-exhausted", str(exc), EXIT_BUDGET
    except _NUMERIC_ERRORS as exc:
        status, message, code = "numeric-error", str(exc), EXIT_NUMERIC
    art.wall_times["total"] = time.perf_counter() - t0
    manifest = art.write_manifest(config, status, message)
    if code == EXIT_OK:
        config.say(f"wrote {manifest}")
    else:
        print(f"{config.pipeline}: {status}: {message}", file=sys.stderr)
    return code, config.out


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmlab",
        description="branching-front laboratory pipelines",
        epilog=(
            "settings resolve flag, then SBMLAB_* environment variable, then "
            "config value, then default; see the module docstring for the schema"
        ),
    )
    sub = parser.add_subparsers(dest="pipeline", required=True, metavar="pipeline")
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        p.add_argument("--out", type=str, default=None, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--replicas", type=int, default=None, help="replica / path / draw count")
        p.add_argument("--quiet", action="store_true", default=None, help="suppress progress lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    data = None
    if ns.config is not None:
        try:
            data = json.loads(Path(ns.config).read_text())
        except OSError as exc:
            print(f"cannot read config {ns.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except json.JSONDecodeError as exc:
            print(f"config {ns.config} is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        config = ExperimentConfig.from_sources(
            ns.pipeline,
            data,
            seed=ns.seed,
            out=ns.out,
            replicas=ns.replicas,
            quiet=ns.quiet,
        )
    except CliConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    code, _ = run_pipeline(config)
    return code


if __name__ == "__main__":
    sys.exit(main())
