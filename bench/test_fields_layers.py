"""Per-layer timings for the `fields` workload.

Two rows on the `fk` pipeline's default field (quadratic psi, heaviside
data, ``Grid1D.auto(1.0, dx=0.02, dt=0.004, pad=14.0)``, snapshots at
t = 0.5 and 1):

- ``Field.interp`` on 20,000 points between the two snapshots, the call
  ``fk_estimate`` makes at each of its path steps;
- one ``fk_estimate`` with the pipeline's defaults (r 0.5, t 1, x 0, 20,000
  paths, seed 1, path_dt 0.002).

Two rows on the `fronts` and `ldp` pipelines' barrier field (quadratic psi,
the workload's r ladder 4, 8, 16, dx 0.05, dt 0.01):

- one ``solve_V`` march to t = 16 on the grid ``constant_C_tilde`` builds
  for that ladder;
- one ``constant_C_tilde`` (phi = None) on that ladder: the march plus the
  three overshoot integrals and the ladder fit.

One row on the whole `fronts` pipeline at the `fields` workload's config
(quadratic psi, bump phi with centre 1, width 1 and height 1, that ladder,
the pipeline's dx and dt, quiet): one ``run_pipeline`` computing C_phi,
C~_phi and C~_0, with the CLI's artifacts written.  It pins the bytes of
``constants.json``, which do not depend on the worker count.

Two rows on the `fields` workload's other whole pipelines (quadratic psi,
quiet, the CLI's artifacts written):

- one `kpp` ``run_pipeline`` from heaviside data to t_end 16, pinning the
  bytes of ``profiles.csv`` and ``median.csv``;
- one `ldp` ``run_pipeline`` on the ladder 4, 8, 16, pinning the bytes of
  ``ldp.json``.

Two rows on one march step of the `jumps` workload's `kpp` pipeline
(pure-jump truncated-stable psi: alpha 1, beta 0, c 1, index 1.5, cutoff 5;
``Grid1D.auto(8.0)`` at the `kpp` defaults dx 0.05, dt 0.01, pad 20, so
1255 nodes and 800 steps):

- one ``solve_U`` from heaviside data to t = 8 with the pipeline's
  snapshots (2, 4, 8), whose reaction is the mechanism's flow table;
- one table ``flow_map`` call (time dt) on that field's t = 4 row, the
  reaction half of a march step: 593 nodes descend to lambda*, 661 climb
  and one stays at 0.

Both pin their output bits, so a faster step must keep every bit.

Two rows on that mechanism's own kernels, the work behind its flow table:

- one ``psi`` on a fixed grid of 10^4 points, geometric from 1e-4 to 1e4;
- one flow table build, ``mechanism._FlowTable``, called directly so the
  per-mechanism cache of ``flow_map`` does not serve it.

Both pin their output bits: the psi values, and the table's lambda* and
the cell coefficients and nodes of its four Hermite interpolants.

One ``check_hypotheses`` on that mechanism, the first stage of the `jumps`
workload's `mech-check` pipeline, and one ``solve_hA`` at the `barriers`
pipeline's defaults (a 1, b 1, theta 1, A 5).  Both pin their output bits
too: the report's fields as JSON, and the profile nodes and values.

One row on the whole `mech-check` pipeline on that mechanism (quiet), the
`jumps` workload's first operation: one ``run_pipeline`` with the CLI's
artifacts written.  It pins the bytes of ``report.json``.

One row on the whole `csbp` pipeline on that mechanism, read from the
config's ``mechanism`` block (quiet; default theta grid, t 1, no
extinction table), as the `jumps` workload runs it: one ``run_pipeline``
pinning the bytes of ``laplace.csv`` and ``summary.json``.

One row on the whole `fk` pipeline at its defaults (quiet, seed 1, 20,000
paths): one ``run_pipeline`` solving the field twice, on its grid and on
the doubled one, and estimating the path integral.  It pins the bytes of
``report.json``.

One row on the whole `barriers` pipeline at its defaults (quiet): one
``run_pipeline`` solving h_A, its envelopes and the strip constants, with
the CLI's artifacts written.  It pins the bytes of ``profile.csv`` and
``constants.json``.

Run from the repository root with pytest-benchmark installed (the ``bench``
extra: ``pip install -e .[bench]``):

    python -m pytest bench --benchmark-json=bench-fields.json

``bench/`` is outside the tier-1 ``testpaths``, so the test suite neither
collects nor waits for it.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from sbmlab.barriers import solve_hA
from sbmlab.feynman_kac import fk_estimate
from sbmlab.fronts import constant_C_tilde
from sbmlab.kpp import Grid1D, InitialCondition, solve_U, solve_V
from sbmlab.mechanism import BranchingMechanism, LevyMeasure, _FlowTable, check_hypotheses, flow_map, psi

QUADRATIC = BranchingMechanism(alpha=1.0, beta=1.0, levy=LevyMeasure.none())
JUMPS = BranchingMechanism(alpha=1.0, beta=0.0, levy=LevyMeasure.truncated_stable(1.0, 1.5, 5.0))
JUMPS_GRID = Grid1D.auto(8.0, dx=0.05, dt=0.01, pad=20.0)
JUMPS_SNAPSHOTS = (2.0, 4.0, 8.0)
R_LADDER = (4.0, 8.0, 16.0)
# constant_C_tilde's pad for a top rung of 16: its overshoot cap 6 sqrt(32) + 8, plus 4
V_PAD = 6.0 * math.sqrt(2.0 * R_LADDER[-1]) + 8.0 + 4.0


@pytest.fixture(scope="module")
def fk_field():
    grid = Grid1D.auto(1.0, dx=0.02, dt=0.004, pad=14.0)
    return solve_U(QUADRATIC, InitialCondition.heaviside(), grid, snapshot_times=(0.5, 1.0))


def test_interp_20000_points_between_snapshots(benchmark, fk_field):
    # Brownian positions at time 0.5 from x = 0, as fk_estimate's paths reach them
    x = np.random.default_rng(0).normal(0.0, np.sqrt(0.5), 20_000)
    out = benchmark(fk_field.interp, 0.75, x)
    assert out.shape == x.shape


def test_fk_estimate_pipeline_defaults(benchmark, fk_field):
    res = benchmark.pedantic(
        fk_estimate,
        args=(fk_field, QUADRATIC, 0.5, 1.0, 0.0),
        kwargs={"n_paths": 20_000, "seed": 1, "path_dt": 0.002},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert (res.mean, res.std_error) == (0.6464556602498297, 0.0022176976148456273)


def test_solve_V_march_to_top_rung(benchmark):
    grid = Grid1D.auto(R_LADDER[-1], dx=0.05, dt=0.01, pad=V_PAD)
    field = benchmark.pedantic(
        solve_V,
        args=(QUADRATIC, None, grid),
        kwargs={"snapshot_times": R_LADDER},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert field.at(R_LADDER[-1]).shape == (grid.nx,)


def test_constant_C_tilde_workload_ladder(benchmark):
    est = benchmark.pedantic(
        constant_C_tilde,
        args=(QUADRATIC,),
        kwargs={"r_ladder": R_LADDER},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert (est.value, est.error) == (3.229282518959373, 0.20560773379812325)


def test_fronts_pipeline_workload_config(run_quiet):
    bump = {"kind": "bump", "center": 1.0, "width": 1.0, "height": 1.0}
    data = {"fronts": {"phi": bump, "r_ladder": list(R_LADDER)}}
    digests = run_quiet("fronts", data, ("constants.json",))
    assert digests == ["b07c25e9caf7f69ccca61accb862d1767895a56a46b80b68024b2233777512a3"]


def test_kpp_pipeline_workload_config(run_quiet):
    digests = run_quiet("kpp", {"kpp": {"t_end": 16.0}}, ("profiles.csv", "median.csv"))
    assert digests == [
        "6701a86094bf02591012ba86c245841834c4f3390c8d93ad47cec29dbdf62079",
        "9d4f821bac69bb23d4253517413a037937bb0e57d46bd8f43ce795b16adf3e2d",
    ]


def test_ldp_pipeline_workload_ladder(run_quiet):
    digests = run_quiet("ldp", {"ldp": {"r_ladder": list(R_LADDER)}}, ("ldp.json",))
    assert digests == ["e47f2a4270525137baf34a88fe92f34db17cc7b86b40239eb07fa75e1b1695c1"]


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def test_solve_U_jumps_kpp_defaults(benchmark):
    field = benchmark.pedantic(
        solve_U,
        args=(JUMPS, InitialCondition.heaviside(), JUMPS_GRID),
        kwargs={"snapshot_times": JUMPS_SNAPSHOTS},
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert field.diagnostics["reaction"] == "table"
    assert _sha(field.snapshots) == "41d1573c4f41eb60b9d39ec62a7de5631b29f9ed5d1bd75a7c12d95740dda1e5"


def test_table_flow_map_1255_node_row(benchmark):
    row = solve_U(JUMPS, InitialCondition.heaviside(), JUMPS_GRID, snapshot_times=JUMPS_SNAPSHOTS).at(4.0)
    flow = flow_map(JUMPS, JUMPS_GRID.dt)
    out = benchmark(flow, row)
    assert row.shape == (1255,)
    assert _sha(out) == "4530a43dabc16ced6a1423de3157728ee92181743494e13812a59a7037bc64b0"


def test_psi_jumps_10000_points(benchmark):
    lam = np.geomspace(1e-4, 1e4, 10_000)
    out = benchmark(psi, JUMPS, lam)
    assert _sha(out) == "a26b5d9c522afa5f24fbe774f60cc174e0bcfa2e7aedfcc6436031a5413f7f6e"


def test_flow_table_build_jumps(benchmark):
    table = benchmark.pedantic(_FlowTable, args=(JUMPS,), rounds=20, iterations=1, warmup_rounds=1)
    parts = [np.array([table.lam])]
    for h in (table.up, table.up_inv, table.down, table.down_inv):
        parts += [h.coef.ravel(), h.x]
    assert _sha(np.concatenate(parts)) == "cfd20c5f934fafd33007bc341855bcf5479a86582498e509a7a371f471dde694"


def test_check_hypotheses_jumps(benchmark):
    report = benchmark.pedantic(check_hypotheses, args=(JUMPS,), rounds=7, iterations=1, warmup_rounds=1)
    digest = hashlib.sha256(json.dumps(dataclasses.asdict(report)).encode()).hexdigest()
    assert digest == "5f18bbac8eae2c096dc5a75a924c9ee367f87ddfd2d29020743bb7a9ff97bf48"


def test_mech_check_pipeline_jumps(run_quiet):
    levy = {"kind": "truncated-stable", "c": 1.0, "index": 1.5, "cutoff": 5.0}
    data = {"mechanism": {"alpha": 1.0, "beta": 0.0, "levy": levy}}
    digests = run_quiet("mech-check", data, ("report.json",))
    assert digests == ["3372366248c0043276d41fbe916b4bbcc101cdbebdc47358a4f504474d9dc1f3"]


def test_csbp_pipeline_jumps(run_quiet):
    levy = {"kind": "truncated-stable", "c": 1.0, "index": 1.5, "cutoff": 5.0}
    data = {
        "mechanism": {"alpha": 1.0, "beta": 0.0, "levy": levy},
        "csbp": {"t_grid": [1.0], "extinction": False},
    }
    digests = run_quiet("csbp", data, ("laplace.csv", "summary.json"))
    assert digests == [
        "7e26f1f3c955866f4897c9f805c63711ee51764406c5b1e8c140753a69bba1d2",
        "f15cf242fac183c95efc98485210526a74dea0748ccae1051b1fba482c1a2659",
    ]


def test_fk_pipeline_defaults(run_quiet):
    digests = run_quiet("fk", {"seed": 1}, ("report.json",))
    assert digests == ["61e7c4c36f8268dd2657b852a01e8e9467729c94a2d41bac39ac6f52cd18442a"]


def test_solve_hA_barriers_defaults(benchmark):
    sol = benchmark.pedantic(solve_hA, args=(1.0, 1.0, 1.0, 5.0), rounds=7, iterations=1, warmup_rounds=1)
    assert _sha(np.concatenate((sol.x, sol.h))) == "a1fc13b41bb952e3158866ff56395511de239ac61644c4812f3321a0cd3bdd5c"


def test_barriers_pipeline_defaults(run_quiet):
    digests = run_quiet("barriers", {}, ("profile.csv", "constants.json"))
    assert digests == [
        "bc96494189f461bb6d758ba4e1863d16191a27f50e703dfd414608f19a68a458",
        "38778a2363538953098da1d5f7d0b9de3ca8c66bf329656dd570e54b7ea24012",
    ]
