"""Benchmark of sbmlab's CLI pipelines: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload fields --seed 1 --seconds 30 --trace 0

The workload's pipeline runs go in rounds; a new round starts while the
previous round's length still fits in ``--seconds`` (there is always at
least one).  Every pipeline run is checked against the references in
``oracles.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``tracing.py``.  Artifacts go to a temporary directory under
``.perfbench_out/`` that is removed at the end; traced runs leave their
spans in ``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools stay at one thread, which is at most nproc, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("fields", "particles", "jumps")
SETUP_PROBES = 5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import and build the workload's configs, print the wall-clock time and exit",
    )
    return parser.parse_args(argv)


def _bootstrap() -> None:
    if not (SRC / "sbmlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no sbmlab sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def _measure_setup(args: argparse.Namespace) -> float:
    """Median over fresh processes of the time from spawn to the first pipeline call."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - spawned)
    return statistics.median(samples)


def _run_rounds(ops, seconds: float) -> tuple[list[dict[str, float]], int, int, list[str]]:
    """Run whole rounds of ``ops``; returns per-round times, attempted, failed, unexpected problems."""
    from sbmlab import cli

    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    unexpected: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times = {}
        for op in ops:
            t0 = time.perf_counter()
            # looked up per call so the traced run sees the wrapped function
            code, out = cli.run_pipeline(op.config)
            times[op.name] = time.perf_counter() - t0
            attempted += 1
            problems = [f"{op.name} exited with code {code}"] if code else []
            if not code:
                try:
                    problems += op.check(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"{op.name} artifacts unreadable: {exc!r}")
            if problems:
                failed += 1
                if set(problems) != op.known_fault:
                    unexpected += problems
        rounds.append(times)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds, attempted, failed, unexpected


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _bootstrap()
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, OUT_ROOT / "probe")
        print(repr(time.time()))
        return 0

    setup_s = None if args.trace else _measure_setup(args)

    import workloads

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            with tracer.capture_warnings():
                rounds, attempted, failed, unexpected = _run_rounds(ops, args.seconds)
        else:
            rounds, attempted, failed, unexpected = _run_rounds(ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        tracer.write(
            OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds)},
        )
        for name in tracer.missing:
            print(f"perfbench: {name} not traced; its metrics read 0", file=sys.stderr)
        values = tracer.metrics(rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(r.values()) for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for problem in unexpected:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {len(rounds)} rounds of {[op.name for op in ops]}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
