"""Shared helper of the per-layer timing rows."""

import hashlib

import pytest

from sbmlab.cli import ExperimentConfig, run_pipeline


@pytest.fixture
def run_quiet(benchmark, tmp_path):
    """Time one quiet ``run_pipeline`` of a pipeline on a config; the sha256 of each named artifact."""

    def run(pipeline: str, data: dict, names: tuple[str, ...]) -> list[str]:
        config = ExperimentConfig.from_sources(pipeline, data, out=str(tmp_path / pipeline), quiet=True, env={})
        code, out = benchmark.pedantic(run_pipeline, args=(config,), rounds=7, iterations=1, warmup_rounds=1)
        assert code == 0
        return [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names]

    return run
