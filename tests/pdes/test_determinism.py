"""Determinism matrix and crash-surfacing regression for sharded hybrid.

Satellite 2 of the shard test pack: seeds × workers × (metrics on/off)
must produce byte-identical merged worker stats and outcome
distributions, and a worker crash mid-window must surface as a
structured error in the run manifest — never a hang.
"""

from __future__ import annotations

import time

import pytest

from repro.core.hybrid import HybridConfig
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.obs import MetricsRegistry
from repro.pdes import HybridShardConfig, WorkerCrashError, run_hybrid_sharded
from repro.runs.executor import execute_run
from repro.runs.spec import RunRequest
from repro.topology.clos import ClosParams

HYBRID = HybridConfig(elide_remote_traffic=False)


def _experiment(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        clos=ClosParams(clusters=3), load=0.25, duration_s=0.0015, seed=seed
    )


# ----------------------------------------------------------------------
# Determinism matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workers", [1, 2])
def test_same_seed_runs_byte_identical(trained_bundle, seed, workers):
    shard = HybridShardConfig(workers=workers)
    first = run_hybrid_sharded(
        _experiment(seed), trained_bundle, shard=shard, hybrid=HYBRID
    )
    again = run_hybrid_sharded(
        _experiment(seed), trained_bundle, shard=shard, hybrid=HYBRID
    )
    # Byte-identical merged worker stats (deterministic fields) ...
    assert first.determinism_signature() == again.determinism_signature()
    # ... and byte-identical outcome distributions.
    assert first.outcome_signature() == again.outcome_signature()
    assert first.invariant_violations == 0


def test_different_seeds_differ(trained_bundle):
    a = run_hybrid_sharded(
        _experiment(3),
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
    )
    b = run_hybrid_sharded(
        _experiment(11),
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
    )
    assert a.outcome_signature() != b.outcome_signature()


def test_metrics_do_not_perturb_outcomes(trained_bundle):
    """MetricsRegistry counters never schedule events, so the
    deterministic view is identical with observability on and off."""
    registry = MetricsRegistry(enabled=True)
    on = run_hybrid_sharded(
        _experiment(3),
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
        metrics=registry,
    )
    off = run_hybrid_sharded(
        _experiment(3),
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
    )
    assert on.determinism_signature() == off.determinism_signature()
    assert on.outcome_signature() == off.outcome_signature()
    assert all(s.metrics_snapshot is not None for s in on.worker_stats)
    assert all(s.metrics_snapshot is None for s in off.worker_stats)
    windows = {
        c["labels"]["worker"]: c["value"]
        for c in registry.snapshot()["counters"]
        if c["name"] == "pdes.windows"
    }
    assert windows == {"0": on.windows, "1": on.windows}


def test_merged_counters_report_every_worker(trained_bundle):
    result = run_hybrid_sharded(
        _experiment(3),
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
    )
    merged = result.pdes
    assert merged["workers"] == 2
    assert len(merged["per_worker"]) == 2
    assert merged["exchanges"] > 0
    assert merged["invariant_violations"] == 0
    assert merged["lookahead_violations"] == 0
    for entry in merged["per_worker"]:
        assert entry["windows"] > 0


# ----------------------------------------------------------------------
# Crash handling: structured error, not a hang
# ----------------------------------------------------------------------
def test_worker_crash_raises_structured_error(trained_bundle):
    with pytest.raises(WorkerCrashError) as exc_info:
        run_hybrid_sharded(
            _experiment(3),
            trained_bundle,
            shard=HybridShardConfig(workers=2, inject_crash=1),
            hybrid=HYBRID,
        )
    error = exc_info.value
    assert error.worker_index == 1
    assert error.error_type == "RuntimeError"
    assert "injected crash" in error.message
    assert "injected crash" in str(error)


def test_crash_lands_in_manifest_not_a_hang(tmp_path):
    """Regression: a worker dying mid-window used to be indistinguishable
    from a stall.  The executor must return a *failed* manifest carrying
    the structured WorkerCrashError, well inside the worker timeout."""
    request = RunRequest(
        run_id="crash-0000",
        index=0,
        spec_name="crash",
        stage="pdes-hybrid",
        axes={},
        seed_master=9,
        seed_derived=9,
        experiment=ExperimentConfig(
            clos=ClosParams(clusters=3), load=0.25, duration_s=0.0015, seed=9
        ),
        training=ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.004, seed=7
        ),
        micro=MicroModelConfig(
            hidden_size=8, num_layers=1, window=8, train_batches=5
        ),
        hybrid={"workers": 2, "inject_crash": 0, "elide_remote_traffic": False},
    )
    started = time.monotonic()
    manifest = execute_run(
        request, str(tmp_path / "runs"), str(tmp_path / "models"), attempt=1
    )
    assert time.monotonic() - started < 120.0
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "WorkerCrashError"
    assert "injected crash" in manifest["error"]["message"]
