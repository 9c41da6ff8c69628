"""Soak test: 4-worker sharded hybrid at paper scale (32 clusters).

Runs only when ``REPRO_SOAK=1`` (CI wires it as a separate,
non-blocking job).  Asserts the run finishes inside a wall-clock
budget with zero invariant and zero lookahead violations, and writes
the merged per-worker metrics as a JSON artifact for CI upload
(``REPRO_SOAK_ARTIFACT`` overrides the destination).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.hybrid import HybridConfig
from repro.core.pipeline import ExperimentConfig
from repro.obs import MetricsRegistry
from repro.pdes import HybridShardConfig, run_hybrid_sharded
from repro.topology.clos import ClosParams

pytestmark = [
    pytest.mark.soak,
    pytest.mark.skipif(
        os.environ.get("REPRO_SOAK") != "1",
        reason="soak tests run only with REPRO_SOAK=1",
    ),
]

WALL_BUDGET_S = float(os.environ.get("REPRO_SOAK_BUDGET_S", "900"))


def test_four_worker_32_cluster_soak(trained_bundle, tmp_path):
    config = ExperimentConfig(
        clos=ClosParams(clusters=32), load=0.25, duration_s=0.002, seed=13
    )
    started = time.monotonic()
    result = run_hybrid_sharded(
        config,
        trained_bundle,
        shard=HybridShardConfig(workers=4),
        hybrid=HybridConfig(elide_remote_traffic=False),
        metrics=MetricsRegistry(enabled=True),
    )
    elapsed = time.monotonic() - started
    assert elapsed < WALL_BUDGET_S, f"soak blew the budget: {elapsed:.1f}s"
    assert result.invariant_violations == 0
    assert result.lookahead_violations == 0
    assert result.exchanges > 0
    assert result.flows_completed > 0
    artifact = Path(
        os.environ.get("REPRO_SOAK_ARTIFACT", tmp_path / "soak_metrics.json")
    )
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(
        json.dumps(
            {
                "wallclock_seconds": result.wallclock_seconds,
                "events_executed": result.events_executed,
                "merged": result.pdes,
                "hot_path": result.hot_path,
            },
            indent=1,
            sort_keys=True,
        )
    )
