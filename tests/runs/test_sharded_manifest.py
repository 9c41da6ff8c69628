"""A sharded run's manifest records what its single-process twin's does.

``pdes-hybrid`` and ``hybrid`` manifests are both summaries of one
:class:`~repro.core.world.RunResult`, so the sharded one carries every
key of the other — including the flows the coordinator elided and the
failure schedule every worker applied.
"""

from __future__ import annotations

import pytest

from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.obs import read_jsonl
from repro.runs.executor import execute_run
from repro.runs.spec import RunRequest
from repro.topology.clos import ClosParams

EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=3),
    load=0.25,
    duration_s=0.002,
    seed=9,
    failures=[(0.0008, "core-0", "agg-c0-0"), (0.0014, "core-0", "agg-c0-0", "up")],
)


def _request(stage: str, hybrid: dict) -> RunRequest:
    return RunRequest(
        run_id=f"{stage}-0000",
        index=0,
        spec_name="parity",
        stage=stage,
        axes={},
        seed_master=9,
        seed_derived=9,
        experiment=EXPERIMENT,
        training=ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.004, seed=7
        ),
        micro=MicroModelConfig(hidden_size=8, num_layers=1, window=8, train_batches=5),
        hybrid=hybrid,
    )


@pytest.fixture(scope="module")
def registry(tmp_path_factory) -> str:
    """One model registry, so the model trains once for the module."""
    return str(tmp_path_factory.mktemp("models"))


@pytest.mark.parametrize("elide", [False, True], ids=["keep", "elide"])
def test_sharded_manifest_has_every_hybrid_key(tmp_path, registry, elide):
    options = {"elide_remote_traffic": elide}
    single = execute_run(_request("hybrid", options), str(tmp_path), registry, attempt=1)
    sharded = execute_run(
        _request("pdes-hybrid", {**options, "workers": 2}),
        str(tmp_path),
        registry,
        attempt=1,
    )
    assert single["status"] == "completed", single.get("error")
    assert sharded["status"] == "completed", sharded.get("error")
    assert set(single["result"]) <= set(sharded["result"])
    for key in ("flows_started", "flows_elided", "failure_events"):
        assert sharded["result"][key] == single["result"][key], key
    assert len(sharded["result"]["failure_events"]) == 2
    assert sharded["result"]["pdes"]["workers"] == 2


def test_pdes_manifest_and_metrics_carry_every_workers_loop(tmp_path):
    """A parallel stage's workers collect into the run's registry: the
    manifest's snapshot and its ``metrics.jsonl`` both carry each
    worker's window and exchange counts."""
    manifest = execute_run(_request("pdes", {"workers": 2}), str(tmp_path), None, attempt=1)
    assert manifest["status"] == "completed", manifest.get("error")
    expected = {
        (f"pdes.{key}", str(index)): row[key]
        for index, row in enumerate(manifest["result"]["pdes"]["per_worker"])
        for key in ("windows", "exchanges")
    }
    assert all(expected.values())

    def loop_counters(counters) -> dict:
        return {
            (c["name"], c["labels"]["worker"]): c["value"]
            for c in counters
            if c["name"] in ("pdes.windows", "pdes.exchanges")
        }

    assert loop_counters(manifest["metrics"]["counters"]) == expected
    records = read_jsonl(manifest["artifacts"]["metrics"])
    assert loop_counters(r for r in records if r["type"] == "counter") == expected
