"""The shared PDES coordinator: crash safety and JSON-safe results.

Both parallel engines (plain Figure 1 PDES and the sharded hybrid) run
through :func:`repro.pdes.engine.run_workers`; these are the
regressions that only the sharded path used to be protected against.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro.pdes
import repro.pdes.hybrid_shard
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.pdes import PdesHybridResult, PdesResult
from repro.runs.executor import execute_run
from repro.runs.spec import RunRequest
from repro.topology.clos import ClosParams

#: A flow naming a host the topology does not have kills every worker
#: during setup, before it reports ready.
_DOOMED_RUN = textwrap.dedent(
    """
    from repro.flowsim.simulator import FlowSpec
    from repro.pdes import PdesConfig, WorkerCrashError, run_parallel_simulation
    from repro.topology.leafspine import LeafSpineParams, build_leaf_spine

    topology = build_leaf_spine(LeafSpineParams(tors=2, spines=2, servers_per_tor=2))
    flows = [FlowSpec(0, "server-t0-s0", "no-such-host", 10_000, 0.0)]
    try:
        run_parallel_simulation(topology, flows, PdesConfig(workers=2, duration_s=0.001))
    except WorkerCrashError as error:
        print("WorkerCrashError", error.worker_index, error.error_type, error.message)
    else:
        print("completed")
    """
)


def test_plain_engine_worker_death_raises_instead_of_hanging():
    """The plain engine used to wait in a bare ``recv()``: a worker that
    died before reporting left the run blocked forever.  Run it in its
    own process group under a hard timeout so a regression fails the
    test instead of wedging the suite."""
    process = subprocess.Popen(
        [sys.executable, "-c", _DOOMED_RUN],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("run_parallel_simulation hung on a worker that died in setup")
    kind, worker_index, error_type, *message = output.split()
    assert kind == "WorkerCrashError"
    assert worker_index in ("0", "1")
    assert error_type == "ValueError"
    assert "no-such-host" in " ".join(message)


def test_zero_wallclock_rates_are_zero_not_inf():
    plain = PdesResult(
        sim_seconds=1.0, wallclock_seconds=0.0, events_executed=0,
        flows_completed=0, drops=0, workers=1,
    )
    sharded = PdesHybridResult(
        sim_seconds=1.0, wallclock_seconds=0.0, workers=1, window_s=1e-6, cut_links=0
    )
    assert plain.sim_seconds_per_second == 0.0
    assert sharded.sim_seconds_per_second == 0.0


def test_pdes_hybrid_manifest_is_strict_json(tmp_path, monkeypatch):
    """``inf`` is not JSON: a run whose coordinator measured zero
    wall-clock must still leave a manifest a strict parser accepts."""
    real = repro.pdes.run_hybrid_sharded

    def zero_wallclock(*args, **kwargs):
        result = real(*args, **kwargs)
        result.wallclock_seconds = 0.0
        return result

    # Whichever module the executor imports the entrypoint from.
    monkeypatch.setattr(repro.pdes, "run_hybrid_sharded", zero_wallclock)
    monkeypatch.setattr(repro.pdes.hybrid_shard, "run_hybrid_sharded", zero_wallclock)
    request = RunRequest(
        run_id="strict-0000",
        index=0,
        spec_name="strict",
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
        micro=MicroModelConfig(hidden_size=8, num_layers=1, window=8, train_batches=5),
        hybrid={"workers": 1, "elide_remote_traffic": False},
    )
    manifest = execute_run(
        request, str(tmp_path / "runs"), str(tmp_path / "models"), attempt=1
    )
    assert manifest["status"] == "completed", manifest.get("error")

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant} in manifest")

    text = (tmp_path / "runs" / "strict-0000" / "manifest.json").read_text()
    parsed = json.loads(text, parse_constant=reject)
    assert parsed["result"]["sim_seconds_per_second"] == 0.0
