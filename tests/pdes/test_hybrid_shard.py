"""Sharded-hybrid test pack: byte identity, window rejection, schedule.

The determinism contract under test (DESIGN.md §11): a same-seed
N-worker sharded hybrid run produces **byte-identical** merged outcome
statistics (FCTs, RTTs, drops) for N ∈ {1, 2, 4}, and those statistics
are identical to the single-process hybrid under float64.  The window
validator must *reject* (never clamp) windows that exceed the safe
lookahead — including when inference batching shrinks the effective
model-egress bound below the physical cut-link delay.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.cluster_model import MIN_REGION_LATENCY_S
from repro.core.hybrid import HybridConfig
from repro.core.pipeline import ExperimentConfig, run_hybrid_simulation
from repro.pdes import (
    HybridShardConfig,
    ModelRef,
    WorkerCrashError,
    extract_flow_schedule,
    model_egress_lookahead,
    resolve_window,
    run_hybrid_sharded,
)
from repro.net.host import FLOW_PORT_BASE
from repro.topology.clos import ClosParams, build_clos
from repro.topology.partition import cluster_of, partition_hybrid

EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=3), load=0.25, duration_s=0.002, seed=7
)
#: Elision off so remote traffic (and hence cross-shard model egress)
#: actually exercises the exchange machinery.
HYBRID = HybridConfig(elide_remote_traffic=False)


@pytest.fixture(scope="module")
def single_process_signature(trained_bundle):
    """Canonical outcome of the unsharded hybrid run (float64)."""
    result, _ = run_hybrid_simulation(EXPERIMENT, trained_bundle, hybrid=HYBRID)
    return result.outcome_signature()


# ----------------------------------------------------------------------
# Byte identity (the ISSUE's foregrounded deliverable)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_outcome_identical_to_single_process(
    trained_bundle, single_process_signature, workers
):
    result = run_hybrid_sharded(
        EXPERIMENT,
        trained_bundle,
        shard=HybridShardConfig(workers=workers),
        hybrid=HYBRID,
    )
    assert result.outcome_signature() == single_process_signature
    assert result.flows_completed > 0
    assert result.lookahead_violations == 0
    assert result.invariant_violations == 0
    if workers > 1:
        assert result.exchanges > 0


def test_batched_inference_outcome_identical(trained_bundle):
    """Per-shard InferenceBatcher flush grouping must not change outcomes."""
    hybrid = HybridConfig(elide_remote_traffic=False, batch_window_s=5e-7)
    result, _ = run_hybrid_simulation(EXPERIMENT, trained_bundle, hybrid=hybrid)
    expected = result.outcome_signature()
    sharded = run_hybrid_sharded(
        EXPERIMENT,
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=hybrid,
    )
    assert sharded.outcome_signature() == expected
    assert sharded.lookahead_violations == 0
    # Batching shrank the safe window below the physical cut delay.
    assert sharded.window_s == pytest.approx(MIN_REGION_LATENCY_S - 5e-7)


def test_model_ref_resolves_from_saved_bundle(
    tmp_path, trained_bundle, single_process_signature
):
    """Workers load the model from a path reference, never a pickle."""
    bundle_dir = tmp_path / "bundle"
    trained_bundle.save(bundle_dir)
    ref = ModelRef(path=str(bundle_dir))
    result = run_hybrid_sharded(
        EXPERIMENT, ref, shard=HybridShardConfig(workers=2), hybrid=HYBRID
    )
    assert result.outcome_signature() == single_process_signature


#: A link failure and its recovery inside EXPERIMENT's 2 ms.
FAILURE_PAIR = (
    (0.0008, "core-0", "agg-c0-0"),
    (0.0014, "core-0", "agg-c0-0", "up"),
)

#: RunResult fields a sharded run shares with its single-process twin.
#: ``events_executed`` is partition-dependent by design: a replayed
#: schedule has no arrival events for elided flows, and a cut adds
#: barrier deliveries.
COUNT_FIELDS = (
    "sim_seconds", "flows_started", "flows_completed", "flows_elided",
    "drops", "model_packets", "model_drops", "failure_events", "collective",
)


@pytest.mark.parametrize(
    "failures", [(), FAILURE_PAIR], ids=["plain", "failure+recovery"]
)
@pytest.mark.parametrize("elide", [False, True], ids=["keep", "elide"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_result_equals_hybrid_field_by_field(
    trained_bundle, workers, elide, failures
):
    """The lattice edge sharded ≡ hybrid on one RunResult type
    (3 clusters, seed 7)."""
    from dataclasses import replace

    config = replace(EXPERIMENT, failures=failures)
    hybrid = HybridConfig(elide_remote_traffic=elide)
    single, _ = run_hybrid_simulation(config, trained_bundle, hybrid=hybrid)
    sharded = run_hybrid_sharded(
        config, trained_bundle, shard=HybridShardConfig(workers=workers), hybrid=hybrid
    )
    for name in COUNT_FIELDS:
        assert getattr(sharded, name) == getattr(single, name), name
    assert sorted(sharded.fcts) == sorted(single.fcts)
    assert sorted(sharded.rtt_samples) == sorted(single.rtt_samples)
    assert len(sharded.failure_events) == len(failures)
    assert sharded.pdes["workers"] == workers


def test_single_black_box_rejected(trained_bundle):
    with pytest.raises(ValueError, match="single_black_box"):
        run_hybrid_sharded(
            EXPERIMENT,
            trained_bundle,
            shard=HybridShardConfig(workers=2),
            hybrid=HybridConfig(
                elide_remote_traffic=False, single_black_box=True
            ),
        )


# ----------------------------------------------------------------------
# Window validation: reject, never clamp (satellite 1)
# ----------------------------------------------------------------------
def _partitioned(workers=2, hybrid=HYBRID):
    topology = build_clos(EXPERIMENT.clos)
    partitions = partition_hybrid(topology, hybrid.full_cluster, workers)
    return topology, partitions


def test_oversized_window_rejected_by_cut_link_delay():
    topology, partitions = _partitioned()
    with pytest.raises(ValueError, match="minimum cut-link delay"):
        resolve_window(topology, partitions, 1.0, EXPERIMENT.duration_s)


def test_oversized_window_rejected_by_model_lookahead():
    """Batching changes the effective cut: the model-egress lookahead
    (MIN_REGION_LATENCY_S - batch_window_s) binds below the physical
    cut-link delay, and the error message must name that limiter."""
    hybrid = HybridConfig(
        elide_remote_traffic=False, batch_window_s=MIN_REGION_LATENCY_S / 2
    )
    topology, partitions = _partitioned(hybrid=hybrid)
    with pytest.raises(ValueError, match="hybrid model-egress lookahead"):
        resolve_window(
            topology,
            partitions,
            MIN_REGION_LATENCY_S * 0.9,
            EXPERIMENT.duration_s,
            model_egress_lookahead(hybrid),
        )


def test_batching_consuming_entire_margin_rejected():
    hybrid = HybridConfig(
        elide_remote_traffic=False, batch_window_s=MIN_REGION_LATENCY_S
    )
    assert model_egress_lookahead(hybrid) == 0.0
    topology, partitions = _partitioned(hybrid=hybrid)
    with pytest.raises(ValueError, match="no safe synchronization window"):
        resolve_window(
            topology, partitions, None, EXPERIMENT.duration_s,
            model_egress_lookahead(hybrid),
        )


def test_default_window_respects_tighter_bound():
    hybrid = HybridConfig(elide_remote_traffic=False, batch_window_s=4e-7)
    topology, partitions = _partitioned(hybrid=hybrid)
    lookahead = model_egress_lookahead(hybrid)
    duration = EXPERIMENT.duration_s
    window = resolve_window(topology, partitions, None, duration, lookahead)
    assert window == pytest.approx(MIN_REGION_LATENCY_S - 4e-7)
    # An explicit window at the bound is accepted; just above is not.
    assert (
        resolve_window(topology, partitions, window, duration, lookahead)
        == window
    )
    with pytest.raises(ValueError, match="exceeds"):
        resolve_window(topology, partitions, window * 1.25, duration, lookahead)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_window_and_timeout_rejected(value):
    """A NaN window never reaches its horizon (``time > nan`` is always
    False), so cross-worker packets would never be exchanged."""
    with pytest.raises(ValueError, match="window_s"):
        HybridShardConfig(window_s=value)
    with pytest.raises(ValueError, match="worker_timeout_s"):
        HybridShardConfig(worker_timeout_s=value)


def test_single_worker_has_no_model_bound(trained_bundle):
    """A 1-worker shard has no cut to cross; the window falls back to
    the run duration and batching imposes no constraint."""
    hybrid = HybridConfig(
        elide_remote_traffic=False, batch_window_s=MIN_REGION_LATENCY_S
    )
    window = run_hybrid_sharded(
        EXPERIMENT, trained_bundle, HybridShardConfig(workers=1), hybrid
    ).window_s
    assert window == EXPERIMENT.duration_s


# ----------------------------------------------------------------------
# Flow-schedule extraction
# ----------------------------------------------------------------------
def test_sharded_failures_match_single_process(trained_bundle):
    """Every worker applies the same failure schedule at the same sim
    times against its own routing copy; the merged outcome must equal
    the unsharded run under the identical schedule."""
    from dataclasses import replace

    config = replace(
        EXPERIMENT, failures=[(0.0008, "core-0", "agg-c0-0")]
    )
    single, _ = run_hybrid_simulation(config, trained_bundle, hybrid=HYBRID)
    sharded = run_hybrid_sharded(
        config,
        trained_bundle,
        shard=HybridShardConfig(workers=2),
        hybrid=HYBRID,
    )
    assert sharded.outcome_signature() == single.outcome_signature()
    assert single.failure_events and single.failure_events[0]["changed"]


def test_collective_workload_rejected(trained_bundle):
    """Gated collective sends depend on cross-worker completions, so
    sharded runs refuse them up front with an actionable message."""
    from dataclasses import replace

    config = replace(
        EXPERIMENT, collective={"algorithm": "ring", "ranks": 4}
    )
    with pytest.raises(ValueError, match="collective"):
        run_hybrid_sharded(
            config,
            trained_bundle,
            shard=HybridShardConfig(workers=2),
            hybrid=HYBRID,
        )


def test_flow_schedule_ignores_collective():
    """Schedule extraction strips the collective (its chunks launch via
    completion gating, not arrivals) without perturbing the background
    mice schedule."""
    from dataclasses import replace

    topology = build_clos(EXPERIMENT.clos)
    baseline = extract_flow_schedule(topology, EXPERIMENT, HYBRID)
    with_collective = extract_flow_schedule(
        topology,
        replace(EXPERIMENT, collective={"algorithm": "ring", "ranks": 4}),
        HYBRID,
    )
    assert with_collective == baseline


def test_flow_schedule_deterministic_with_replicated_ports():
    topology = build_clos(EXPERIMENT.clos)
    first = extract_flow_schedule(topology, EXPERIMENT, HYBRID)
    again = extract_flow_schedule(topology, EXPERIMENT, HYBRID)
    assert first == again
    assert first, "schedule must not be empty at this load"
    # Ports replicate Host.open_flow: one counter per source host,
    # allocated in schedule order.
    next_port: dict[str, int] = {}
    for flow in first:
        expected = next_port.get(flow.src, FLOW_PORT_BASE)
        assert flow.src_port == expected
        next_port[flow.src] = expected + 1
    assert all(0.0 <= f.start_time <= EXPERIMENT.duration_s for f in first)
    assert all(f.size_bytes >= 1 for f in first)


def test_flow_schedule_elision_is_a_filter_not_a_reseed():
    """Eliding remote traffic must drop flows without perturbing the
    RNG draws of the ones that remain (same src/dst/size/start)."""
    topology = build_clos(EXPERIMENT.clos)
    kept_all = extract_flow_schedule(topology, EXPERIMENT, HYBRID)
    elided = extract_flow_schedule(
        topology, EXPERIMENT, HybridConfig(elide_remote_traffic=True)
    )
    assert len(elided) < len(kept_all)
    full = HYBRID.full_cluster
    for flow in elided:
        assert (
            cluster_of(topology, flow.src) == full
            or cluster_of(topology, flow.dst) == full
        )
    def key(flow):
        return (flow.src, flow.dst, flow.size_bytes, flow.start_time)

    assert {key(f) for f in elided} <= {key(f) for f in kept_all}


def test_in_memory_model_leaves_no_temp_dir(trained_bundle, tmp_path, monkeypatch):
    """The workers load an in-memory model from a ``pdes-model-*`` temp
    directory that goes when the run ends, a failed run's included."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    result = run_hybrid_sharded(
        EXPERIMENT, trained_bundle, shard=HybridShardConfig(workers=1), hybrid=HYBRID
    )
    assert result.flows_completed > 0
    with pytest.raises(WorkerCrashError):
        run_hybrid_sharded(
            EXPERIMENT,
            trained_bundle,
            shard=HybridShardConfig(workers=1, inject_crash=0),
            hybrid=HYBRID,
        )
    assert list(tmp_path.glob("pdes-model-*")) == []
