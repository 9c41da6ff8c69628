"""Determinism of the parallel engine.

Conservative synchronous-window PDES must be *reproducible*: the
window protocol fixes which events execute in which window regardless
of OS scheduling, so two identical parallel runs produce identical
simulated outcomes — the property that separates a correct
conservative engine from a racy one.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ExperimentConfig, run_full_simulation
from repro.flowsim.workload import generate_workload
from repro.pdes.engine import HybridShardConfig, run_parallel_simulation
from repro.topology.clos import ClosParams, build_clos
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.traffic.distributions import EmpiricalSizeDistribution, UNIFORM_SMALL_CDF


@pytest.fixture(scope="module")
def world():
    topo = build_leaf_spine(LeafSpineParams(tors=4, spines=2, servers_per_tor=2))
    flows = generate_workload(
        topo, duration_s=0.002, load=0.15,
        sizes=EmpiricalSizeDistribution(UNIFORM_SMALL_CDF), seed=131,
    )
    return topo, flows


def test_parallel_run_reproducible(world):
    topo, flows = world
    config = ExperimentConfig(duration_s=0.02, seed=131)
    shard = HybridShardConfig(workers=2)
    first = run_parallel_simulation(config, shard, topology=topo, flows=flows)
    second = run_parallel_simulation(config, shard, topology=topo, flows=flows)
    assert first.flows_completed == second.flows_completed
    assert first.drops == second.drops
    assert first.events_executed == second.events_executed
    assert sorted(first.fcts) == sorted(second.fcts)
    assert sorted(first.rtt_samples) == sorted(second.rtt_samples)


def test_parallel_matches_single_thread_outcomes(world):
    """The same physical world: identical flow completion times up to
    float tolerance (event *order* at window seams differs, but
    conservative causality means packet timings do not)."""
    from repro.pdes.engine import run_single_threaded

    topo, flows = world
    config = ExperimentConfig(duration_s=0.02, seed=131)
    single = run_single_threaded(config, topology=topo, flows=flows)
    parallel = run_parallel_simulation(
        config, HybridShardConfig(workers=2), topology=topo, flows=flows
    )
    assert single.flows_completed == parallel.flows_completed == len(flows)
    for a, b in zip(sorted(single.fcts), sorted(parallel.fcts)):
        assert a == pytest.approx(b, rel=1e-9)


#: The lattice edge DES ≡ plain PDES: one workload, one port rule.
LATTICE = ExperimentConfig(
    clos=ClosParams(clusters=4), load=0.25, duration_s=0.003, seed=1
)


@pytest.fixture(scope="module")
def lattice():
    topology = build_clos(LATTICE.clos)
    flows = generate_workload(
        topology, LATTICE.duration_s, LATTICE.load, LATTICE.sizes(), LATTICE.seed
    )
    return topology, flows, run_full_simulation(LATTICE).result


def _outcome(result, events=True):
    return (
        result.flows_completed,
        result.drops,
        result.events_executed if events else None,
        sorted(result.fcts),
    )


@pytest.mark.parametrize("engine", ["single_threaded", "1_worker", "2_workers"])
def test_plain_pdes_runs_the_des_simulation(lattice, engine):
    """The pre-drawn schedule puts every flow on the path DES gives it,
    so the plain engines *are* DES.  Two workers execute extra events
    (window barriers) but reach the same outcome."""
    from repro.pdes.engine import run_single_threaded

    topology, flows, des = lattice
    if engine == "single_threaded":
        result = run_single_threaded(LATTICE, topology=topology, flows=flows)
    else:
        workers = 1 if engine == "1_worker" else 2
        result = run_parallel_simulation(
            LATTICE, HybridShardConfig(workers=workers), topology=topology, flows=flows
        )
    events = engine != "2_workers"
    assert des.flows_completed > 0 and des.drops > 0
    assert _outcome(result, events) == _outcome(des, events)


def test_tracing_does_not_perturb_plain_outcomes():
    """A traced plain run reaches the untraced run's outcome, and its
    merged trace shows every cut-link delivery at or after its send."""
    untraced = run_parallel_simulation(LATTICE, HybridShardConfig(workers=2))
    traced = run_parallel_simulation(
        LATTICE, HybridShardConfig(workers=2, trace=True, trace_capacity=100_000)
    )
    assert _outcome(traced, events=False) == _outcome(untraced, events=False)
    assert traced.trace_evicted == 0

    def key(record, sender, receiver):
        args = record["args"]
        return (record["trace"], args["window"], args["target"], sender, receiver)

    sends: dict[tuple, list[float]] = {}
    recvs = []
    for record in traced.merged_trace():
        if record["name"] == "exchange.send":
            link = key(record, record["worker"], record["args"]["peer"])
            sends.setdefault(link, []).append(record["t0"])
        elif record["name"] == "exchange.recv":
            recvs.append((key(record, record["args"]["peer"], record["worker"]), record["t0"]))
    assert recvs, "a 2-worker plain run exchanged no packets"
    for link, received_at in recvs:
        assert sends.get(link), f"exchange.recv without its send: {link}"
        assert max(sends[link]) <= received_at
