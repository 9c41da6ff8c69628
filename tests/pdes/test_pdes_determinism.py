"""Determinism of the parallel engine.

Conservative synchronous-window PDES must be *reproducible*: the
window protocol fixes which events execute in which window regardless
of OS scheduling, so two identical parallel runs produce identical
simulated outcomes — the property that separates a correct
conservative engine from a racy one.
"""

from __future__ import annotations

import pytest

from repro.flowsim.workload import generate_workload
from repro.pdes.engine import PdesConfig, run_parallel_simulation
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
    config = PdesConfig(workers=2, duration_s=0.02, seed=131)
    first = run_parallel_simulation(topo, flows, config)
    second = run_parallel_simulation(topo, flows, config)
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
    single = run_single_threaded(topo, flows, duration_s=0.02, seed=131)
    parallel = run_parallel_simulation(
        topo, flows, PdesConfig(workers=2, duration_s=0.02, seed=131)
    )
    assert single.flows_completed == parallel.flows_completed == len(flows)
    for a, b in zip(sorted(single.fcts), sorted(parallel.fcts)):
        assert a == pytest.approx(b, rel=1e-9)
