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
from repro.pdes.engine import PdesConfig, run_parallel_simulation
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
        result = run_single_threaded(
            topology, flows, LATTICE.duration_s, seed=LATTICE.seed
        )
    else:
        workers = 1 if engine == "1_worker" else 2
        config = PdesConfig(
            workers=workers, duration_s=LATTICE.duration_s, seed=LATTICE.seed
        )
        result = run_parallel_simulation(topology, flows, config)
    events = engine != "2_workers"
    assert des.flows_completed > 0 and des.drops > 0
    assert _outcome(result, events) == _outcome(des, events)
