"""Tests for the conservative parallel DES engine.

The key correctness property: a parallel run completes the same flows
as the single-threaded run of the identical workload (conservative
synchronization never violates causality, so the simulated world is
the same up to event-tie ordering differences at partition seams).
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ExperimentConfig
from repro.flowsim.simulator import FlowSpec
from repro.flowsim.workload import generate_workload
from repro.pdes.engine import HybridShardConfig, run_parallel_simulation, run_single_threaded
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.traffic.distributions import EmpiricalSizeDistribution, UNIFORM_SMALL_CDF


def _small_workload(topo, duration=0.004, load=0.2, seed=3):
    return generate_workload(
        topo,
        duration_s=duration,
        load=load,
        sizes=EmpiricalSizeDistribution(UNIFORM_SMALL_CDF),
        seed=seed,
    )


@pytest.fixture(scope="module")
def leafspine():
    return build_leaf_spine(LeafSpineParams(tors=4, spines=4, servers_per_tor=2))


class TestSingleThreaded:
    def test_flows_complete(self, leafspine):
        flows = _small_workload(leafspine)
        result = run_single_threaded(
            ExperimentConfig(duration_s=0.02, seed=0), topology=leafspine, flows=flows
        )
        assert result.flows_completed > 0
        assert result.flows_completed <= len(flows)
        assert result.events_executed > 0
        assert result.sim_seconds_per_second > 0

    def test_all_flows_complete_with_headroom(self, leafspine):
        flows = _small_workload(leafspine, duration=0.002, load=0.1)
        result = run_single_threaded(
            ExperimentConfig(duration_s=1.0, seed=0), topology=leafspine, flows=flows
        )
        assert result.flows_completed == len(flows)


class TestParallel:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_matches_single_thread_flow_completions(self, leafspine, workers):
        flows = _small_workload(leafspine, duration=0.002, load=0.15)
        config = ExperimentConfig(duration_s=0.02, seed=0)
        single = run_single_threaded(config, topology=leafspine, flows=flows)
        parallel = run_parallel_simulation(
            config, HybridShardConfig(workers=workers), topology=leafspine, flows=flows
        )
        assert parallel.flows_completed == single.flows_completed == len(flows)

    def test_cross_partition_messages_flow(self, leafspine):
        flows = _small_workload(leafspine, duration=0.002)
        result = run_parallel_simulation(
            ExperimentConfig(duration_s=0.02, seed=0), HybridShardConfig(workers=2),
            topology=leafspine, flows=flows,
        )
        assert result.pdes["messages"] > 0
        assert result.pdes["cut_links"] > 0

    def test_one_worker_degenerate_case(self, leafspine):
        flows = _small_workload(leafspine, duration=0.001, load=0.1)
        result = run_parallel_simulation(
            ExperimentConfig(duration_s=0.02, seed=0), HybridShardConfig(workers=1),
            topology=leafspine, flows=flows,
        )
        assert result.flows_completed == len(flows)
        assert result.pdes["messages"] == 0

    def test_rtt_and_fct_stats_collected(self, leafspine):
        flows = _small_workload(leafspine, duration=0.003)
        result = run_parallel_simulation(
            ExperimentConfig(duration_s=0.02, seed=0), HybridShardConfig(workers=2),
            topology=leafspine, flows=flows,
        )
        assert len(result.fcts) == result.flows_completed
        assert all(f > 0 for f in result.fcts)
        assert len(result.rtt_samples) > 0

    def test_window_exceeding_lookahead_rejected(self, leafspine):
        flows = _small_workload(leafspine, duration=0.001)
        with pytest.raises(ValueError):
            run_parallel_simulation(
                ExperimentConfig(duration_s=0.01, seed=0),
                HybridShardConfig(workers=2, window_s=1.0),
                topology=leafspine,
                flows=flows,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HybridShardConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            HybridShardConfig(window_s=-1.0)
