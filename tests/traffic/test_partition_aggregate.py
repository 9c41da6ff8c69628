"""Tests for the partition-aggregate workload generator."""

from __future__ import annotations

import pytest

from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.net.tcp.config import TcpConfig
from repro.traffic.partition_aggregate import PartitionAggregateGenerator


def _run(small_clos, fanout=4, response_bytes=20_000, max_queries=5,
         queue_capacity=150_000, until=2.0, rate=500.0):
    sim = Simulator(seed=55)
    net = Network(
        sim, small_clos,
        config=NetworkConfig(
            tcp=TcpConfig(min_rto_s=0.01),
            queue_capacity_bytes=queue_capacity,
        ),
    )
    gen = PartitionAggregateGenerator(
        sim, net, queries_per_s=rate, fanout=fanout,
        response_bytes=response_bytes, max_queries=max_queries,
    )
    gen.start()
    sim.run(until=until)
    return gen, net, sim


class TestPartitionAggregate:
    def test_queries_complete(self, small_clos):
        gen, _, _ = _run(small_clos)
        assert gen.queries_completed == 5
        for query in gen.queries:
            assert query.qct is not None and query.qct > 0
            assert query.responses_done == 4
            assert len(query.response_fcts) == 4

    def test_workers_distinct_and_exclude_root(self, small_clos):
        gen, _, _ = _run(small_clos)
        for query in gen.queries:
            assert len(set(query.workers)) == len(query.workers)
            assert query.root not in query.workers

    def test_qct_at_least_slowest_response(self, small_clos):
        """QCT covers request + response; it must exceed any single
        response FCT."""
        gen, _, _ = _run(small_clos)
        for query in gen.queries:
            assert query.qct >= max(query.response_fcts)

    def test_straggler_ratio_defined(self, small_clos):
        gen, _, _ = _run(small_clos)
        ratios = [q.straggler_ratio for q in gen.queries]
        assert all(r is not None and r >= 1.0 for r in ratios)

    def test_high_fanout_incast_drops(self, small_clos):
        """Wide fan-in with shallow sink buffers: the responses collide
        at the root's access link — the Section 2.1 mechanism."""
        gen, net, _ = _run(
            small_clos, fanout=14, response_bytes=100_000,
            max_queries=3, queue_capacity=20_000, until=5.0, rate=2000.0,
        )
        assert gen.queries_completed == 3  # TCP still recovers
        assert net.total_drops > 20

    def test_qct_monitor_matches_completions(self, small_clos):
        gen, _, _ = _run(small_clos)
        assert len(gen.completed_qcts()) == gen.queries_completed

    def test_validation(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        with pytest.raises(ValueError):
            PartitionAggregateGenerator(sim, net, queries_per_s=0.0, fanout=2,
                                        response_bytes=1000)
        with pytest.raises(ValueError):
            PartitionAggregateGenerator(sim, net, queries_per_s=1.0, fanout=16,
                                        response_bytes=1000)

    def test_deterministic(self, small_clos):
        gen1, _, _ = _run(small_clos)
        gen2, _, _ = _run(small_clos)
        assert gen1.completed_qcts() == gen2.completed_qcts()
