"""Tests for traffic matrices and the flow-generating application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.topology.clos import ClosParams, build_clos, server_name
from repro.traffic.apps import TrafficGenerator
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.distributions import EmpiricalSizeDistribution, UNIFORM_SMALL_CDF
from repro.traffic.matrix import IncastMatrix, PermutationMatrix, UniformMatrix


class TestUniformMatrix:
    def test_never_self(self, small_clos, rng):
        matrix = UniformMatrix(small_clos)
        for _ in range(500):
            src, dst = matrix.sample_pair(rng)
            assert src != dst

    def test_covers_all_servers(self, small_clos, rng):
        matrix = UniformMatrix(small_clos)
        sources = {matrix.sample_pair(rng)[0] for _ in range(2000)}
        assert len(sources) == 16

    def test_intra_cluster_bias(self, small_clos):
        rng = np.random.default_rng(9)
        matrix = UniformMatrix(small_clos, intra_cluster_fraction=1.0)
        for _ in range(200):
            src, dst = matrix.sample_pair(rng)
            assert small_clos.node(src).cluster == small_clos.node(dst).cluster

    def test_zero_intra_fraction_allows_remote(self, small_clos):
        rng = np.random.default_rng(10)
        matrix = UniformMatrix(small_clos, intra_cluster_fraction=0.0)
        clusters = {
            (small_clos.node(src).cluster, small_clos.node(dst).cluster)
            for src, dst in (matrix.sample_pair(rng) for _ in range(300))
        }
        assert any(a != b for a, b in clusters)

    def test_invalid_fraction(self, small_clos):
        with pytest.raises(ValueError):
            UniformMatrix(small_clos, intra_cluster_fraction=1.5)


class TestPermutationMatrix:
    def test_derangement(self, small_clos):
        rng = np.random.default_rng(11)
        matrix = PermutationMatrix(small_clos, rng)
        for server in matrix.servers:
            assert matrix._partner[server] != server

    def test_fixed_partner(self, small_clos):
        rng = np.random.default_rng(12)
        matrix = PermutationMatrix(small_clos, rng)
        pairs = {}
        for _ in range(500):
            src, dst = matrix.sample_pair(rng)
            assert pairs.setdefault(src, dst) == dst


class TestIncastMatrix:
    def test_all_to_sink(self, small_clos, rng):
        sink = server_name(0, 0, 0)
        matrix = IncastMatrix(small_clos, sink=sink)
        for _ in range(100):
            src, dst = matrix.sample_pair(rng)
            assert dst == sink and src != sink

    def test_default_sink(self, small_clos, rng):
        matrix = IncastMatrix(small_clos)
        _, dst = matrix.sample_pair(rng)
        assert dst == matrix.sink

    def test_bad_sink_rejected(self, small_clos):
        with pytest.raises(ValueError):
            IncastMatrix(small_clos, sink="tor-c0-0")


class TestTrafficGenerator:
    def _generator(self, topo, sim, net, **kwargs):
        return TrafficGenerator(
            sim,
            net,
            matrix=UniformMatrix(topo),
            sizes=EmpiricalSizeDistribution(UNIFORM_SMALL_CDF),
            arrivals=PoissonArrivals(rate_per_s=2000.0),
            **kwargs,
        )

    def test_flows_complete_and_fcts_recorded(self, small_clos):
        sim = Simulator(seed=5)
        net = Network(sim, small_clos, NetworkConfig())
        gen = self._generator(small_clos, sim, net)
        gen.start()
        sim.run(until=0.01)
        assert gen.flows_started > 5
        assert gen.flows_completed > 0
        assert len(gen.completed_fcts()) == gen.flows_completed
        assert all(fct > 0 for fct in gen.completed_fcts())

    def test_deterministic_across_runs(self, small_clos):
        def run_once():
            sim = Simulator(seed=77)
            net = Network(sim, small_clos, NetworkConfig())
            gen = self._generator(small_clos, sim, net)
            gen.start()
            sim.run(until=0.005)
            return [(r.src, r.dst, r.size_bytes, r.start_time) for r in gen.flows]

        assert run_once() == run_once()

    def test_flow_filter_elides_but_keeps_workload_identical(self, small_clos):
        """Filtered runs see the same flow sequence for kept flows."""
        def run(flt):
            sim = Simulator(seed=42)
            net = Network(sim, small_clos, NetworkConfig())
            gen = self._generator(small_clos, sim, net, flow_filter=flt)
            gen.start()
            sim.run(until=0.005)
            return gen

        unfiltered = run(None)
        keep_cluster0 = run(
            lambda s, d: small_clos.node(s).cluster == 0 or small_clos.node(d).cluster == 0
        )
        assert keep_cluster0.flows_elided > 0
        kept = [
            (r.src, r.dst, r.size_bytes)
            for r in unfiltered.flows
            if small_clos.node(r.src).cluster == 0 or small_clos.node(r.dst).cluster == 0
        ]
        generated = [(r.src, r.dst, r.size_bytes) for r in keep_cluster0.flows]
        assert generated == kept

    def test_max_flows_cap(self, small_clos):
        sim = Simulator(seed=6)
        net = Network(sim, small_clos, NetworkConfig())
        gen = self._generator(small_clos, sim, net, max_flows=3)
        gen.start()
        sim.run(until=1.0)
        assert gen.flows_started + gen.flows_elided == 3

    def test_max_flows_counts_diverted_flows(self, small_clos):
        """Regression: flows claimed by a dispatch hook (the cascade's
        fluid tier) must count against max_flows — omitting them made
        capped runs generate arrivals forever."""
        diverted = []

        def dispatch(flow):
            take = len(diverted) % 2 == 0  # claim every other arrival
            if take:
                diverted.append(flow)
            return take

        sim = Simulator(seed=6)
        net = Network(sim, small_clos, NetworkConfig())
        gen = self._generator(
            small_clos, sim, net, max_flows=6, flow_dispatch=dispatch
        )
        gen.start()
        sim.run(until=5.0)
        assert gen.flows_diverted == len(diverted) > 0
        assert gen.flows_started + gen.flows_elided + gen.flows_diverted == 6

    def test_goodput_accounting(self, small_clos):
        sim = Simulator(seed=8)
        net = Network(sim, small_clos, NetworkConfig())
        gen = self._generator(small_clos, sim, net, max_flows=5)
        gen.start()
        sim.run(until=2.0)
        assert gen.flows_completed == 5
        assert gen.goodput_bytes() == sum(r.size_bytes for r in gen.flows)
