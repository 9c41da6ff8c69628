"""Integration tests: whole-system behaviour of the packet simulator."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.pipeline import ExperimentConfig, run_full_simulation
from repro.core.world import build_world
from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.net.tcp.config import TcpConfig
from repro.topology.clos import ClosParams, build_clos, server_name
from repro.traffic.apps import TrafficGenerator
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.distributions import web_search_sizes
from repro.traffic.matrix import IncastMatrix, UniformMatrix


class TestEndToEndSanity:
    def test_byte_conservation(self, small_clos):
        """Every completed flow delivered exactly its size; nothing
        is created or destroyed by the network."""
        sim = Simulator(seed=31)
        net = Network(sim, small_clos)
        fcts = []
        sizes = [100, 1460, 5000, 100_000, 1_000_000]
        receivers = []
        for i, size in enumerate(sizes):
            src = net.host(server_name(0, 0, i % 4))
            dst = net.host(server_name(1, 1, i % 4))
            sender = src.open_flow(dst, size, on_complete=fcts.append)
            key = (src.name, sender.dst_port, sender.src_port)
            receivers.append((dst._receivers[key], size))
            sender.start()
        sim.run(until=10.0)
        assert len(fcts) == len(sizes)
        for receiver, size in receivers:
            assert receiver.bytes_delivered == size

    def test_rtt_floor_across_fabric(self, small_clos):
        """No host ever observes an RTT below the 12-leg propagation
        plus serialization floor for cross-cluster flows."""
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.15, duration_s=0.005, seed=32
        )
        result = run_full_simulation(config).result
        assert len(result.rtt_samples) > 10
        assert min(result.rtt_samples) >= 4e-6  # >= 2-hop round trip

    def test_congestion_produces_drops_and_queueing(self):
        """High load must produce the congestion signatures the macro
        model keys on: drops and latency inflation."""
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.6, duration_s=0.008, seed=33
        )
        result = run_full_simulation(config).result
        assert result.drops > 0
        rtts = np.asarray(result.rtt_samples)
        assert rtts.max() > 5 * rtts.min()

    def test_drops_grow_with_load(self):
        """Absolute drop counts must grow sharply with offered load.
        (Even light load drops occasionally: two heavy-tailed flows
        colliding on one ECMP path overrun a 150 KB buffer, so the
        per-event rate is not a clean separator at these timescales.)"""
        drops = []
        for load in (0.05, 0.6):
            config = ExperimentConfig(
                clos=ClosParams(clusters=2), load=load, duration_s=0.005, seed=34
            )
            drops.append(run_full_simulation(config).result.drops)
        assert drops[1] > 3 * drops[0]

    def test_incast_collapses_throughput(self, small_clos):
        """The Section 2.1 pathology: enough synchronized senders to
        one sink force drops and timeouts."""
        sim = Simulator(seed=35)
        net = Network(
            sim,
            small_clos,
            config=NetworkConfig(
                tcp=TcpConfig(min_rto_s=0.01), queue_capacity_bytes=30_000
            ),
        )
        sink = net.host(server_name(0, 0, 0))
        senders = []
        for cluster in range(2):
            for tor in range(2):
                for slot in range(4):
                    name = server_name(cluster, tor, slot)
                    if name == sink.name:
                        continue
                    sender = net.host(name).open_flow(sink, 200_000)
                    senders.append(sender)
        for sender in senders:
            sender.start()
        sim.run(until=0.05)
        assert net.total_drops > 10
        assert sum(s.timeouts for s in senders) > 0

    def test_ecmp_balances_load(self, small_clos):
        """Aggregate forwarding counts on the two aggs of a cluster
        should be within 3x of each other under many flows."""
        sim = Simulator(seed=36)
        net = Network(sim, small_clos)
        gen = TrafficGenerator(
            sim,
            net,
            matrix=UniformMatrix(small_clos, intra_cluster_fraction=0.0),
            sizes=web_search_sizes(),
            arrivals=PoissonArrivals(5000.0),
            max_flows=60,
        )
        gen.start()
        sim.run(until=0.05)
        agg0 = net.switch("agg-c0-0").packets_forwarded
        agg1 = net.switch("agg-c0-1").packets_forwarded
        assert agg0 > 0 and agg1 > 0
        assert max(agg0, agg1) / max(min(agg0, agg1), 1) < 3.0

    def test_event_counts_scale_with_cluster_count(self):
        """Full simulation cost grows roughly linearly with the number
        of clusters at constant per-server load — the scaling wall the
        paper attacks."""
        events = []
        for clusters in (2, 4):
            config = ExperimentConfig(
                clos=ClosParams(clusters=clusters), load=0.2, duration_s=0.003,
                seed=37,
            )
            events.append(run_full_simulation(config).result.events_executed)
        assert events[1] > 1.5 * events[0]


class TestHopCost:
    def test_python_calls_per_executed_event(self):
        """The packet hop's interpreter cost, pinned host-independently:
        Python-level calls per executed event on a seeded DES run (15.7
        before the per-event heap entry and the per-flow hash, 5.5 after).
        """
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.002, seed=5
        )
        world = build_world(config)
        world.traffic.start()
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            world.sim.run(until=config.duration_s)
        finally:
            sys.setprofile(None)
        events = world.sim.events_executed
        assert events > 10_000
        assert calls / events <= 6.0
