"""Tests for switch forwarding and network assembly."""

from __future__ import annotations

import pytest

from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.net.packet import Packet
from repro.topology.clos import ClosParams, build_clos, server_name


def _packet(src: str, dst: str, payload: int = 1000) -> Packet:
    return Packet(src=src, dst=dst, src_port=1111, dst_port=80, payload_bytes=payload)


class TestNetworkAssembly:
    def test_entities_created(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        assert len(net.hosts) == 16
        assert len(net.switches) == 10  # 4 tor + 4 agg + 2 core
        # One port per link direction.
        assert len(net.ports()) == 2 * small_clos.link_count

    def test_host_nics_attached(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        for host in net.hosts.values():
            assert host.nic is not None

    def test_rtt_monitors_per_cluster(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        # One list per cluster, shared by that cluster's hosts.
        assert net.host(server_name(0, 0, 0)).rtt_samples is net.rtt_samples(0)
        assert net.host(server_name(1, 0, 0)).rtt_samples is net.rtt_samples(1)
        assert net.rtt_samples(0) is not net.rtt_samples(1)
        assert net.rtt_samples(None) == []

    def test_excluded_without_override_rejected(self, small_clos):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, small_clos, excluded_nodes={"tor-c0-0"})

    def test_excluded_with_override(self, small_clos):
        sim = Simulator()

        class Blackhole:
            name = "blackhole"
            received = []

            def receive(self, packet, from_node):
                self.received.append((packet, from_node))

        hole = Blackhole()
        overrides = {"tor-c0-0": hole}
        net = Network(
            sim, small_clos, excluded_nodes={"tor-c0-0"}, receiver_overrides=overrides
        )
        assert "tor-c0-0" not in net.switches
        # The server under that ToR still exists and its NIC points at
        # the override.
        host = net.host(server_name(0, 0, 0))
        assert host.nic.peer is hole


class TestForwarding:
    def test_packet_crosses_fabric(self, small_clos):
        """Inject a raw packet at a host NIC; it must reach the
        destination host over 6 hops with plausible latency."""
        sim = Simulator()
        net = Network(sim, small_clos)
        src = server_name(0, 0, 0)
        dst = server_name(1, 1, 3)
        packet = _packet(src, dst)
        net.host(src).transmit(packet)
        sim.run()
        assert net.host(dst).packets_received == 1
        # 6 hops x (serialization + 1us propagation).
        serialization = 1040 * 8 / 10e9
        assert sim.now == pytest.approx(6 * (serialization + 1e-6))

    def test_same_rack_two_hops(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        src = server_name(0, 0, 0)
        dst = server_name(0, 0, 1)
        net.host(src).transmit(_packet(src, dst))
        sim.run()
        assert net.host(dst).packets_received == 1
        serialization = 1040 * 8 / 10e9
        assert sim.now == pytest.approx(2 * (serialization + 1e-6))

    def test_flow_packets_take_one_path(self, small_clos):
        """All packets of one flow traverse the same switches (ECMP)."""
        sim = Simulator()
        net = Network(sim, small_clos)
        src = server_name(0, 0, 0)
        dst = server_name(1, 0, 0)
        seen_paths = set()
        for switch in net.switches.values():
            switch.on_forward = (
                lambda sw, p, nh: seen_paths.add((sw.name, nh))
            )
        for i in range(5):
            net.host(src).transmit(_packet(src, dst))
        sim.run()
        # 5 identical-flow packets, but the per-hop (switch, next) pairs
        # form a single path: 5 distinct forwarding pairs, not more.
        assert len(seen_paths) == 5

    def test_unmatched_packets_counted_not_crashing(self, small_clos):
        sim = Simulator()
        net = Network(sim, small_clos)
        src = server_name(0, 0, 0)
        dst = server_name(0, 0, 1)
        net.host(src).transmit(_packet(src, dst))
        sim.run()
        assert net.host(dst).unmatched_packets == 1  # no receiver registered

    def test_drop_counter_aggregates(self, small_clos):
        sim = Simulator()
        config = NetworkConfig(queue_capacity_bytes=1040)  # tiny queues
        net = Network(sim, small_clos, config=config)
        src = server_name(0, 0, 0)
        dst = server_name(0, 0, 1)
        for _ in range(10):
            net.host(src).transmit(_packet(src, dst))
        sim.run()
        assert net.total_drops > 0
        assert net.host(dst).packets_received < 10
