"""Tests for the packet model and the output-port queue/link."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.kernel import Simulator
from repro.net.packet import DEFAULT_MSS, HEADER_BYTES, Packet, TcpFlags
from repro.net.port import Port
from repro.net.tcp import TcpConfig, TcpReceiver, TcpSender
from repro.topology.routing import ecmp_hash, name_key


class _Sink:
    """Records deliveries."""

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.received: list[tuple[Packet, str, float]] = []
        self.sim: Simulator | None = None

    def receive(self, packet: Packet, from_node: str) -> None:
        assert self.sim is not None
        self.received.append((packet, from_node, self.sim.now))


def _packet(payload: int = DEFAULT_MSS, **kwargs) -> Packet:
    defaults = dict(src="a", dst="b", src_port=1, dst_port=2, payload_bytes=payload)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestPacket:
    def test_size_includes_headers(self):
        packet = _packet(payload=100)
        assert packet.size_bytes == 100 + HEADER_BYTES

    def test_flow_hash_direction_sensitive(self):
        forward = _packet()
        reverse = _packet(src="b", dst="a", src_port=2, dst_port=1)
        assert forward.flow_hash() != reverse.flow_hash()

    def test_flow_hash_stable_within_flow(self):
        p1 = _packet(seq=0)
        p2 = _packet(seq=5000)
        assert p1.flow_hash() == p2.flow_hash()

    def test_ack_only_detection(self):
        ack = _packet(payload=0, flags=TcpFlags.ACK)
        data = _packet(payload=10)
        assert ack.is_ack_only() and not data.is_ack_only()

    def test_packet_ids_unique(self):
        ids = {_packet().packet_id for _ in range(100)}
        assert len(ids) == 100


class _Endpoint:
    """A host that keeps what TCP hands its NIC."""

    def __init__(self, name: str, sim: Simulator) -> None:
        self.name = name
        self.sim = sim
        self.sent: list[Packet] = []

    def transmit(self, packet: Packet) -> None:
        self.sent.append(packet)


_names = st.text(alphabet="abc-0123456789", min_size=1, max_size=12)
_ports = st.integers(min_value=0, max_value=65535)


@given(src=_names, dst=_names, sport=_ports, dport=_ports)
@settings(max_examples=60, deadline=None)
def test_stamped_hash_is_the_five_tuple_formula(src, dst, sport, dport):
    """The hash a sender/receiver stamps once per connection equals the
    5-tuple formula every other consumer (flowsim paths, features)
    derives, for data segments and ACKs alike."""
    sim = Simulator()
    a, b = _Endpoint(src, sim), _Endpoint(dst, sim)
    sender = TcpSender(a, dst, sport, dport, total_bytes=3 * DEFAULT_MSS, config=TcpConfig())
    receiver = TcpReceiver(b, peer=src, src_port=dport, dst_port=sport, config=TcpConfig())
    sender.start()
    for packet in a.sent:
        receiver.on_data(packet)
    assert len(a.sent) == 3 and len(b.sent) == 3
    for packet in a.sent + b.sent:
        formula = ecmp_hash(
            name_key(packet.src), name_key(packet.dst), packet.src_port, packet.dst_port
        )
        assert packet.path_hash == packet.flow_hash() == formula
    unstamped = Packet(src=src, dst=dst, src_port=sport, dst_port=dport)
    assert unstamped.path_hash == a.sent[0].path_hash


class TestPortTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(sim, "src", sink, rate_bps=1e9, delay_s=1e-5)
        packet = _packet(payload=1460 - HEADER_BYTES)  # 1460B on the wire
        port.enqueue(packet)
        sim.run()
        expected = 1460 * 8 / 1e9 + 1e-5
        assert sink.received[0][2] == pytest.approx(expected)
        assert sink.received[0][1] == "src"

    def test_fifo_order_and_back_to_back(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(sim, "src", sink, rate_bps=1e9, delay_s=0.0)
        first = _packet(payload=960)  # 1000B
        second = _packet(payload=960)
        port.enqueue(first)
        port.enqueue(second)
        sim.run()
        t1, t2 = sink.received[0][2], sink.received[1][2]
        assert sink.received[0][0] is first
        assert t2 - t1 == pytest.approx(1000 * 8 / 1e9)

    def test_queue_drops_when_full(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        dropped = []
        port = Port(
            sim, "src", sink, rate_bps=1e9, delay_s=0.0,
            queue_capacity_bytes=3000, on_drop=dropped.append,
        )
        packets = [_packet(payload=1460) for _ in range(5)]
        for p in packets:
            port.enqueue(p)
        # One in flight + two queued (3000B), remaining two dropped.
        sim.run()
        assert len(sink.received) == 3
        assert len(dropped) == 2
        assert port.stats.dropped == 2
        assert port.stats.transmitted == 3

    def test_queued_bytes_tracking(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(sim, "src", sink, rate_bps=1e6, delay_s=0.0)
        port.enqueue(_packet(payload=460))  # starts transmitting
        assert port.queued_bytes == 0
        port.enqueue(_packet(payload=460))
        assert port.queued_bytes == 500
        assert port.queue_length == 1
        sim.run()
        assert port.queued_bytes == 0

    def test_ecn_marking_over_threshold(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(
            sim, "src", sink, rate_bps=1e6, delay_s=0.0,
            queue_capacity_bytes=100_000, ecn_threshold_bytes=1000,
        )
        port.enqueue(_packet(payload=1460, ecn_capable=True))  # in flight
        port.enqueue(_packet(payload=1460, ecn_capable=True))  # queued, below
        marked = _packet(payload=1460, ecn_capable=True)
        port.enqueue(marked)  # queue now >= 1000B: marked
        sim.run()
        assert marked.ecn_marked
        assert port.stats.marked == 1

    def test_no_ecn_mark_without_capability(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(
            sim, "src", sink, rate_bps=1e6, delay_s=0.0, ecn_threshold_bytes=0
        )
        port.enqueue(_packet(payload=100))
        packet = _packet(payload=100, ecn_capable=False)
        port.enqueue(packet)
        sim.run()
        assert not packet.ecn_marked

    def test_on_deliver_hook(self):
        sim = Simulator()
        sink = _Sink()
        sink.sim = sim
        port = Port(sim, "src", sink, rate_bps=1e9, delay_s=1e-6)
        seen = []
        port.on_deliver = lambda p, t: seen.append(t)
        port.enqueue(_packet())
        sim.run()
        assert len(seen) == 1
        assert seen[0] == sink.received[0][2]

    def test_invalid_construction(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Port(sim, "x", _Sink(), rate_bps=0, delay_s=0)
        with pytest.raises(ValueError):
            Port(sim, "x", _Sink(), rate_bps=1e9, delay_s=-1)
