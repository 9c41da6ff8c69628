"""Property-based tests of receiver reassembly.

The receiver must deliver exactly the byte stream regardless of the
order, duplication, or fragmentation of arriving segments.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.kernel import Simulator
from repro.net.packet import Packet
from repro.net.tcp.config import TcpConfig
from repro.net.tcp.receiver import TcpReceiver


class _RecordingHost:
    """Captures ACKs the receiver emits."""

    def __init__(self) -> None:
        self.name = "b"
        self.sim = Simulator()
        self.acks: list[Packet] = []

    def transmit(self, packet: Packet) -> None:
        self.acks.append(packet)


def _segment(seq: int, length: int) -> Packet:
    return Packet(
        src="a", dst="b", src_port=1, dst_port=2, seq=seq, payload_bytes=length
    )


def _segments_covering(total: int, sizes: list[int]) -> list[Packet]:
    """Cut [0, total) into consecutive segments with the given sizes."""
    segments = []
    position = 0
    i = 0
    while position < total:
        size = min(sizes[i % len(sizes)], total - position)
        segments.append(_segment(position, size))
        position += size
        i += 1
    return segments


@given(
    total=st.integers(min_value=1, max_value=5000),
    sizes=st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    duplicate=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_reassembly_any_arrival_order(total, sizes, seed, duplicate):
    """Shuffled (and optionally duplicated) segments always reassemble."""
    import numpy as np

    host = _RecordingHost()
    receiver = TcpReceiver(host, peer="a", src_port=2, dst_port=1, config=TcpConfig())
    segments = _segments_covering(total, sizes)
    order = np.random.default_rng(seed).permutation(len(segments))
    arrivals = [segments[i] for i in order]
    if duplicate:
        arrivals = arrivals + arrivals[: len(arrivals) // 2 + 1]
    for segment in arrivals:
        receiver.on_data(segment)
    assert receiver.rcv_nxt == total
    assert receiver.bytes_delivered == total
    assert receiver.ooo_intervals == []
    # The final ACK acknowledges everything.
    assert host.acks[-1].ack == total


@given(
    total=st.integers(min_value=2, max_value=3000),
    hole_at=st.integers(min_value=1, max_value=2999),
)
@settings(max_examples=40, deadline=None)
def test_cumulative_ack_never_exceeds_contiguous_prefix(total, hole_at):
    """With one segment withheld, ACKs never pass the hole."""
    hole_at = min(hole_at, total - 1)
    host = _RecordingHost()
    receiver = TcpReceiver(host, peer="a", src_port=2, dst_port=1, config=TcpConfig())
    segments = _segments_covering(total, [97])
    withheld = None
    for segment in segments:
        if segment.seq <= hole_at < segment.seq + segment.payload_bytes:
            withheld = segment
            continue
        receiver.on_data(segment)
    assert withheld is not None
    assert receiver.rcv_nxt <= withheld.seq
    for ack in host.acks:
        assert ack.ack <= withheld.seq
    # Delivering the hole completes the stream.
    receiver.on_data(withheld)
    assert receiver.rcv_nxt == total


def test_ack_monotonicity():
    """Cumulative ACK numbers never decrease."""
    host = _RecordingHost()
    receiver = TcpReceiver(host, peer="a", src_port=2, dst_port=1, config=TcpConfig())
    import numpy as np

    segments = _segments_covering(4000, [311])
    for i in np.random.default_rng(7).permutation(len(segments)):
        receiver.on_data(segments[i])
    acks = [a.ack for a in host.acks]
    assert acks == sorted(acks)


@given(
    segments=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=120)
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_buffer_matches_interval_union_oracle(segments):
    """After every arrival, ``rcv_nxt`` and the buffered intervals equal
    a naive oracle: the union of all bytes seen, cut into maximal runs
    (touching segments form one run)."""
    host = _RecordingHost()
    receiver = TcpReceiver(host, peer="a", src_port=2, dst_port=1, config=TcpConfig())
    seen: set[int] = set()
    for seq, length in segments:
        receiver.on_data(_segment(seq, length))
        seen.update(range(seq, seq + length))
        rcv_nxt = 0
        while rcv_nxt in seen:
            rcv_nxt += 1
        runs: list[tuple[int, int]] = []
        for byte in sorted(b for b in seen if b > rcv_nxt):
            if runs and runs[-1][1] == byte:
                runs[-1] = (runs[-1][0], byte + 1)
            else:
                runs.append((byte, byte + 1))
        assert receiver.rcv_nxt == rcv_nxt
        assert receiver.ooo_intervals == runs
