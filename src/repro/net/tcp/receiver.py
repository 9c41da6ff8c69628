"""TCP receiver: cumulative ACK generation with reassembly.

The receiver tracks ``rcv_nxt``, buffers out-of-order segments as
merged ``(start, end)`` intervals, and generates cumulative ACKs.  Out
of order arrivals always trigger an immediate duplicate ACK (that is
what drives the sender's fast retransmit); in-order arrivals ACK
immediately or on the delayed-ACK policy.  ECN marks seen on data are
echoed on the next ACK (a simplified ECE that suffices for the
one-reduction-per-window sender rule).
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional, Protocol

from repro.des.entities import Timer
from repro.des.kernel import Simulator
from repro.net.packet import Packet, TcpFlags, flow_hash_of
from repro.net.tcp.config import TcpConfig


class ReceiverHost(Protocol):
    """What a receiver needs from its host."""

    name: str
    sim: Simulator

    def transmit(self, packet: Packet) -> None:
        """Hand a packet to the NIC."""
        ...  # pragma: no cover - protocol definition


class TcpReceiver:
    """The receiving side of one unidirectional transfer.

    Parameters
    ----------
    host:
        The endpoint that owns this connection.
    peer:
        The sender's node name (destination for ACKs).
    src_port, dst_port:
        *This side's* ports: ACKs go out with ``src_port`` as their
        source and ``dst_port`` as destination (mirroring the data
        packets' ports).
    config:
        Protocol knobs (delayed-ACK policy lives here).
    on_deliver:
        Optional callback ``(new_in_order_bytes) -> None`` whenever the
        reassembly point advances — applications count goodput with it.
    """

    def __init__(
        self,
        host: ReceiverHost,
        peer: str,
        src_port: int,
        dst_port: int,
        config: TcpConfig,
        on_deliver: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.host = host
        self.peer = peer
        self.src_port = src_port
        self.dst_port = dst_port
        self.config = config
        self.on_deliver = on_deliver
        #: The ACK direction's ECMP hash, stamped on every ACK.
        self.path_hash = flow_hash_of(host.name, peer, src_port, dst_port)

        self.rcv_nxt = 0
        self.bytes_delivered = 0
        self.acks_sent = 0
        self.duplicate_segments = 0
        self._ooo: list[tuple[int, int]] = []  # sorted, disjoint
        self._ecn_echo = False
        self._unacked_segments = 0
        self._delack_timer = Timer(host.sim, self._flush_delayed_ack)

    # ------------------------------------------------------------------
    def on_data(self, packet: Packet) -> None:
        """Process an arriving data segment."""
        if packet.ecn_marked:
            self._ecn_echo = True
        start = packet.seq
        end = packet.seq + packet.payload_bytes
        if end <= self.rcv_nxt:
            # Entirely old data (spurious retransmission).
            self.duplicate_segments += 1
            self._send_ack()
            return
        if start > self.rcv_nxt:
            # A hole precedes this segment: buffer + immediate dup ACK.
            self._insert_ooo(start, end)
            self._send_ack()
            return
        # In-order (possibly overlapping) data: advance and merge.
        advanced_from = self.rcv_nxt
        self.rcv_nxt = max(self.rcv_nxt, end)
        self._drain_ooo()
        delivered = self.rcv_nxt - advanced_from
        self.bytes_delivered += delivered
        if self.on_deliver is not None:
            self.on_deliver(delivered)
        if self.config.delayed_ack and not self._ooo:
            self._unacked_segments += 1
            if self._unacked_segments >= 2:
                self._flush_delayed_ack()
            elif not self._delack_timer.armed:
                self._delack_timer.arm(self.config.delayed_ack_timeout_s)
        else:
            self._send_ack()

    # ------------------------------------------------------------------
    def _insert_ooo(self, start: int, end: int) -> None:
        """Insert an interval, merging it with the neighbours it overlaps
        or touches; the list stays sorted with a gap between entries."""
        ooo = self._ooo
        lo = hi = bisect.bisect_left(ooo, (start,))
        if lo and ooo[lo - 1][1] >= start:
            lo -= 1
            start, end = ooo[lo][0], max(end, ooo[lo][1])
        while hi < len(ooo) and ooo[hi][0] <= end:
            end = max(end, ooo[hi][1])
            hi += 1
        ooo[lo:hi] = [(start, end)]

    def _drain_ooo(self) -> None:
        """Consume buffered intervals now contiguous with ``rcv_nxt``."""
        ooo = self._ooo
        drained = 0
        while drained < len(ooo) and ooo[drained][0] <= self.rcv_nxt:
            self.rcv_nxt = max(self.rcv_nxt, ooo[drained][1])
            drained += 1
        del ooo[:drained]

    def _flush_delayed_ack(self) -> None:
        self._delack_timer.cancel()
        self._unacked_segments = 0
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            src=self.host.name,
            dst=self.peer,
            src_port=self.src_port,
            dst_port=self.dst_port,
            ack=self.rcv_nxt,
            flags=TcpFlags.ACK,
            payload_bytes=0,
            created_at=self.host.sim.now,
            ecn_capable=self.config.ecn,
            ecn_marked=self._ecn_echo,
            path_hash=self.path_hash,
        )
        self._ecn_echo = False
        self.acks_sent += 1
        self.host.transmit(ack)

    @property
    def ooo_intervals(self) -> list[tuple[int, int]]:
        """Buffered out-of-order intervals (copy, for tests)."""
        return list(self._ooo)
