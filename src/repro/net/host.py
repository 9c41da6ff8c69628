"""Server endpoint.

A :class:`Host` owns one NIC port (to its ToR) and demultiplexes
arriving packets to TCP senders/receivers by connection key.  Flow
setup is simulation-level: :meth:`open_flow` creates the sender here
and the receiver on the destination host directly (no handshake — see
``repro.net.tcp``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, Optional

from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.tcp.config import TcpConfig
from repro.net.tcp.receiver import TcpReceiver
from repro.net.tcp.sender import TcpSender

#: Connection demux key: (peer name, local port, remote port).
ConnKey = tuple[str, int, int]

#: First ephemeral source port of every host.  The traffic generator
#: takes each arrival's port from its source host, in arrival order,
#: elided and diverted arrivals included, so a flow hashes onto the
#: same ECMP path whichever engine carries it.
FLOW_PORT_BASE = 10_000


def host_shims() -> defaultdict[str, SimpleNamespace]:
    """A stand-in per host name, created on first use, that has only
    :meth:`Host.allocate_port`: what numbering a pre-drawn schedule
    needs of a host."""
    return defaultdict(
        lambda: SimpleNamespace(allocate_port=itertools.count(FLOW_PORT_BASE).__next__)
    )


class Host(Entity):
    """A server: one NIC, many TCP connections."""

    def __init__(self, sim: Simulator, name: str, tcp_config: TcpConfig) -> None:
        super().__init__(sim, name)
        self.tcp_config = tcp_config
        self.nic: Optional[Port] = None
        self._senders: dict[ConnKey, TcpSender] = {}
        self._receivers: dict[ConnKey, TcpReceiver] = {}
        self._port_counter = itertools.count(FLOW_PORT_BASE)
        self.packets_received = 0
        self.unmatched_packets = 0
        #: RTT sample list shared by all senders on this host (its
        #: cluster's list, assigned by the network assembler).
        self.rtt_samples: Optional[list[float]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_nic(self, port: Port) -> None:
        """Attach the single uplink port (to the ToR or cluster model)."""
        if self.nic is not None:
            raise ValueError(f"{self.name}: NIC already attached")
        self.nic = port

    def transmit(self, packet: Packet) -> None:
        """Send a packet out the NIC (called by TCP)."""
        if self.nic is None:
            raise RuntimeError(f"{self.name}: transmit before NIC attached")
        self.nic.enqueue(packet)

    def allocate_port(self) -> int:
        """A fresh ephemeral port number, unique per host."""
        return next(self._port_counter)

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def open_flow(
        self,
        dst_host: "Host",
        total_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
        dst_port: int = 80,
        src_port: Optional[int] = None,
    ) -> TcpSender:
        """Create sender (here) and receiver (at ``dst_host``) for a flow.

        Returns the sender; call :meth:`TcpSender.start` to begin.
        ``src_port`` pins an already-allocated ephemeral port (the
        traffic generator's, taken at arrival); by default a fresh one
        is drawn from the per-host counter.
        """
        if src_port is None:
            src_port = self.allocate_port()
        sender = TcpSender(
            host=self,
            dst=dst_host.name,
            src_port=src_port,
            dst_port=dst_port,
            total_bytes=total_bytes,
            config=self.tcp_config,
            on_complete=on_complete,
            rtt_samples=self.rtt_samples,
        )
        receiver = TcpReceiver(
            host=dst_host,
            peer=self.name,
            src_port=dst_port,
            dst_port=src_port,
            config=dst_host.tcp_config,
        )
        self._senders[(dst_host.name, src_port, dst_port)] = sender
        dst_host._receivers[(self.name, dst_port, src_port)] = receiver
        return sender

    def register_sender(self, sender: TcpSender) -> None:
        """Register an externally constructed sender for ACK demux.

        Used when the two endpoints of a flow are created independently
        (PDES workers own disjoint partitions and cannot call
        :meth:`open_flow` across processes).
        """
        self._senders[(sender.dst, sender.src_port, sender.dst_port)] = sender

    def register_receiver(self, receiver: TcpReceiver) -> None:
        """Register an externally constructed receiver for data demux."""
        self._receivers[(receiver.peer, receiver.src_port, receiver.dst_port)] = receiver

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, from_node: str) -> None:
        """Demultiplex an arriving packet to its connection."""
        self.packets_received += 1
        key: ConnKey = (packet.src, packet.dst_port, packet.src_port)
        if packet.is_ack_only():
            sender = self._senders.get(key)
            if sender is not None:
                sender.on_ack(packet)
                return
        receiver = self._receivers.get(key)
        if receiver is not None:
            receiver.on_data(packet)
            return
        # Late packets for closed flows land here; count, don't crash.
        self.unmatched_packets += 1
