"""Output port: drop-tail queue + serialization + propagation.

Every directed link direction is a :class:`Port` owned by the sending
node.  A port models the three delays a store-and-forward hop imposes:

* queuing — FIFO in bytes behind the packets ahead;
* serialization — ``size * 8 / rate`` seconds of transmitter time;
* propagation — a fixed one-way delay before the receiver sees it.

Drop-tail: a packet arriving to a full queue (byte-capacity) is
dropped and counted.  Optional ECN marks instead of dropping nothing —
marking happens when the queue exceeds a threshold, DCTCP-style, and is
off by default because the paper's evaluation runs plain New Reno.

Ports deliver to any object with a ``receive(packet, from_node)``
method, which is how the hybrid simulator splices an approximated
cluster in place of a switch without the port noticing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.des.kernel import Simulator
from repro.net.packet import Packet

#: Default queue capacity in bytes — about 100 x 1500B packets,
#: a typical shallow-buffer ToR per-port budget.
DEFAULT_QUEUE_BYTES = 150_000


class Receiver(Protocol):
    """Anything that can accept a delivered packet."""

    name: str

    def receive(self, packet: Packet, from_node: str) -> None:
        """Handle a packet arriving from ``from_node``."""
        ...  # pragma: no cover - protocol definition


def chain_hook(existing: Optional[Callable], handler: Callable) -> Callable:
    """Append ``handler`` to a port hook (``on_deliver`` / ``on_drop``).

    Whatever was installed before keeps running first, so independent
    taps (trace collectors, the cascade's focal tap, the raw packet
    tracer, the network's drop counter) can share one port.
    """
    if existing is None:
        return handler

    def chained(*args) -> None:
        existing(*args)
        handler(*args)

    return chained


@dataclass
class PortStats:
    """Per-port accounting."""

    enqueued: int = 0
    transmitted: int = 0
    dropped: int = 0
    marked: int = 0
    bytes_transmitted: int = 0
    bytes_dropped: int = 0
    peak_queued_bytes: int = 0


class Port:
    """A transmit port with a drop-tail byte-capacity FIFO.

    Parameters
    ----------
    sim:
        Owning simulator.
    owner_name:
        Name of the sending node (used as ``from_node`` on delivery).
    peer:
        Receiving object (switch, host, or cluster model).
    rate_bps:
        Line rate in bits per second.
    delay_s:
        Propagation delay in seconds.
    queue_capacity_bytes:
        Drop-tail threshold; packets that would push the queued byte
        count past this are dropped.
    ecn_threshold_bytes:
        If set, packets enqueued while the queue holds at least this
        many bytes get ``ecn_marked`` (only if ``ecn_capable``).
    on_drop:
        Optional callback ``(packet) -> None`` fired on every drop;
        trace capture uses it to label training targets.
    """

    def __init__(
        self,
        sim: Simulator,
        owner_name: str,
        peer: Receiver,
        rate_bps: float,
        delay_s: float,
        queue_capacity_bytes: int = DEFAULT_QUEUE_BYTES,
        ecn_threshold_bytes: Optional[int] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {delay_s}")
        self.sim = sim
        self.owner_name = owner_name
        self.peer = peer
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.on_drop = on_drop
        self.stats = PortStats()
        #: Optional hook ``(packet, time) -> None`` invoked at the moment
        #: of delivery to the peer (after propagation).  Trace capture
        #: instruments boundary ports with it; None costs one branch.
        self.on_deliver: Optional[Callable[[Packet, float], None]] = None
        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False

    # ------------------------------------------------------------------
    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting (excludes the packet being serialized)."""
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        """Packets currently waiting."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # The hop: enqueue -> _finish_transmission -> _deliver, each step a
    # kernel event carrying the packet as its argument.  Serialization
    # time (size * 8 / rate) is computed where a transmission starts.
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Accept a packet for transmission; returns False on drop."""
        self.stats.enqueued += 1
        size = packet.size_bytes
        if self._busy:
            if self._queued_bytes + size > self.queue_capacity_bytes:
                self._drop(packet)
                return False
            if (
                self.ecn_threshold_bytes is not None
                and packet.ecn_capable
                and self._queued_bytes >= self.ecn_threshold_bytes
            ):
                packet.ecn_marked = True
                self.stats.marked += 1
            self._queue.append(packet)
            self._queued_bytes += size
            if self._queued_bytes > self.stats.peak_queued_bytes:
                self.stats.peak_queued_bytes = self._queued_bytes
            return True
        self._busy = True
        self.sim.schedule(size * 8.0 / self.rate_bps, self._finish_transmission, packet)
        return True

    def _finish_transmission(self, packet: Packet) -> None:
        stats = self.stats
        stats.transmitted += 1
        stats.bytes_transmitted += packet.size_bytes
        # Propagation: receiver sees the packet delay_s after the last bit.
        schedule = self.sim.schedule
        schedule(self.delay_s, self._deliver, packet)
        if self._queue:
            next_packet = self._queue.popleft()
            size = next_packet.size_bytes
            self._queued_bytes -= size
            schedule(size * 8.0 / self.rate_bps, self._finish_transmission, next_packet)
        else:
            self._busy = False

    def _deliver(self, packet: Packet) -> None:
        if self.on_deliver is not None:
            self.on_deliver(packet, self.sim.now)
        self.peer.receive(packet, self.owner_name)

    def _drop(self, packet: Packet) -> None:
        self.stats.dropped += 1
        self.stats.bytes_dropped += packet.size_bytes
        if self.on_drop is not None:
            self.on_drop(packet)
