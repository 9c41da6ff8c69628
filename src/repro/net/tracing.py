"""Raw packet/event trace capture.

Section 2.1: "The eventual output of the simulation is also
configurable; users can compute arbitrary statistics ... or can print
raw packet/event traces."  :class:`PacketTracer` is that facility: it
chains onto the delivery and drop hooks of every (or a chosen subset
of) ports and records one row per event, exportable as dicts or CSV —
the same role pcap/vector files play for OMNeT++ users.

Tracing costs one callback per recorded event, so attach it only to
the links you care about for long runs.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.port import chain_hook

#: Event kinds recorded by the tracer.
KIND_DELIVER = "deliver"
KIND_DROP = "drop"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded packet event.

    ``link_from``/``link_to`` identify the directed port; ``time`` is
    the delivery instant for delivers and the enqueue-rejection instant
    for drops.
    """

    time: float
    kind: str
    link_from: str
    link_to: str
    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    payload_bytes: int
    size_bytes: int
    ecn_marked: bool
    retransmission: bool
    packet_id: int


class PacketTracer:
    """Records per-packet events on a live network.

    Parameters
    ----------
    network:
        The network whose ports to instrument.
    nodes:
        If given, only ports *owned by* these nodes are traced;
        otherwise every port is.
    include_drops:
        Also record queue drops (chained after the network's drop
        accounting).
    """

    def __init__(
        self,
        network: Network,
        nodes: Optional[Iterable[str]] = None,
        include_drops: bool = True,
    ) -> None:
        self.network = network
        self.events: list[TraceEvent] = []
        node_filter = set(nodes) if nodes is not None else None
        self._ports_instrumented = 0
        for (owner, peer), port in network.ports().items():
            if node_filter is not None and owner not in node_filter:
                continue
            self._ports_instrumented += 1
            port.on_deliver = chain_hook(
                port.on_deliver, self._make_deliver_handler(owner, peer)
            )
            if include_drops:
                port.on_drop = chain_hook(
                    port.on_drop, self._make_drop_handler(owner, peer)
                )
        if self._ports_instrumented == 0:
            raise ValueError("tracer matched no ports; check the node filter")

    def _make_deliver_handler(self, owner: str, peer: str) -> Callable[[Packet, float], None]:
        def handler(packet: Packet, time: float) -> None:
            self.events.append(self._event(time, KIND_DELIVER, owner, peer, packet))

        return handler

    def _make_drop_handler(self, owner: str, peer: str) -> Callable[[Packet], None]:
        def handler(packet: Packet) -> None:
            self.events.append(
                self._event(self.network.sim.now, KIND_DROP, owner, peer, packet)
            )

        return handler

    @staticmethod
    def _event(time: float, kind: str, owner: str, peer: str, packet: Packet) -> TraceEvent:
        return TraceEvent(
            time=time,
            kind=kind,
            link_from=owner,
            link_to=peer,
            src=packet.src,
            dst=packet.dst,
            src_port=packet.src_port,
            dst_port=packet.dst_port,
            seq=packet.seq,
            ack=packet.ack,
            payload_bytes=packet.payload_bytes,
            size_bytes=packet.size_bytes,
            ecn_marked=packet.ecn_marked,
            retransmission=packet.retransmission,
            packet_id=packet.packet_id,
        )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def rows(self) -> list[dict]:
        """All events as plain dicts (analysis-friendly)."""
        return [asdict(event) for event in self.events]

    def write_csv(self, path: str | Path) -> int:
        """Dump the trace as CSV; returns the row count."""
        rows = self.rows()
        path = Path(path)
        with path.open("w", newline="") as handle:
            if not rows:
                handle.write("")
                return 0
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)

    def flow_events(self, src: str, dst: str) -> list[TraceEvent]:
        """Events belonging to packets of one (src, dst) host pair."""
        return [e for e in self.events if e.src == src and e.dst == dst]

    def drops(self) -> list[TraceEvent]:
        """Only the drop events."""
        return [e for e in self.events if e.kind == KIND_DROP]
