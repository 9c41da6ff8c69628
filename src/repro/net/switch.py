"""Output-queued ECMP switch.

A switch receives a packet, looks up the ECMP next hop for the packet's
flow, and enqueues it on the corresponding output port.  Forwarding is
destination-based (no per-input state), so the switch does not care
whether a packet physically arrived from a neighbor or was injected by
an approximated-cluster model.

Per the paper's elision list (Section 5), these queuing / routing /
packet processing procedures are exactly what the approximation removes
for replaced clusters.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.entities import Entity
from repro.des.errors import SimulationError
from repro.des.kernel import Simulator
from repro.net.packet import Packet
from repro.net.port import Port
from repro.topology.routing import EcmpRouting, NoRouteError


class UnroutablePacketError(SimulationError, RuntimeError):
    """A switch could not forward a packet toward its destination.

    Reachable mid-run once link failures are injected (a partition can
    strand in-flight packets), so it carries structured context —
    ``(switch, dst, policy)`` plus the sim time and failed links — that
    the invariant checker and failed run manifests surface instead of a
    bare stack trace.
    """

    def __init__(
        self,
        switch: str,
        packet: Packet,
        policy: str,
        time: float,
        reason: str,
        failed_links: Optional[list[tuple[str, str]]] = None,
    ) -> None:
        super().__init__(
            f"{switch}: cannot route packet {packet.src!r}->{packet.dst!r} "
            f"under policy {policy!r} at t={time:.6f}: {reason}"
        )
        self.switch = switch
        self.src = packet.src
        self.dst = packet.dst
        self.policy = policy
        self.time = time
        self.reason = reason
        self.failed_links = list(failed_links or [])

    def details(self) -> dict:
        """Manifest-ready structured context."""
        return {
            "switch": self.switch,
            "src": self.src,
            "dst": self.dst,
            "policy": self.policy,
            "time": self.time,
            "reason": self.reason,
            "failed_links": [list(pair) for pair in self.failed_links],
        }


class Switch(Entity):
    """An output-queued switch forwarding via a routing policy.

    Ports are attached after construction via :meth:`attach_port` (the
    network assembler wires both directions of every link).  Forwarding
    consults :meth:`EcmpRouting.select_next_hop` — the ``RoutingPolicy``
    seam — passing the current sim time (flowlet gap detection) and a
    per-neighbor queued-bytes probe (adaptive load balancing); plain
    ECMP ignores both.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        routing: EcmpRouting,
        on_forward: Optional[Callable[["Switch", Packet, str], None]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.routing = routing
        self.ports: dict[str, Port] = {}
        self.packets_forwarded = 0
        self.packets_received = 0
        #: Optional hook called as ``on_forward(switch, packet,
        #: next_hop)`` before enqueueing — trace capture uses it.
        self.on_forward = on_forward
        #: Optional hook called as ``on_unroutable(error, packet)``
        #: before the structured error propagates — the invariant
        #: checker records a routability violation through it.
        self.on_unroutable: Optional[
            Callable[[UnroutablePacketError, Packet], None]
        ] = None

    def attach_port(self, neighbor: str, port: Port) -> None:
        """Register the output port toward ``neighbor``."""
        if neighbor in self.ports:
            raise ValueError(f"{self.name}: duplicate port toward {neighbor!r}")
        self.ports[neighbor] = port

    def _port_load(self, neighbor: str) -> int:
        """Queued bytes toward ``neighbor`` — adaptive routing's signal."""
        port = self.ports.get(neighbor)
        return port.queued_bytes if port is not None else 0

    def _unroutable(self, packet: Packet, reason: str) -> UnroutablePacketError:
        error = UnroutablePacketError(
            switch=self.name,
            packet=packet,
            policy=self.routing.policy,
            time=self.now,
            reason=reason,
            failed_links=self.routing.failed_links,
        )
        if self.on_unroutable is not None:
            self.on_unroutable(error, packet)
        return error

    def receive(self, packet: Packet, from_node: str) -> None:
        """Forward a packet toward its destination.

        One routing call on the packet's stamped flow hash; the
        structured :class:`UnroutablePacketError` is the slow path.
        """
        self.packets_received += 1
        try:
            next_hop = self.routing.select_next_hop(
                self.name, packet.dst, packet.path_hash, self.sim.now, self._port_load
            )
        except NoRouteError as exc:
            raise self._unroutable(packet, str(exc)) from None
        try:
            port = self.ports[next_hop]
        except KeyError:
            raise self._unroutable(
                packet, f"routing chose {next_hop!r} but no port is attached"
            ) from None
        if self.on_forward is not None:
            self.on_forward(self, packet, next_hop)
        self.packets_forwarded += 1
        port.enqueue(packet)

    def total_queued_bytes(self) -> int:
        """Bytes currently queued across all output ports."""
        return sum(port.queued_bytes for port in self.ports.values())
