"""Remote-link stubs: the seam between PDES partitions.

A port whose peer lives in another partition is wired to a
:class:`RemoteStub` instead of the real entity.  The stub is invoked at
*transmission-complete* time (the port's propagation delay is zeroed by
the worker during wiring); it adds the link's real propagation delay
itself and records an outbound message.  Because the window length is
at most the minimum cut-link delay, every message produced during a
window is deliverable only in a later window — the conservative
causality guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.des.kernel import Simulator
from repro.net.packet import Packet
from repro.topology.graph import Topology


@dataclass
class RemoteMessage:
    """One packet crossing a partition boundary.

    Attributes
    ----------
    target_node:
        Name of the receiving entity in the remote partition.
    from_node:
        Link endpoint the packet came from (receive() argument).
    deliver_at:
        Absolute simulated delivery time (send time + link delay).
    packet:
        The packet itself (pickled across the process boundary —
        the serialization cost MPI-based PDES also pays).
    cause:
        The delivery event's cause when the worker orders ties by cause
        (:meth:`~repro.des.kernel.Simulator.order_ties_by_cause`).
    """

    target_node: str
    from_node: str
    deliver_at: float
    packet: Packet
    cause: Optional[tuple] = None


#: Generations of a cut-link packet's cause it carries across the
#: barrier when its worker orders ties by cause: enough for the tied
#: events of a leaf-spine or Clos fabric, whose symmetric paths can
#: share every hop time for several hops.
CAUSE_GENERATIONS = 32


def _enqueue(
    remote, from_node: str, deliver_at: float, packet: Packet, cause=None
) -> None:
    """Queue one delivery to ``remote``'s node for its owning worker."""
    message = RemoteMessage(
        target_node=remote.name,
        from_node=from_node,
        deliver_at=deliver_at,
        packet=packet,
        cause=cause,
    )
    per_link = remote.outbox.setdefault(remote.owner_worker, {})
    per_link.setdefault((from_node, remote.name), []).append(message)


class RemoteStub:
    """Receiver standing in for a node owned by another partition."""

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        owner_worker: int,
        topology: Topology,
        outbox: dict[int, dict[tuple[str, str], list[RemoteMessage]]],
    ) -> None:
        self.sim = sim
        self.name = node_name
        self.owner_worker = owner_worker
        self.topology = topology
        self.outbox = outbox

    def receive(self, packet: Packet, from_node: str) -> None:
        """Queue the packet for the owning worker.

        Called at transmission-complete time, from the zero-delay
        delivery event that stands in for the real one: adds the link's
        real propagation delay to produce the delivery timestamp, and
        that event's cause is the real one's.
        """
        delay = self.topology.link_between(from_node, self.name).delay_s
        cause = self.sim.running_cause(CAUSE_GENERATIONS)
        _enqueue(self, from_node, self.sim.now + delay, packet, cause)


class RemoteEntityProxy:
    """Model-egress target owned by another worker.

    An :class:`~repro.core.cluster_model.ApproximatedCluster` schedules
    its deliveries directly (no port in between), so a remote egress
    node cannot be reached through a :class:`RemoteStub`.  Instead the
    model's ``resolve_entity`` hands back this proxy, and the cluster
    calls :meth:`schedule_model_delivery` at **decision time** — the
    moment the drop/latency outcome is known — rather than scheduling a
    local event that would only surface the packet when it fires.
    Capturing at decision time is what keeps the conservative window
    sound: the delivery timestamp is ``arrival + latency`` with
    ``latency >= MIN_REGION_LATENCY_S``, and the shard window is sized
    so that bound (minus any batching slack) still clears the next
    barrier.
    """

    __slots__ = ("name", "owner_worker", "outbox")

    def __init__(
        self,
        node_name: str,
        owner_worker: int,
        outbox: dict[int, dict[tuple[str, str], list[RemoteMessage]]],
    ) -> None:
        self.name = node_name
        self.owner_worker = owner_worker
        self.outbox = outbox

    def schedule_model_delivery(
        self, deliver_at: float, packet: Packet, boundary: str
    ) -> None:
        """Queue one model delivery for the owning worker.

        ``boundary`` (the region switch the packet notionally exits
        from) becomes the receiver's ``from_node`` argument, exactly as
        the local delivery event would have passed it.
        """
        _enqueue(self, boundary, deliver_at, packet)
