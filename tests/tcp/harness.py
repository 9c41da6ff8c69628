"""A two-host test harness with deterministic loss injection.

Builds the minimal packet-level world TCP needs: two hosts joined
through one switch, with a hook that can drop chosen data segments on
the forward path.  All tests drive real :class:`TcpSender` /
:class:`TcpReceiver` objects over real ports.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.kernel import Simulator
from repro.net.host import Host
from repro.net.network import Network, NetworkConfig
from repro.net.packet import Packet
from repro.net.tcp.config import TcpConfig
from repro.topology.graph import Node, NodeRole, Topology


def two_host_topology(rate_bps: float = 1e9, delay_s: float = 1e-5) -> Topology:
    """a -- switch -- b with uniform links."""
    topo = Topology(name="pair")
    topo.add_node(Node("a", NodeRole.SERVER, cluster=0, index=0))
    topo.add_node(Node("b", NodeRole.SERVER, cluster=0, index=1))
    topo.add_node(Node("sw", NodeRole.TOR, cluster=0, index=0))
    topo.add_link("a", "sw", rate_bps, delay_s)
    topo.add_link("b", "sw", rate_bps, delay_s)
    return topo


class LossFilter:
    """Drops selected packets on their way into a receiver.

    ``should_drop(packet)`` decides; dropped packets simply vanish,
    which is indistinguishable (to TCP) from a queue drop.
    """

    def __init__(self, inner, should_drop: Callable[[Packet], bool]) -> None:
        self.inner = inner
        self.name = inner.name
        self.should_drop = should_drop
        self.dropped: list[Packet] = []

    def receive(self, packet: Packet, from_node: str) -> None:
        if self.should_drop(packet):
            self.dropped.append(packet)
            return
        self.inner.receive(packet, from_node)


class TcpPair:
    """A ready-to-run sender/receiver pair over a real network."""

    def __init__(
        self,
        total_bytes: int,
        tcp: Optional[TcpConfig] = None,
        rate_bps: float = 1e9,
        delay_s: float = 1e-5,
        queue_capacity_bytes: int = 150_000,
        drop_filter: Optional[Callable[[Packet], bool]] = None,
        seed: int = 0,
    ) -> None:
        self.sim = Simulator(seed=seed)
        tcp = tcp or TcpConfig()
        topo = two_host_topology(rate_bps, delay_s)
        self.network = Network(
            self.sim,
            topo,
            config=NetworkConfig(tcp=tcp, queue_capacity_bytes=queue_capacity_bytes),
        )
        self.host_a: Host = self.network.host("a")
        self.host_b: Host = self.network.host("b")
        self.rtt_samples: list[float] = []
        self.host_a.rtt_samples = self.rtt_samples
        self.fcts: list[float] = []

        self.loss_filter: Optional[LossFilter] = None
        if drop_filter is not None:
            # Interpose on the switch's port toward b (the data path).
            port = self.network.port("sw", "b")
            self.loss_filter = LossFilter(port.peer, drop_filter)
            port.peer = self.loss_filter

        self.sender = self.host_a.open_flow(
            self.host_b, total_bytes, on_complete=self.fcts.append
        )
        key = (self.host_a.name, self.sender.dst_port, self.sender.src_port)
        self.receiver = self.host_b._receivers[key]

    def run(self, until: Optional[float] = None) -> None:
        """Start the flow and run the simulation."""
        self.sender.start()
        self.sim.run(until=until)

    @property
    def completed(self) -> bool:
        return self.sender.completed
