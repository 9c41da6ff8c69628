"""Network assembly: topology -> live DES entities.

:class:`Network` instantiates a :class:`~repro.net.host.Host` per
server and a :class:`~repro.net.switch.Switch` per switch node, then
creates one :class:`~repro.net.port.Port` per *direction* of every
link.

Two hooks exist for the hybrid simulator:

* ``excluded_nodes`` — node names that get no entity and no outgoing
  ports (the fabric switches of approximated clusters);
* ``receiver_overrides`` — a mapping from node name to a replacement
  receiver: any port whose peer is listed delivers to the override
  instead (this is how server NICs and core switches are spliced onto
  an approximated-cluster model without them noticing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.des.kernel import Simulator
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.port import DEFAULT_QUEUE_BYTES, Port, Receiver
from repro.net.switch import Switch
from repro.net.tcp.config import TcpConfig
from repro.topology.graph import NodeRole, Topology
from repro.topology.routing import EcmpRouting


@dataclass(frozen=True)
class NetworkConfig:
    """Network-wide parameters.

    Attributes
    ----------
    tcp:
        Protocol configuration shared by all hosts.
    queue_capacity_bytes:
        Drop-tail capacity of every switch/NIC output queue.
    ecn_threshold_bytes:
        Optional ECN marking threshold (None disables marking).
    """

    tcp: TcpConfig = field(default_factory=TcpConfig)
    queue_capacity_bytes: int = DEFAULT_QUEUE_BYTES
    ecn_threshold_bytes: Optional[int] = None


class Network:
    """Live simulation objects for a topology.

    Parameters
    ----------
    sim:
        The simulator to attach everything to.
    topology:
        The graph to instantiate.
    config:
        Protocol and queue parameters.
    routing:
        ECMP routing; built here if omitted.  The hybrid
        simulator passes the *full* topology's routing even though some
        switches are excluded — routing knowledge of the replaced
        region is a model input (paper Section 4.2).
    excluded_nodes:
        Nodes to skip entirely (no entity, no outgoing ports).
    receiver_overrides:
        name -> receiver object substitutions for port peers.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        routing: Optional[EcmpRouting] = None,
        excluded_nodes: frozenset[str] | set[str] = frozenset(),
        receiver_overrides: Optional[Mapping[str, Receiver]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config or NetworkConfig()
        self.routing = routing or EcmpRouting(topology)
        self.excluded_nodes = frozenset(excluded_nodes)
        overrides = dict(receiver_overrides or {})

        #: Packets dropped anywhere in the network.
        self.total_drops = 0
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self._ports: dict[tuple[str, str], Port] = {}
        #: RTT samples per cluster id (None key = core-attached); each
        #: host's senders append to their cluster's list.
        self._rtt_samples: dict[Optional[int], list[float]] = {}

        for node in topology.nodes:
            if node.name in self.excluded_nodes:
                continue
            if node.role is NodeRole.SERVER:
                host = Host(sim, node.name, self.config.tcp)
                host.rtt_samples = self._rtt_samples.setdefault(node.cluster, [])
                self.hosts[node.name] = host
            else:
                self.switches[node.name] = Switch(sim, node.name, self.routing)

        entities: dict[str, Receiver] = {}
        entities.update(self.hosts)
        entities.update(self.switches)
        for link in topology.links:
            for owner, peer in ((link.a, link.b), (link.b, link.a)):
                if owner in self.excluded_nodes:
                    continue
                receiver = overrides.get(peer)
                if receiver is None:
                    receiver = entities.get(peer)
                if receiver is None:
                    raise ValueError(
                        f"link endpoint {peer!r} is excluded but has no receiver override"
                    )
                port = Port(
                    sim=sim,
                    owner_name=owner,
                    peer=receiver,
                    rate_bps=link.rate_bps,
                    delay_s=link.delay_s,
                    queue_capacity_bytes=self.config.queue_capacity_bytes,
                    ecn_threshold_bytes=self.config.ecn_threshold_bytes,
                    on_drop=self._on_drop,
                )
                self._ports[(owner, peer)] = port
                owner_entity = entities[owner]
                if isinstance(owner_entity, Host):
                    owner_entity.attach_nic(port)
                else:
                    assert isinstance(owner_entity, Switch)
                    owner_entity.attach_port(peer, port)

    # ------------------------------------------------------------------
    def _on_drop(self, packet: Packet) -> None:
        self.total_drops += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        """Host entity by node name."""
        return self.hosts[name]

    def switch(self, name: str) -> Switch:
        """Switch entity by node name."""
        return self.switches[name]

    def port(self, owner: str, peer: str) -> Port:
        """The directed port ``owner -> peer``."""
        return self._ports[(owner, peer)]

    def ports(self) -> dict[tuple[str, str], Port]:
        """All directed ports keyed by (owner, peer)."""
        return dict(self._ports)

    def rtt_samples(self, cluster: Optional[int]) -> list[float]:
        """RTT samples observed by the hosts of one cluster, in order
        (empty when this network has none of its hosts).  The live
        list: copy it to keep a snapshot."""
        return self._rtt_samples.get(cluster, [])

    def all_rtt_samples(self) -> list[float]:
        """RTT samples pooled across every cluster."""
        return [rtt for samples in self._rtt_samples.values() for rtt in samples]

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_queued_bytes(self) -> int:
        """Bytes sitting in queues right now (congestion snapshot)."""
        return sum(port.queued_bytes for port in self._ports.values())
