"""Approximation regions: which part of the network a model replaces.

The paper's prototype "uses clusters as the unit of approximation"
(Section 4), but Section 7 asks how much further this can go: "In the
limit, the rest of the network could be modeled as a single black box."
This module abstracts the region so both ends of that spectrum run
through the same machinery:

* :meth:`Region.cluster` — one cluster's ToR + Cluster switches (the
  paper's evaluation configuration);
* :meth:`Region.rest_of_network` — every switch except one cluster's,
  core layer included (the Section 7 limit case).

A region is a set of *switches*.  Hosts are never part of a region
(approximated clusters run full TCP stacks, Section 5).  The region's
``shadow_servers`` — servers whose ToR is inside the region — define
packet direction: a packet terminating at a shadow server travels
INGRESS (it ends inside the region's reach), anything else EGRESS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.port import chain_hook
from repro.topology.graph import NodeRole, Topology


@dataclass(frozen=True)
class Region:
    """A set of fabric switches replaced by one model.

    Attributes
    ----------
    name:
        Human-readable identifier (used in entity names and traces).
    switches:
        Names of the switches inside the region.
    shadow_servers:
        Servers attached behind region switches (their ToR is in the
        region).  Destination membership here defines INGRESS.
    """

    name: str
    switches: frozenset[str]
    shadow_servers: frozenset[str]

    def __post_init__(self) -> None:
        if not self.switches:
            raise ValueError(f"region {self.name!r} has no switches")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def cluster(cls, topology: Topology, cluster: int) -> "Region":
        """The paper's unit of approximation: one cluster's fabric."""
        switches = frozenset(
            node.name
            for node in topology.cluster_nodes(cluster)
            if node.role in (NodeRole.TOR, NodeRole.CLUSTER)
        )
        if not switches:
            raise ValueError(f"cluster {cluster} has no fabric switches")
        shadow = frozenset(
            node.name
            for node in topology.cluster_nodes(cluster)
            if node.role is NodeRole.SERVER
        )
        return cls(name=f"cluster-{cluster}", switches=switches, shadow_servers=shadow)

    @classmethod
    def rest_of_network(cls, topology: Topology, full_cluster: int) -> "Region":
        """The Section 7 limit: everything except one cluster's fabric.

        Region = the core layer plus every other cluster's ToR and
        Cluster switches; its shadow is every server outside the full
        cluster.
        """
        switches = set()
        shadow = set()
        for node in topology.nodes:
            if node.role is NodeRole.CORE:
                switches.add(node.name)
            elif node.cluster == full_cluster:
                continue
            elif node.role in (NodeRole.TOR, NodeRole.CLUSTER):
                switches.add(node.name)
            elif node.role is NodeRole.SERVER:
                shadow.add(node.name)
        if not switches:
            raise ValueError("rest-of-network region is empty")
        return cls(
            name=f"rest-of-network-except-{full_cluster}",
            switches=frozenset(switches),
            shadow_servers=frozenset(shadow),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains_switch(self, name: str) -> bool:
        """True if ``name`` is a region switch."""
        return name in self.switches

    def is_shadow_server(self, name: str) -> bool:
        """True if ``name`` is a server behind the region."""
        return name in self.shadow_servers

    def tap_boundary(self, network, on_entry, on_exit, on_drop) -> None:
        """Chain taps onto the live ports of the region's boundary.

        ``on_entry(packet, time)`` fires on ports delivering *into* the
        region (server NICs of the cluster, core-to-Cluster-switch
        ports), ``on_exit(packet, time)`` on region ports delivering
        *out* (ToR-to-server, Cluster-to-core), ``on_drop(packet)`` on
        every region-owned port.  Entry-delivery to exit-delivery is
        exactly the interval a model of the region replaces.
        """
        for (owner, peer), port in network.ports().items():
            owner_in = owner in self.switches
            peer_in = peer in self.switches
            if not owner_in and peer_in:
                port.on_deliver = chain_hook(port.on_deliver, on_entry)
            elif owner_in and not peer_in:
                port.on_deliver = chain_hook(port.on_deliver, on_exit)
            if owner_in:
                port.on_drop = chain_hook(port.on_drop, on_drop)

    def egress_node_on_path(self, path: list[str]) -> str:
        """Where a packet on ``path`` re-enters full fidelity.

        Finds the first contiguous run of region switches on the path
        and returns the node immediately after it.  Raises if the path
        never touches the region (such packets should not have been
        handed to the region's model).
        """
        entered_at = None
        for i, node in enumerate(path):
            if node in self.switches:
                entered_at = i
            elif entered_at is not None:
                return node
        if entered_at is not None:
            raise ValueError(f"path {path} ends inside region {self.name!r}")
        raise ValueError(f"path {path} never enters region {self.name!r}")
