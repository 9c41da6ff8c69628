"""Graph representation of a network.

A :class:`Topology` is a set of named :class:`Node` objects joined by
bidirectional :class:`Link` records (each direction gets its own queue
and serialization in the packet simulator, but capacity/delay are
symmetric).  Nodes carry a :class:`NodeRole` and an optional cluster
index, because both the paper's approximation boundary and the PDES
partitioner are defined in terms of layers and clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional


class NodeRole(str, Enum):
    """Layer of the Clos/leaf-spine hierarchy a node belongs to."""

    SERVER = "server"
    TOR = "tor"
    CLUSTER = "cluster"  # a.k.a. aggregation switch
    CORE = "core"

    @property
    def is_switch(self) -> bool:
        """True for ToR/Cluster/Core nodes."""
        return self is not NodeRole.SERVER


@dataclass(frozen=True)
class Node:
    """A device in the topology.

    Attributes
    ----------
    name:
        Globally unique identifier.
    role:
        Hierarchy layer.
    cluster:
        Cluster index for nodes inside a cluster; None for core
        switches (which the paper always simulates in full fidelity)
        and for leaf-spine topologies, which have no cluster notion.
    index:
        Position within (role, cluster), for stable feature encodings.
    """

    name: str
    role: NodeRole
    cluster: Optional[int] = None
    index: int = 0


@dataclass(frozen=True)
class Link:
    """A bidirectional link between two nodes.

    Attributes
    ----------
    a, b:
        Endpoint names (ordering is arbitrary but stable).
    rate_bps:
        Capacity in bits per second (e.g. 10e9 for 10 GbE).
    delay_s:
        One-way propagation delay in seconds.
    """

    a: str
    b: str
    rate_bps: float
    delay_s: float

    def other(self, name: str) -> str:
        """The endpoint that is not ``name``."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ValueError(f"{name!r} is not an endpoint of link {self.a!r}-{self.b!r}")


@dataclass
class Topology:
    """A named collection of nodes and links with adjacency queries."""

    name: str = "topology"
    _nodes: dict[str, Node] = field(default_factory=dict)
    _links: list[Link] = field(default_factory=list)
    _adjacency: dict[str, dict[str, Link]] = field(default_factory=dict)
    #: Cluster index (``None`` included) -> its nodes, in insertion order.
    _clusters: dict[Optional[int], list[Node]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node; duplicate names are an error."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency[node.name] = {}
        self._clusters.setdefault(node.cluster, []).append(node)
        return node

    def add_link(self, a: str, b: str, rate_bps: float, delay_s: float) -> Link:
        """Connect two existing nodes; parallel links are an error."""
        for name in (a, b):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        if b in self._adjacency[a]:
            raise ValueError(f"duplicate link {a!r}-{b!r}")
        link = Link(a=a, b=b, rate_bps=rate_bps, delay_s=delay_s)
        self._links.append(link)
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        return link

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> Iterator[Node]:
        """All nodes in insertion order."""
        return iter(self._nodes.values())

    @property
    def links(self) -> Iterator[Link]:
        """All links in insertion order."""
        return iter(self._links)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        """Number of links."""
        return len(self._links)

    def neighbors(self, name: str) -> list[str]:
        """Names adjacent to ``name``, in link insertion order."""
        return list(self._adjacency[name].keys())

    def link_between(self, a: str, b: str) -> Link:
        """The link joining ``a`` and ``b``; KeyError if absent."""
        return self._adjacency[a][b]

    def nodes_with_role(self, role: NodeRole) -> list[Node]:
        """All nodes of the given role, in insertion order."""
        return [n for n in self._nodes.values() if n.role is role]

    def servers(self) -> list[Node]:
        """All server nodes."""
        return self.nodes_with_role(NodeRole.SERVER)

    def switches(self) -> list[Node]:
        """All non-server nodes."""
        return [n for n in self._nodes.values() if n.role.is_switch]

    def cluster_nodes(self, cluster: int) -> list[Node]:
        """All nodes assigned to cluster ``cluster``, in insertion order."""
        return list(self._clusters.get(cluster, ()))

    def cluster_ids(self) -> list[int]:
        """Sorted list of distinct cluster indices present."""
        return sorted(c for c in self._clusters if c is not None)

    def validate_connected(self) -> None:
        """Raise ``ValueError`` unless the topology is one component."""
        if not self._nodes:
            return
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        missing = set(self._nodes) - seen
        if missing:
            raise ValueError(f"topology is disconnected; unreachable: {sorted(missing)[:5]}")
