"""ECMP routing tables.

The paper's evaluation uses "TCP New Reno and ECMP" (Section 6).  ECMP
(equal-cost multi-path) forwards each flow over one of the shortest
paths to the destination, chosen by a deterministic hash of the flow
identifier so that all packets of a flow take the same path (avoiding
reordering).

:class:`EcmpRouting` holds, for each (node, destination) pair some
lookup has asked for, the sorted set of next hops that lie on some
shortest path.  A pair is filled on its first lookup from one
distance-only BFS per destination over the switch graph, so a run pays
for the destinations its traffic uses, not for the whole fabric; a host
with one link reuses its switch's distances (see
:meth:`EcmpRouting._fill_hops`).  At forwarding time the next hop is
``nexthops[flow_hash % len(nexthops)]``.

The paper also notes (Section 4.2) that ECMP path choice is
deterministic given the header, which is what lets the approximated
cluster compute "the ToR, Cluster, and Core switches that the packet
would pass through" as model features without simulating the fabric —
:meth:`EcmpRouting.path` provides exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.topology.graph import NodeRole, Topology

#: Multiplier/increment of a splitmix-style integer hash; chosen for
#: good avalanche behaviour on small integers.
_HASH_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=1 << 16)
def name_key(name: str) -> int:
    """Stable small-integer encoding of a node name for hashing.

    Needed because :func:`ecmp_hash` consumes integers and Python's
    ``hash`` of strings is randomized per process.  Cached per name
    (bounded by any topology's node count): every TCP connection
    hashes its endpoints once.
    """
    value = 0
    for ch in name.encode("utf-8"):
        value = (value * 131 + ch) & _MASK64
    return value


def ecmp_hash(*components: int) -> int:
    """Deterministic, platform-stable hash of flow identifier components.

    Python's builtin ``hash`` is randomized per process; this one is
    stable across runs, which determinism of experiments requires.
    """
    state = 0x243F6A8885A308D3
    for component in components:
        state = (state ^ (component & _MASK64)) * _HASH_MULT & _MASK64
        state ^= state >> 31
    return state


class NoRouteError(KeyError):
    """No live route exists between two nodes.

    Subclasses :class:`KeyError` so pre-existing callers that caught the
    bare ``KeyError`` keep working.
    """

    def __init__(self, node: str, dst: str) -> None:
        super().__init__(f"no route from {node!r} to {dst!r}")
        self.node = node
        self.dst = dst

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0]


@dataclass(frozen=True)
class RoutingConfig:
    """Which forwarding policy a scenario uses, and its knobs.

    ``policy`` is one of ``"ecmp"``, ``"flowlet"`` or ``"adaptive"``;
    ``flowlet_gap_s`` is the inter-packet idle gap after which a flowlet
    switch is allowed to re-hash a flow onto a new path.
    """

    policy: str = "ecmp"
    flowlet_gap_s: float = 50e-6

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"expected one of {sorted(ROUTING_POLICIES)}"
            )
        if self.flowlet_gap_s <= 0:
            raise ValueError("flowlet_gap_s must be positive")

    @classmethod
    def from_dict(cls, raw: object) -> "RoutingConfig":
        """Accept ``"flowlet"`` shorthand or ``{"policy": ..., ...}``."""
        if isinstance(raw, RoutingConfig):
            return raw
        if isinstance(raw, str):
            return cls(policy=raw)
        if isinstance(raw, dict):
            unknown = set(raw) - {"policy", "flowlet_gap_s"}
            if unknown:
                raise ValueError(f"unknown routing keys: {sorted(unknown)}")
            return cls(**raw)
        raise TypeError(f"routing must be a policy name or dict, got {type(raw).__name__}")


class EcmpRouting:
    """ECMP next-hop tables for a topology, filled on first lookup.

    Next-hop lists are sorted by node name so the table is independent
    of graph insertion order, and of the order lookups fill it in.

    This class doubles as the ``RoutingPolicy`` seam: subclasses
    override :meth:`select_next_hop` (the per-packet forwarding
    decision) while the table machinery, failure handling
    (:meth:`set_link_state`) and the canonical :meth:`path` query stay
    shared.  ``Switch.receive`` forwards via :meth:`select_next_hop`;
    feature extractors and the flowsim path charger consume
    :meth:`path`, which names the policy's canonical path for a flow.
    """

    #: Policy name surfaced in structured errors and manifests.
    policy = "ecmp"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # _nexthops[dst][node] -> sorted list of neighbor names on
        # shortest paths from node to dst, for each pair a lookup has
        # filled (see _fill_hops); never for a single-link host source.
        self._nexthops: dict[str, dict[str, list[str]]] = {}
        #: dst -> hop count to ``dst`` from every node that reaches it,
        #: over the switch graph; one BFS on the destination's first miss.
        self._distances: dict[str, dict[str, int]] = {}
        #: The live links of every node but a single-link host (the
        #: switch graph the distance BFS runs over).
        self._inner: dict[str, list[str]] = {}
        #: Single-link host -> ``[its switch]``, the host's one next hop
        #: toward every destination its switch reaches.
        self._uplink: dict[str, list[str]] = {}
        #: Links currently failed, as frozensets of the two endpoints.
        self._failed: set[frozenset[str]] = set()
        #: How many times the tables were recomputed after a topology
        #: state change (failure injection observability).
        self.table_rebuilds = 0
        self._rebuild(initial=True)

    # ------------------------------------------------------------------
    # Table construction and link state
    # ------------------------------------------------------------------
    def _rebuild(self, initial: bool = False) -> None:
        """Snapshot the live links and drop every filled entry.

        A server whose one live link goes to a switch lies on no
        shortest path but its own, and every path to or from it runs
        through that link.  So distances are computed only over the
        other nodes (the switches of a fabric), on the graph without
        those hosts, and such a host is resolved through its switch by
        :meth:`_fill_hops`.  Every answer equals that of one BFS per
        node over the whole graph.  No BFS runs here: a pair is filled
        on its first lookup.
        """
        topology = self.topology
        failed = self._failed
        # One adjacency snapshot for all BFS roots: neighbors() builds a
        # fresh list per call.
        adjacency = {}
        for node in topology.nodes:
            name = node.name
            live = topology.neighbors(name)
            if failed:
                live = [
                    neighbor
                    for neighbor in live
                    if frozenset((name, neighbor)) not in failed
                ]
            adjacency[name] = live
        uplink = {}
        for node in topology.nodes:
            live = adjacency[node.name]
            if (
                node.role is NodeRole.SERVER
                and len(live) == 1
                and topology.node(live[0]).role.is_switch
            ):
                uplink[node.name] = live
        self._inner = {
            name: [neighbor for neighbor in neighbors if neighbor not in uplink]
            for name, neighbors in adjacency.items()
            if name not in uplink
        }
        self._uplink = uplink
        self._nexthops = {}
        self._distances = {}
        if not initial:
            self.table_rebuilds += 1

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        """Mark the ``a``–``b`` link up or down and drop the filled tables.

        Returns ``True`` when the state actually changed (and a rebuild
        happened); re-failing a dead link or re-raising a live one is a
        no-op.  Raises :class:`ValueError` when the topology has no such
        link, so failure specs with typos fail loudly at injection time.
        """
        try:
            self.topology.link_between(a, b)
        except KeyError:
            raise ValueError(
                f"no link between {a!r} and {b!r} in topology"
            ) from None
        key = frozenset((a, b))
        if up:
            if key not in self._failed:
                return False
            self._failed.discard(key)
        else:
            if key in self._failed:
                return False
            self._failed.add(key)
        self._rebuild()
        return True

    @property
    def failed_links(self) -> list[tuple[str, str]]:
        """Currently-failed links as sorted endpoint pairs."""
        return sorted(tuple(sorted(key)) for key in self._failed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _fill_distances(self, dst: str) -> Optional[dict[str, int]]:
        """Compute and keep ``dst``'s distance map (``None``: unknown).

        A single-link host destination shares its switch's map: every
        path to it ends with that switch's one hop.
        """
        via = self._uplink.get(dst)
        if via is not None:
            dist = self._distances.get(via[0]) or self._fill_distances(via[0])
        elif dst in self._inner:
            dist = _bfs_distances(dst, self._inner)
        else:
            return None
        self._distances[dst] = dist
        return dist

    def _fill_hops(self, node: str, dst: str) -> list[str]:
        """Slow path of a table miss: fill, store and return the pair.

        ``node``'s next hops toward ``dst`` are its neighbors one hop
        closer in ``dst``'s distance map.  A single-link host source
        forwards to its switch whenever that switch is ``dst`` or
        reaches it, and is never stored.  Any other miss (unknown node
        or destination, ``node == dst``, no live route) is a
        :class:`NoRouteError`.
        """
        dist = self._distances.get(dst) or self._fill_distances(dst)
        if dist is None or node == dst:
            raise NoRouteError(node, dst)
        hops = self._uplink.get(node)
        if hops is not None:
            if hops[0] in dist:
                return hops
            raise NoRouteError(node, dst)
        d = dist.get(node)
        if d is None:  # an unknown node, or one cut off from dst
            raise NoRouteError(node, dst)
        via = self._uplink.get(dst)
        if via is not None and via[0] == node:
            hops = [dst]
        else:
            hops = sorted(
                neighbor for neighbor in self._inner[node]
                if dist.get(neighbor) == d - 1
            )
        self._nexthops.setdefault(dst, {})[node] = hops
        return hops

    def next_hops(self, node: str, dst: str) -> list[str]:
        """All equal-cost next hops from ``node`` toward ``dst``."""
        if node == dst:
            return []
        try:
            return self._nexthops[dst][node]
        except KeyError:
            return self._fill_hops(node, dst)

    def next_hop(self, node: str, dst: str, flow_hash: int) -> str:
        """The ECMP-selected next hop for a flow at ``node``."""
        hops = self.next_hops(node, dst)
        if not hops:
            raise NoRouteError(node, dst)
        return hops[flow_hash % len(hops)]

    def select_next_hop(
        self,
        node: str,
        dst: str,
        flow_hash: int,
        now: float = 0.0,
        port_load: Optional[Callable[[str], int]] = None,
    ) -> str:
        """Per-packet forwarding decision — the ``RoutingPolicy`` seam.

        ECMP ignores time and load, so the base implementation is
        :meth:`next_hop` as one table lookup (it runs at every switch
        hop); subclasses use ``now`` (flowlet gaps) or ``port_load``
        (adaptive load balancing).
        """
        try:
            hops = self._nexthops[dst][node]
        except KeyError:  # a host source, an unknown pair, or node == dst
            hops = self._fill_hops(node, dst)
        return hops[flow_hash % len(hops)]

    def distance(self, src: str, dst: str) -> int:
        """Hop count of the shortest path: that of the canonical :meth:`path`.

        Raises :class:`NoRouteError` when either node is unknown or no
        live route joins them.
        """
        if dst not in self.topology:
            raise NoRouteError(src, dst)
        return len(self.path(src, dst, 0)) - 1

    def path(self, src: str, dst: str, flow_hash: int) -> list[str]:
        """The full ECMP path a flow takes, including both endpoints.

        Deterministic given the flow hash — used by the approximated
        cluster's feature extractor to name the switches a packet
        *would* traverse (paper Section 4.2).
        """
        path = [src]
        current = src
        while current != dst:
            current = self.next_hop(current, dst, flow_hash)
            path.append(current)
            if len(path) > self.topology.node_count:
                raise RuntimeError(f"routing loop from {src!r} to {dst!r}")
        return path


def _bfs_distances(dst: str, adjacency: dict[str, list[str]]) -> dict[str, int]:
    """One BFS from ``dst``: hop count from every node that reaches it."""
    dist: dict[str, int] = {dst: 0}
    queue: deque[str] = deque([dst])
    while queue:
        current = queue.popleft()
        next_d = dist[current] + 1
        for neighbor in adjacency[current]:
            if neighbor not in dist:
                dist[neighbor] = next_d
                queue.append(neighbor)
    return dist


class FlowletRouting(EcmpRouting):
    """Flowlet switching: re-hash a flow after an idle gap.

    A flow's packets follow the ECMP hash until the inter-packet gap at
    a switch exceeds ``gap_s``; the next burst (flowlet) is then salted
    onto a possibly different equal-cost path.  Bursts inside a flowlet
    stay on one path, so reordering is confined to gaps larger than the
    typical RTT (CONGA-style, per the AI-factory blueprint).

    The canonical :meth:`path` (consumed by feature extraction and the
    fluid tier) is the salt-0 path — i.e. the path of the flow's first
    flowlet — which equals the ECMP path by construction.
    """

    policy = "flowlet"

    def __init__(self, topology: Topology, gap_s: float = 50e-6) -> None:
        super().__init__(topology)
        if gap_s <= 0:
            raise ValueError("gap_s must be positive")
        self.gap_s = gap_s
        # (node, flow_hash) -> [last_seen_time, salt]
        self._flowlets: dict[tuple[str, int], list] = {}
        self.flowlet_switches = 0

    def select_next_hop(
        self,
        node: str,
        dst: str,
        flow_hash: int,
        now: float = 0.0,
        port_load: Optional[Callable[[str], int]] = None,
    ) -> str:
        try:
            hops = self._nexthops[dst][node]
        except KeyError:
            hops = self._fill_hops(node, dst)
        state = self._flowlets.get((node, flow_hash))
        if state is None:
            state = [now, 0]
            self._flowlets[(node, flow_hash)] = state
        else:
            if now - state[0] > self.gap_s:
                state[1] += 1
                self.flowlet_switches += 1
            state[0] = now
        salt = state[1]
        live_hash = ecmp_hash(flow_hash, salt) if salt else flow_hash
        return hops[live_hash % len(hops)]


class AdaptiveRouting(EcmpRouting):
    """Per-port-load adaptive routing: pick the least-queued next hop.

    Among the equal-cost next hops, forward onto the one whose output
    port currently holds the fewest queued bytes; ties break by the flow
    hash over the tied subset.  With all queues empty (the canonical /
    zero-load case) every candidate ties, so the decision — and hence
    :meth:`path`, consumed by feature extraction and the fluid tier —
    reduces to the ECMP hash pick.
    """

    policy = "adaptive"

    def select_next_hop(
        self,
        node: str,
        dst: str,
        flow_hash: int,
        now: float = 0.0,
        port_load: Optional[Callable[[str], int]] = None,
    ) -> str:
        try:
            hops = self._nexthops[dst][node]
        except KeyError:
            hops = self._fill_hops(node, dst)
        if port_load is None or len(hops) == 1:
            return hops[flow_hash % len(hops)]
        loads = [port_load(hop) for hop in hops]
        best = min(loads)
        tied = [hop for hop, load in zip(hops, loads) if load == best]
        return tied[flow_hash % len(tied)]


#: Policy name -> constructor accepting ``(topology, config)``.
ROUTING_POLICIES: dict[str, Callable[[Topology, "RoutingConfig"], EcmpRouting]] = {
    "ecmp": lambda topology, config: EcmpRouting(topology),
    "flowlet": lambda topology, config: FlowletRouting(topology, gap_s=config.flowlet_gap_s),
    "adaptive": lambda topology, config: AdaptiveRouting(topology),
}


def make_routing(topology: Topology, config: Optional[RoutingConfig] = None) -> EcmpRouting:
    """Build the routing policy a scenario asked for (default ECMP)."""
    if config is None:
        config = RoutingConfig()
    return ROUTING_POLICIES[config.policy](topology, config)
