"""Per-packet feature extraction for the micro models.

Section 4.2 lists the features: "the origin and destination servers;
the ToR, Cluster, and Core switches that the packet would pass through
in the cluster replaced by approximation; the time since the last
packet arrived at the model; a moving average of these times; and
finally, the current macro state of the cluster" — all computable
"directly from the packet header information, simulation time, and
knowledge of routing strategy."

The extractor is *stateful* (inter-arrival clocks per direction) and
shared verbatim between trace collection and hybrid inference so the
two phases can never drift apart on feature semantics.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from repro.core.macro import MacroState
from repro.core.region import Region
from repro.net.packet import Packet
from repro.topology.graph import NodeRole, Topology
from repro.topology.routing import EcmpRouting

#: Documented order of the feature vector produced by the extractor.
FEATURE_NAMES: tuple[str, ...] = (
    "src_cluster",
    "src_tor",
    "src_slot",
    "dst_cluster",
    "dst_tor",
    "dst_slot",
    "path_tor_in",
    "path_agg",
    "path_core",
    "path_tor_out",
    "has_core_hop",
    "gap_log_us",
    "gap_ema_log_us",
    "size_frac",
    "is_ack",
    "is_retransmission",
    "direction_ingress",
    "macro_minimal",
    "macro_increasing",
    "macro_high",
    "macro_decreasing",
)

FEATURE_COUNT = len(FEATURE_NAMES)
_DIRECTION_FLAG = FEATURE_NAMES.index("direction_ingress")
_MACRO_BASE = FEATURE_NAMES.index("macro_minimal")


class Direction(Enum):
    """Which micro model handles a packet (paper trains one per
    direction because "the distribution of flows in either direction
    can differ significantly")."""

    INGRESS = "ingress"  # destination server lives inside the cluster
    EGRESS = "egress"  # destination is outside: packet exits via core


class _DirectionClock:
    """Inter-arrival state for one direction of one cluster."""

    __slots__ = ("last_arrival", "gap_ema")

    def __init__(self) -> None:
        self.last_arrival: Optional[float] = None
        self.gap_ema: Optional[float] = None


class FlowTemplate:
    """What one extractor knows about one flow tuple.

    Attributes
    ----------
    row:
        A read-only feature vector with everything the flow tuple
        fixes — features 0-10 and the direction flag — filled in and
        0.0 at every per-packet position.
    direction:
        The flow's own direction at this region.
    egress:
        Free slot for the extractor's owner (the approximated cluster
        keeps the flow's egress target here): per-flow state that, like
        ``row``, is derived from routing and must not outlive it.
    """

    __slots__ = ("row", "direction", "egress")

    def __init__(self, row: np.ndarray, direction: Direction) -> None:
        self.row = row
        self.direction = direction
        self.egress = None


class ServerIndex:
    """Every server's coordinates and the scales that normalize them.

    One scan of a topology's servers; a world builds it once and hands
    it to each of its extractors, which only read it.

    Attributes
    ----------
    info:
        Server name -> (cluster index, ToR index, slot).
    max_tor, max_slot, max_agg:
        One past the largest ToR, slot and Cluster-switch index.
    num_cores, num_clusters:
        Core switch and cluster counts (at least 1).
    """

    __slots__ = ("info", "max_tor", "max_slot", "max_agg", "num_cores", "num_clusters")

    def __init__(self, topology: Topology) -> None:
        self.info: dict[str, tuple[int, int, int]] = {}
        max_tor = 1
        max_slot = 1
        for server in topology.servers():
            tor_name = next(
                nbr
                for nbr in topology.neighbors(server.name)
                if topology.node(nbr).role is NodeRole.TOR
            )
            tor_index = topology.node(tor_name).index
            slot = server.index
            cluster_index = server.cluster if server.cluster is not None else 0
            self.info[server.name] = (cluster_index, tor_index, slot)
            max_tor = max(max_tor, tor_index + 1)
            max_slot = max(max_slot, slot + 1)
        self.max_tor = max_tor
        self.max_slot = max_slot
        aggs = topology.nodes_with_role(NodeRole.CLUSTER)
        self.max_agg = max((node.index + 1 for node in aggs), default=1)
        self.num_cores = max(len(topology.nodes_with_role(NodeRole.CORE)), 1)
        self.num_clusters = max(len(topology.cluster_ids()), 1)


class RegionFeatureExtractor:
    """Feature computation for one approximated cluster.

    Everything about a packet that is fixed by its flow tuple — the six
    endpoint coordinates, the five routing features and the direction
    flag — is computed once per flow into a :class:`FlowTemplate`; per
    packet the extractor copies that row and stores only what changes
    (gap, gap EMA, size, ACK / retransmission flags, macro state).
    Templates are derived from routing, so they are dropped whenever
    ``routing.table_rebuilds`` moves (a link failed or recovered).

    Parameters
    ----------
    topology:
        The *full* topology (routing knowledge of the replaced fabric
        is explicitly allowed as a model input).
    routing:
        ECMP tables over the full topology.
    region:
        The approximated region this extractor describes — a
        :class:`~repro.core.region.Region`, or a bare cluster index as
        shorthand for ``Region.cluster(topology, index)``.
    ema_alpha:
        Smoothing for the inter-arrival moving average.
    servers:
        The topology's :class:`ServerIndex`; every extractor of one
        world shares one (built here when omitted).
    """

    def __init__(
        self,
        topology: Topology,
        routing: EcmpRouting,
        region: Region | int,
        ema_alpha: float = 0.1,
        servers: Optional[ServerIndex] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing
        if isinstance(region, int):
            region = Region.cluster(topology, region)
        self.region = region
        self.ema_alpha = ema_alpha

        self.servers = servers if servers is not None else ServerIndex(topology)
        self._ingress_clock = _DirectionClock()
        self._egress_clock = _DirectionClock()
        #: Valid for the routing tables of ``_routing_epoch`` only.
        self._flows: dict[tuple[str, str, int, int], FlowTemplate] = {}
        self._routing_epoch = routing.table_rebuilds

    # ------------------------------------------------------------------
    def direction_of(self, packet: Packet) -> Direction:
        """INGRESS if the packet terminates behind this region."""
        if self.region.is_shadow_server(packet.dst):
            return Direction.INGRESS
        return Direction.EGRESS

    def _path_features(self, packet: Packet) -> tuple[float, float, float, float, float]:
        """Normalized indices of the region switches on the ECMP path.

        Returns (tor_in, agg, core, tor_out, has_core) where absent
        hops are encoded as 0 with ``has_core`` flagging core usage.
        """
        path = self.routing.path(packet.src, packet.dst, packet.flow_hash())
        servers = self.servers
        tor_in = agg = core = tor_out = 0.0
        has_core = 0.0
        seen_tor = False
        for name in path:
            node = self.topology.node(name)
            if node.role is NodeRole.CORE:
                core = (node.index + 1) / servers.num_cores
                has_core = 1.0
            elif self.region.contains_switch(name):
                if node.role is NodeRole.TOR:
                    value = (node.index + 1) / servers.max_tor
                    if not seen_tor:
                        tor_in = value
                        seen_tor = True
                    else:
                        tor_out = value
                elif node.role is NodeRole.CLUSTER:
                    agg = (node.index + 1) / servers.max_agg
        return (tor_in, agg, core, tor_out, has_core)

    def flow(self, packet: Packet) -> FlowTemplate:
        """The (cached) template of the packet's flow under current routing."""
        if self._routing_epoch != self.routing.table_rebuilds:
            self._flows.clear()
            self._routing_epoch = self.routing.table_rebuilds
        key = packet.flow_tuple
        flow = self._flows.get(key)
        if flow is not None:
            return flow
        servers = self.servers
        src_cluster, src_tor, src_slot = servers.info[packet.src]
        dst_cluster, dst_tor, dst_slot = servers.info[packet.dst]
        direction = self.direction_of(packet)
        row = np.zeros(FEATURE_COUNT)
        row[0] = (src_cluster + 1) / servers.num_clusters
        row[1] = (src_tor + 1) / servers.max_tor
        row[2] = (src_slot + 1) / servers.max_slot
        row[3] = (dst_cluster + 1) / servers.num_clusters
        row[4] = (dst_tor + 1) / servers.max_tor
        row[5] = (dst_slot + 1) / servers.max_slot
        row[6:11] = self._path_features(packet)
        row[_DIRECTION_FLAG] = 1.0 if direction is Direction.INGRESS else 0.0
        row.flags.writeable = False
        flow = self._flows[key] = FlowTemplate(row, direction)
        return flow

    def extract_into(
        self,
        out: np.ndarray,
        packet: Packet,
        now: float,
        macro_index: int,
        direction: Optional[Direction] = None,
    ) -> FlowTemplate:
        """Write the feature vector of a packet arriving at ``now`` to ``out``.

        ``out`` is any writable float vector of length
        :data:`FEATURE_COUNT` — the hybrid hot path passes an inference
        engine's input buffer, so features land where the model reads
        them.  ``macro_index`` is the macro state's zero-based index
        (``state - 1``).  Advances the direction's inter-arrival clock
        as a side effect (each packet *is* an arrival).  A caller that
        handles the packet under the other direction's model (a bundle
        trained on one direction only) passes that ``direction``; its
        clock and flag are then used.  Returns the flow's template, so
        the caller's own per-flow state costs no second lookup.
        """
        flow = self.flow(packet)
        out[...] = flow.row
        if direction is None:
            direction = flow.direction
        elif direction is not flow.direction:
            out[_DIRECTION_FLAG] = 1.0 if direction is Direction.INGRESS else 0.0
        clock = (
            self._ingress_clock
            if direction is Direction.INGRESS
            else self._egress_clock
        )
        last = clock.last_arrival
        clock.last_arrival = now
        if last is not None:
            # On a first arrival both gap features stay at the row's
            # 0.0: that gap is a "no previous packet" sentinel, not a
            # real inter-arrival time — it must not seed the moving
            # average, or the EMA starts biased low for the whole warm-up.
            gap = now - last
            ema = clock.gap_ema
            if ema is None:
                ema = gap
            else:
                ema += self.ema_alpha * (gap - ema)
            clock.gap_ema = ema
            # Time gaps compressed to a well-scaled feature:
            # log1p(microseconds), negative gaps clamped to 0.
            out[11] = math.log1p((0.0 if 0.0 > gap else gap) * 1e6)
            out[12] = math.log1p((0.0 if 0.0 > ema else ema) * 1e6)
        out[13] = packet.size_bytes / 1500.0
        if packet.payload_bytes == 0:
            out[14] = 1.0  # pure ACK
        if packet.retransmission:
            out[15] = 1.0
        out[_MACRO_BASE + macro_index] = 1.0
        return flow

    def extract(
        self,
        packet: Packet,
        now: float,
        macro_state: MacroState,
        direction: Optional[Direction] = None,
    ) -> np.ndarray:
        """:meth:`extract_into` a fresh vector (training, evaluation and
        batched inference, which all keep the vectors they are given)."""
        features = np.empty(FEATURE_COUNT)
        self.extract_into(features, packet, now, macro_state - 1, direction)
        return features
