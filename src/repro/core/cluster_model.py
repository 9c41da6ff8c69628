"""The approximated cluster: an ML black box standing in for a fabric.

Figure 3 (right): large-scale simulations replace the four switches of
each approximated cluster "with a single black box approximation".
This entity is that box.  Any port wired to a switch of the replaced
cluster delivers here instead; per packet it

1. extracts features (same stateful extractor as training),
2. steps the direction's LSTM (one hidden state per direction,
   carried across the whole simulation — the model's "memory" of the
   cluster's congestion history),
3. decides drop vs. deliver, and for deliveries schedules a single
   egress event after the predicted latency,
4. feeds its own prediction to the macro classifier so the macro-state
   feature evolves as it did during training.

Conflict resolution (Section 4.2): "predicted latency can sometimes
result in impossible schedules if two packets are scheduled for the
same time.  In this case, the one processed first is given priority,
with conflicting packet sent at the next possible time."  We keep the
last scheduled delivery per egress node and push conflicting packets
to one serialization time after it.

Everything the fabric would have done — per-hop queuing, routing,
per-packet forwarding events — is elided; this is where the paper's
event-count savings come from (counted in ``fabric_events_elided``).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable

import numpy as np

from repro.analysis.streaming import StreamingStats
from repro.core.features import (
    FEATURE_COUNT,
    Direction,
    FlowTemplate,
    RegionFeatureExtractor,
)
from repro.core.macro import AutoRegressiveMacroClassifier
from repro.core.region import Region
from repro.core.training import TrainedClusterModel
from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.net.packet import Packet
from repro.topology.graph import Topology
from repro.topology.routing import EcmpRouting

#: Latency floor: one hop of propagation (the shortest region traversal
#: is ToR -> server); the model can never beat physics no matter what
#: the regression head says.
MIN_REGION_LATENCY_S = 1e-6
#: Latency ceiling guard against wild extrapolation early in training.
MAX_REGION_LATENCY_S = 1.0


class _Lane:
    """One direction's model, resolved once at construction.

    ``input`` is where the feature extractor writes: the fused
    ``engine``'s own input buffer, or a plain vector for the reference
    ``predict_step`` path (``engine`` None), whose hidden state is
    ``state``.
    """

    __slots__ = (
        "direction", "bundle", "engine", "input", "state",
        "batch_engine", "batch_row",
    )

    def __init__(self, direction: Direction, bundle, engine) -> None:
        self.direction = direction
        self.bundle = bundle
        self.engine = engine
        if engine is not None:
            self.input, self.state = engine.input, None
        else:
            self.input = np.empty(FEATURE_COUNT)
            self.state = bundle.model.initial_state()
        self.batch_engine = None
        self.batch_row = -1


class _EgressTarget:
    """One node where packets re-enter full-fidelity simulation.

    Built on the first delivery to ``name`` (entities are late-bound:
    the network is constructed after the models) and kept for the run —
    ``last_delivery`` is the conflict-resolution state of Section 4.2.
    Calling the record delivers a packet to the node, so the egress
    event is the record plus the packet as its argument.
    """

    __slots__ = ("name", "entity", "boundary", "rate_bps", "remote", "last_delivery")

    def __init__(self, name: str, entity, boundary: str, rate_bps: float) -> None:
        self.name = name
        self.entity = entity
        #: The region node the packet notionally arrives *from*.
        #: Receivers use it only as the ``from_node`` argument; any
        #: adjacent region node is equivalent because forwarding is
        #: destination-based.
        self.boundary = boundary
        #: Rate of the link the packet would use to leave the region.
        self.rate_bps = rate_bps
        #: PDES shard boundary: the owning worker is remote, and the
        #: message must be captured now (decision time), not when a
        #: local event fires — see repro.pdes.stub.RemoteEntityProxy.
        self.remote = getattr(entity, "schedule_model_delivery", None)
        self.last_delivery = -math.inf

    def __call__(self, packet: Packet) -> None:
        self.entity.receive(packet, self.boundary)


class ApproximatedCluster(Entity):
    """ML approximation of one cluster's fabric.

    Parameters
    ----------
    sim:
        The simulator.
    topology, routing:
        Full-topology structures (routing features need them).
    region:
        What this box replaces — a :class:`~repro.core.region.Region`,
        or a bare cluster index as shorthand for the paper's
        one-cluster unit of approximation.
    trained:
        The model bundle produced by training.
    resolve_entity:
        Callback name -> entity used to deliver egress packets (hosts
        of this cluster and core switches); late-bound because the
        network is constructed after the models.
    rng:
        Random stream for sampling the drop Bernoulli.
    macro_bucket_s:
        Macro classifier bucket (match training for consistency).
    use_fused:
        Run the fused, allocation-free inference engine
        (:mod:`repro.nn.infer`) instead of the reference
        ``predict_step`` path.  Default on; the reference path stays
        available as the oracle and for debugging.
    inference_dtype:
        Engine precision: ``float64`` (default, matches the reference
        to <= 1e-9) or ``float32`` (opt-in speed mode — halves weight
        memory traffic at reduced precision).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  Instrument
        handles are resolved once here, at construction, so the per-
        packet cost is a single ``is not None`` branch when metrics
        are absent or disabled — the hot path never does a registry
        lookup.
    invariants:
        Optional :class:`~repro.validate.InvariantChecker`.  When set,
        every delivery is checked for causality, per-egress FCFS
        monotonicity, and latency bounds (one ``is not None`` branch
        per packet when absent — same contract as ``metrics``).
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`.  Deliveries
        record a ``model.decide`` span (arrival → delivery) and drops a
        ``model.drop`` event, both attributed to the packet's flow
        trace id; invariant findings carry the same id.  Same hot-path
        contract: one ``is not None`` branch per packet when absent.

    Attributes
    ----------
    on_outcome:
        Optional tap ``(now, latency_s_or_None, dropped) -> None``
        fired once per handled packet with the model's decision.  The
        differential fidelity harness collects the hybrid side of its
        latency/drop/macro comparisons through it; ``None`` (default)
        costs one branch per packet.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        routing: EcmpRouting,
        region: Region | int,
        trained: TrainedClusterModel,
        resolve_entity: Callable[[str], object],
        rng: np.random.Generator,
        macro_bucket_s: float = 0.001,
        use_fused: bool = True,
        inference_dtype: str | np.dtype = np.float64,
        metrics=None,
        invariants=None,
        tracer=None,
    ) -> None:
        if isinstance(region, int):
            region = Region.cluster(topology, region)
        super().__init__(sim, f"approx-{region.name}")
        self.topology = topology
        self.routing = routing
        self.region = region
        self.trained = trained
        self.resolve_entity = resolve_entity
        self.rng = rng
        self.use_fused = use_fused

        self.extractor = RegionFeatureExtractor(topology, routing, region)
        self.macro = AutoRegressiveMacroClassifier(
            trained.calibration, bucket_s=macro_bucket_s
        )
        # Compiled weights are cached on (and shared via) the trained
        # bundle; each cluster owns only its per-direction hidden
        # states and scratch.
        compiled = trained.compiled(inference_dtype) if use_fused else None
        lanes = {
            direction: _Lane(
                direction,
                bundle,
                compiled.engine(direction) if compiled is not None else None,
            )
            for direction, bundle in trained.directions.items()
        }
        # A direction unseen in training (possible in tiny traces) is
        # handled by the other direction's model.
        fallback = next(iter(lanes.values()))
        #: Indexed by "the packet terminates behind this region".
        self._lanes = (
            lanes.get(Direction.EGRESS, fallback),
            lanes.get(Direction.INGRESS, fallback),
        )
        self._shadow_servers = region.shadow_servers
        #: Egress node name -> record.  Which record a flow uses follows
        #: routing and is kept on the extractor's per-flow template.
        self._targets: dict[str, _EgressTarget] = {}

        # Statistics.
        self.packets_handled = 0
        self.packets_dropped = 0
        self.packets_delivered = 0
        self.conflicts_resolved = 0
        self.rate_fallbacks = 0  # distinct egress nodes that needed one
        self.inference_seconds = 0.0
        self.latency_stats = StreamingStats()

        #: Per-packet outcome tap (see class docstring).
        self.on_outcome = None
        #: Event-horizon batching (see :mod:`repro.core.batcher`):
        #: ``receive`` hands packets to the batcher instead of running
        #: inference inline.  Wired by :meth:`enable_batching`; the
        #: default costs one ``is not None`` branch per packet.
        self._batcher = None
        self._invariants = invariants
        self._tracer = tracer
        if invariants is not None:
            invariants.watch_cluster(self)

        # Observability handles (resolved once; None == disabled).
        self._m_infer = None
        self._m_latency = None
        self._m_drops = None
        self._m_conflicts = None
        self._m_rate_fallbacks = None
        if metrics is not None and metrics.handles_enabled():
            cluster = self.region.name
            self._m_infer = metrics.histogram(
                "hybrid.inference_seconds", cluster=cluster
            )
            self._m_latency = metrics.histogram(
                "hybrid.predicted_latency_s", cluster=cluster
            )
            self._m_drops = metrics.counter("hybrid.model_drops", cluster=cluster)
            self._m_conflicts = metrics.counter(
                "hybrid.conflicts_resolved", cluster=cluster
            )
            self._m_rate_fallbacks = metrics.counter(
                "hybrid.egress_rate_fallbacks", cluster=cluster
            )
            transitions = metrics.counter("hybrid.macro_transitions", cluster=cluster)
            by_edge = {}

            def on_transition(before, after, _t=transitions, _m=metrics, _b=by_edge, _c=cluster):
                _t.inc()
                edge = _b.get((before, after))
                if edge is None:
                    edge = _b[(before, after)] = _m.counter(
                        "hybrid.macro_transition",
                        cluster=_c,
                        src=before.name,
                        dst=after.name,
                    )
                edge.inc()

            self.macro.on_transition = on_transition

    # ------------------------------------------------------------------
    # Batched-inference wiring (see repro.core.batcher)
    # ------------------------------------------------------------------
    def enable_batching(self, batcher) -> None:
        """Route arriving packets through ``batcher`` instead of inline
        inference.  Requires a batch engine per trained direction (set
        via :meth:`set_batch_engine`) and the fused path."""
        if not self.use_fused:
            raise ValueError(
                f"{self.name}: batched inference requires the fused engine "
                "(use_fused=True)"
            )
        missing = [
            lane.direction for lane in set(self._lanes) if lane.batch_engine is None
        ]
        if missing:
            raise ValueError(f"{self.name}: no batch engine for {missing}")
        self._batcher = batcher
        batcher.register(self)

    def set_batch_engine(self, direction: Direction, engine, row: int) -> None:
        """Assign this cluster's lane in a shared batched engine."""
        lane = self._lanes[direction is Direction.INGRESS]
        lane.batch_engine = engine
        lane.batch_row = row

    def add_inference_time(self, seconds: float) -> None:
        """Attribute a share of a batched inference round to this
        cluster (same accounting the inline path does per packet)."""
        self.inference_seconds += seconds
        if self._m_infer is not None:
            self._m_infer.observe(seconds)

    def batch_prepare(self, packet: Packet, arrival: float):
        """Stage one held packet for a stacked inference round.

        Mirrors :meth:`receive` up to (and excluding) the model step —
        called by the batcher only after this cluster's previous packet
        was finalized, so the extractor clocks and macro state read
        here are exactly what the inline path would have seen.  The
        clock is the packet's *arrival* time, not the flush time.
        """
        self.packets_handled += 1
        lane = self._lanes[packet.dst in self._shadow_servers]
        macro = self.macro
        features = self.extractor.extract(packet, arrival, macro.state, lane.direction)
        return (
            lane.direction, lane.bundle, features, macro.index,
            lane.batch_engine, lane.batch_row,
        )

    def batch_finalize(
        self,
        packet: Packet,
        arrival: float,
        direction: Direction,
        bundle,
        drop_prob: float,
        latency_norm: float,
    ) -> None:
        """Apply one batched model outcome: :meth:`_finalize` with every
        clock read replaced by the packet's arrival time — bit-identical
        bookkeeping to the inline float64 path."""
        flow = self.extractor.flow(packet)
        self._finalize(packet, arrival, bundle, flow, drop_prob, latency_norm, True)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, from_node: str) -> None:
        """Handle one packet crossing into the approximated region."""
        if self._batcher is not None:
            self._batcher.enqueue(self, packet)
            return
        self.packets_handled += 1
        now = self.sim.now
        lane = self._lanes[packet.dst in self._shadow_servers]
        macro_index = self.macro.index
        # Features land in the lane's input buffer — the fused engine's
        # own GEMV input, which it consumes raw (the standardizer is
        # folded into its layer-0 weights).
        flow = self.extractor.extract_into(
            lane.input, packet, now, macro_index, lane.direction
        )
        start = perf_counter()
        if lane.engine is not None:
            drop_prob, latency_norm = lane.engine.step(macro_index)
        else:
            bundle = lane.bundle
            normalized = bundle.feature_standardizer.transform(lane.input)
            drop_prob, latency_norm, lane.state = bundle.model.predict_step(
                normalized, lane.state, macro_index=macro_index
            )
        elapsed = perf_counter() - start
        self.inference_seconds += elapsed
        if self._m_infer is not None:
            self._m_infer.observe(elapsed)
        self._finalize(packet, now, lane.bundle, flow, drop_prob, latency_norm, False)

    def _finalize(
        self,
        packet: Packet,
        now: float,
        bundle,
        flow: FlowTemplate,
        drop_prob: float,
        latency_norm: float,
        batched: bool,
    ) -> None:
        """Apply one model outcome for a packet that arrived at ``now``:
        the drop Bernoulli, the macro observation and outcome tap, then
        conflict resolution and the single egress event."""
        if self.rng.random() < drop_prob:
            self.packets_dropped += 1
            if self._m_drops is not None:
                self._m_drops.inc()
            if self._tracer is not None:
                self._tracer.event(
                    "model.drop",
                    trace=self._tracer.trace_for_packet(packet),
                    t=now,
                    cluster=self.region.name,
                )
            self.macro.observe(now, None, True)
            if self.on_outcome is not None:
                self.on_outcome(now, None, True)
            return

        latency = bundle.latency_from_norm(latency_norm)
        if latency < MIN_REGION_LATENCY_S:
            latency = MIN_REGION_LATENCY_S
        elif latency > MAX_REGION_LATENCY_S:
            latency = MAX_REGION_LATENCY_S
        self.latency_stats.add(latency)
        if self._m_latency is not None:
            self._m_latency.observe(latency)
        self.macro.observe(now, latency)
        if self.on_outcome is not None:
            self.on_outcome(now, latency, False)

        target = flow.egress
        if target is None:
            target = flow.egress = self._egress_target(packet)
        # Conflict resolution: first come, first served — a delivery
        # lands no sooner than one serialization time after the last
        # one scheduled to the same egress node.
        deliver_at = now + latency
        earliest = target.last_delivery + packet.size_bytes * 8.0 / target.rate_bps
        if deliver_at < earliest:
            deliver_at = earliest
            self.conflicts_resolved += 1
            if self._m_conflicts is not None:
                self._m_conflicts.inc()
        target.last_delivery = deliver_at
        self.packets_delivered += 1
        trace = None
        if self._tracer is not None:
            trace = self._tracer.packet_span(
                "model.decide", now, deliver_at, packet,
                self.region.name, target.name, batched,
            )
        if self._invariants is not None:
            self._invariants.check_latency(self.name, now, latency, trace=trace)
            self._invariants.check_delivery(
                self.name, target.name, now, deliver_at, trace=trace
            )
        if target.remote is None:
            self.sim.schedule_at(deliver_at, target, packet)
        else:
            target.remote(deliver_at, packet, target.boundary)

    # ------------------------------------------------------------------
    def _egress_target(self, packet: Packet) -> _EgressTarget:
        """Where the flow's packets re-enter full-fidelity simulation.

        Destination inside the cluster -> its server host.  Otherwise
        -> the core switch on the flow's (deterministic) ECMP path.
        """
        if packet.dst in self._shadow_servers:
            return self._target(packet.dst)
        path = self.routing.path(packet.src, packet.dst, packet.flow_hash())
        return self._target(self.region.egress_node_on_path(path))

    def _target(self, name: str) -> _EgressTarget:
        """The (lazily built) egress record of node ``name``."""
        target = self._targets.get(name)
        if target is not None:
            return target
        boundary, rate = self.name, None
        for neighbor in self.topology.neighbors(name):
            if self.region.contains_switch(neighbor):
                boundary = neighbor
                rate = self.topology.link_between(name, neighbor).rate_bps
                break
        if rate is None:
            # No region-facing link at this egress node.  Fall back to
            # the slowest link actually configured at the target (the
            # bottleneck assumption) instead of a hardcoded 10G, which
            # mis-sized conflict serialization on any other topology;
            # count the hit so divergence here is observable.
            rate = min(
                (
                    self.topology.link_between(name, neighbor).rate_bps
                    for neighbor in self.topology.neighbors(name)
                ),
                default=None,
            )
            if rate is None:
                raise ValueError(
                    f"egress node {name!r} has no links; cannot size "
                    "conflict-resolution serialization"
                )
            self.rate_fallbacks += 1
            if self._m_rate_fallbacks is not None:
                self._m_rate_fallbacks.inc()
        target = self._targets[name] = _EgressTarget(
            name, self.resolve_entity(name), boundary, rate
        )
        return target
