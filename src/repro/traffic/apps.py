"""The application layer: flow generation over live TCP.

:class:`TrafficGenerator` is the DES entity that drives load: it
samples flow arrivals from a Poisson process, picks endpoints from a
traffic matrix and sizes from an empirical distribution, opens TCP
flows, and records flow completion times.

``flow_filter`` is the hook the hybrid simulator uses to elide traffic
whose endpoints are both inside approximated clusters — the paper's
second source of speedup: "traffic between servers in approximated
clusters is entirely omitted from the flow schedule" (Section 6.2).
Elided flows are still *counted* so experiments can report how much
work was skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.flowsim.simulator import FlowSpec
from repro.net.host import host_shims
from repro.net.network import Network
from repro.net.tcp.receiver import TcpReceiver
from repro.net.tcp.sender import TcpSender
from repro.topology.graph import Topology
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.distributions import EmpiricalSizeDistribution
from repro.traffic.matrix import TrafficMatrix


@dataclass
class FlowRecord:
    """Bookkeeping for one launched packet flow.

    ``flow_id`` is the generator's arrival index, not its launch index:
    every arrival (and collective launch) is numbered once, elided and
    diverted ones included, so a flow has the same id, trace id and
    ``src_port`` in DES, the elided hybrid, the cascade and a pre-drawn
    schedule (``-1`` only for hand-built records).
    """

    src: str
    dst: str
    size_bytes: int
    start_time: float
    completion_time: Optional[float] = None
    flow_id: int = -1
    src_port: int = -1

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time, or None while in flight."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time


class TrafficGenerator(Entity):
    """Poisson open-loop flow generator.

    Parameters
    ----------
    sim, network:
        The simulation and the network to load.
    matrix:
        Endpoint selection policy.
    sizes:
        Flow-size distribution.
    arrivals:
        Network-wide arrival process.
    flow_filter:
        Optional predicate ``(src, dst) -> bool``; flows for which it
        returns False are skipped (but counted in ``flows_elided``).
    flow_dispatch:
        Optional hook ``(FlowSpec) -> bool`` consulted with every
        arrival the filter keeps, already numbered (:meth:`number_flow`).
        Returning True claims the flow for an external engine (the
        cascade's fluid tier); it is counted in ``flows_diverted`` and
        no packet flow is opened.  Returning False leaves the flow on
        the packet path.  The hook runs *after* all randomness is
        drawn, so diverting flows never perturbs the seeded workload.
    max_flows:
        Stop generating after this many arrivals (None = unbounded).
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`.  Every
        launched flow gets a ``flow.admit`` record (and a registered
        ``(src, src_port)`` lookup key so hot paths can attribute its
        packets) plus a ``flow.complete`` record with its FCT, under
        the trace id of its arrival index.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        matrix: TrafficMatrix,
        sizes: EmpiricalSizeDistribution,
        arrivals: PoissonArrivals,
        flow_filter: Optional[Callable[[str, str], bool]] = None,
        flow_dispatch: Optional[Callable[[FlowSpec], bool]] = None,
        max_flows: Optional[int] = None,
        tracer=None,
    ) -> None:
        super().__init__(sim, "traffic-generator")
        self.network = network
        self.matrix = matrix
        self.sizes = sizes
        self.arrivals = arrivals
        self.flow_filter = flow_filter
        self.flow_dispatch = flow_dispatch
        self.max_flows = max_flows
        self._tracer = tracer
        #: Optional tap called with the :class:`FlowRecord` of every
        #: completed packet flow (the cascade's FCT windows).
        self.on_flow_complete: Optional[Callable[[FlowRecord], None]] = None
        #: The collective workload launching flows through this
        #: generator, when the experiment configured one (set by
        #: :func:`repro.core.pipeline.make_generator`).
        self.collective = None

        self.flows: list[FlowRecord] = []
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_elided = 0
        self.flows_diverted = 0
        self._arrival_rng = sim.rng.stream("traffic.arrivals")
        self._pair_rng = sim.rng.stream("traffic.pairs")
        self._size_rng = sim.rng.stream("traffic.sizes")
        self._flow_ids = itertools.count()
        self._started = False

    def start(self) -> None:
        """Arm the first arrival (idempotent)."""
        if not self._started:
            self._started = True
            self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self.max_flows is not None:
            # Diverted flows count against the cap too: a flow claimed
            # by the fluid tier is still one arrival, and omitting it
            # made cascade runs overshoot the requested flow count.
            generated = self.flows_started + self.flows_elided + self.flows_diverted
            if generated >= self.max_flows:
                return
        gap = self.arrivals.next_gap(self._arrival_rng)
        self.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        # Draw all randomness unconditionally so that the workload is
        # IDENTICAL whether or not flows get elided — a requirement for
        # fair full-vs-hybrid comparisons (same seed, same flows).
        src, dst = self.matrix.sample_pair(self._pair_rng)
        size = int(self.sizes.sample(self._size_rng))
        # Numbered before the filter and the hook, so an elided or
        # diverted arrival takes the id and port DES launches it with.
        flow = self.number_flow(src, dst, max(size, 1))
        if self.flow_filter is not None and not self.flow_filter(src, dst):
            self.flows_elided += 1
        elif self.flow_dispatch is not None and self.flow_dispatch(flow):
            self.flows_diverted += 1
        else:
            self.launch_flow(flow)
        # Scheduled after the counters update so max_flows is exact;
        # the gap comes from an independent named stream, so ordering
        # relative to the pair/size draws cannot perturb the workload.
        self._schedule_next_arrival()

    def number_flow(self, src: str, dst: str, size_bytes: int) -> FlowSpec:
        """A new flow's identity, assigned once whatever carries it: the
        next id of the counter every arrival and collective launch
        shares, and its source host's next port."""
        port = self.network.host(src).allocate_port()
        return FlowSpec(next(self._flow_ids), src, dst, size_bytes, self.now, port)

    def launch_flow(
        self, flow: FlowSpec, on_complete: Optional[Callable[[FlowRecord], None]] = None
    ) -> FlowRecord:
        """Open ``flow`` (from :meth:`number_flow`) as a packet flow now;
        returns its record.

        Public so tier adapters can relaunch a handed-off flow (its
        remaining bytes, under its own id and port, so it hashes onto
        the path the fluid tier charged) through the exact same TCP
        path and bookkeeping as generated flows.  ``on_complete`` is a
        per-flow completion tap invoked after the shared bookkeeping
        (collective chunk gating uses it).
        """
        record = FlowRecord(
            src=flow.src,
            dst=flow.dst,
            size_bytes=flow.size_bytes,
            start_time=self.now,
            flow_id=flow.flow_id,
            src_port=flow.src_port,
        )
        self.flows.append(record)
        self.flows_started += 1
        src_host = self.network.host(flow.src)
        dst_host = self.network.host(flow.dst)
        trace = None
        if self._tracer is not None:
            trace = self._tracer.trace_for_flow(flow.flow_id)

        flow_tap = on_complete

        def handle_complete(fct: float, record: FlowRecord = record, trace=trace) -> None:
            record.completion_time = self.now
            self.flows_completed += 1
            if trace is not None:
                self._tracer.event(
                    "flow.complete", trace=trace, fct=fct, size=record.size_bytes
                )
            if self.on_flow_complete is not None:
                self.on_flow_complete(record)
            if flow_tap is not None:
                flow_tap(record)

        sender = src_host.open_flow(
            dst_host,
            flow.size_bytes,
            on_complete=handle_complete,
            src_port=flow.src_port,
        )
        if trace is not None:
            self._tracer.register_flow(flow.flow_id, key=(flow.src, flow.src_port))
            self._tracer.event(
                "flow.admit",
                trace=trace,
                src=flow.src,
                dst=flow.dst,
                size=flow.size_bytes,
            )
        sender.start()
        return record

    # ------------------------------------------------------------------
    def completed_fcts(self) -> list[float]:
        """FCTs of all completed flows (seconds)."""
        return [r.fct for r in self.flows if r.fct is not None]

    def goodput_bytes(self) -> int:
        """Total bytes of completed flows."""
        return sum(r.size_bytes for r in self.flows if r.completion_time is not None)


class ScheduledFlows:
    """A pre-drawn flow schedule with TCP endpoints registered up front.

    The traffic source of worlds whose flows are known before the run:
    PDES workers own disjoint partitions and cannot call
    :meth:`~repro.net.host.Host.open_flow` across processes, so each
    registers the endpoints it owns (``network.hosts`` holds exactly
    those) under demux keys every worker agrees on.  Exposes the
    counters :class:`TrafficGenerator` does, so results are built the
    same way from either.

    With a ``tracer``, every flow's ``(src, src_port)`` key is
    registered — a packet can cross a cluster model on a worker that
    owns neither endpoint, and attribution must still find its trace
    id — and locally sent flows get ``flow.admit``/``flow.complete``.
    """

    collective = None
    flows_elided = 0

    def __init__(
        self, sim: Simulator, network: Network, flows: Sequence[FlowSpec], tracer=None
    ) -> None:
        self.sim = sim
        self.network = network
        self.flows = flows
        self._tracer = tracer
        self.flows_started = 0
        self.flows_completed = 0
        self._fcts: list[float] = []

    def start(self) -> None:
        """Register the owned endpoints and arm every local sender."""
        topology = self.network.topology
        hosts = self.network.hosts
        tcp = self.network.config.tcp
        tracer = self._tracer
        for flow in self.flows:
            if flow.src not in topology or flow.dst not in topology:
                raise ValueError(
                    f"flow {flow.flow_id}: {flow.src!r} -> {flow.dst!r} names a "
                    f"host that is not in topology {topology.name!r}"
                )
            trace = None
            if tracer is not None:
                trace = tracer.register_flow(
                    flow.flow_id, key=(flow.src, flow.src_port)
                )
            dst_host = hosts.get(flow.dst)
            if dst_host is not None:
                dst_host.register_receiver(
                    TcpReceiver(
                        host=dst_host,
                        peer=flow.src,
                        src_port=flow.dst_port,
                        dst_port=flow.src_port,
                        config=tcp,
                    )
                )
            src_host = hosts.get(flow.src)
            if src_host is None:
                continue
            sender = TcpSender(
                host=src_host,
                dst=flow.dst,
                src_port=flow.src_port,
                dst_port=flow.dst_port,
                total_bytes=flow.size_bytes,
                config=tcp,
                on_complete=self._completion_tap(flow, trace),
                rtt_samples=src_host.rtt_samples,
            )
            src_host.register_sender(sender)
            self.flows_started += 1
            if tracer is not None:
                tracer.event(
                    "flow.admit",
                    trace=trace,
                    t=flow.start_time,
                    src=flow.src,
                    dst=flow.dst,
                    size=flow.size_bytes,
                )
            self.sim.schedule_at(flow.start_time, sender.start)

    def _completion_tap(self, flow: FlowSpec, trace) -> Callable[[float], None]:
        def on_complete(fct: float) -> None:
            self.flows_completed += 1
            self._fcts.append(fct)
            if trace is not None:
                self._tracer.event(
                    "flow.complete", trace=trace, fct=fct, size=flow.size_bytes
                )

        return on_complete

    def completed_fcts(self) -> list[float]:
        """FCTs of locally sent flows, in completion order."""
        return self._fcts


# ----------------------------------------------------------------------
# Pre-drawing a schedule from the live generator
# ----------------------------------------------------------------------
class FlowSchedule(list):
    """A pre-drawn flow schedule: a list of :class:`FlowSpec` that also
    counts the arrivals remote-traffic elision dropped (``elided``) —
    flows no PDES worker sees, so only the coordinator can report them."""

    elided = 0


def draw_flow_schedule(
    topology: Topology,
    seed: int,
    duration_s: float,
    build: Callable[[Simulator, Network], TrafficGenerator],
) -> FlowSchedule:
    """Pre-draw the flows the live generator launches in ``duration_s``.

    ``build(sim, network)`` makes the :class:`TrafficGenerator` a live
    run would make; it runs here against a network that is only its
    topology and a port counter per host
    (:func:`~repro.net.host.host_shims`; enough to calibrate load and
    number flows, no flow is ever opened), on a simulator seeded like
    the live one, with a ``flow_dispatch`` hook that appends every
    numbered arrival its filter keeps.  Named RNG streams make every
    flow's (src, dst, size, start) bit-identical to the live run's,
    and the generator numbers its id and ``src_port`` as the live one
    does, so every engine gives it DES's identity and ECMP path;
    ``elided`` equals the live ``flows_elided``.
    """
    sim = Simulator(seed=seed)
    flows = FlowSchedule()

    def dispatch(flow: FlowSpec) -> bool:
        flows.append(flow)
        return True

    network = SimpleNamespace(topology=topology, host=host_shims().__getitem__)
    generator = build(sim, network)
    generator.flow_dispatch = dispatch
    generator.start()
    sim.run(until=duration_s)
    flows.elided = generator.flows_elided
    return flows
