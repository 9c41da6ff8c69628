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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.des.monitors import Monitor
from repro.net.network import Network
from repro.net.tcp.receiver import TcpReceiver
from repro.net.tcp.sender import TcpSender
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.distributions import EmpiricalSizeDistribution
from repro.traffic.matrix import TrafficMatrix

if TYPE_CHECKING:
    from repro.flowsim.simulator import FlowSpec


#: Transport ports of pre-registered flows: a :class:`FlowSpec` without
#: a ``src_port`` gets ``FLOW_PORT_BASE + flow_id`` — the base of
#: :meth:`~repro.net.host.Host.allocate_port`'s per-host counter.
FLOW_PORT_BASE = 10_000
FLOW_DST_PORT = 80


@dataclass
class FlowRecord:
    """Bookkeeping for one generated flow.

    ``flow_id`` is the launch-order index — the identity shared by the
    flight recorder, the PDES flow schedule, and the cascade's
    scoring-window flow lists (``-1`` only for hand-built records).
    """

    src: str
    dst: str
    size_bytes: int
    start_time: float
    completion_time: Optional[float] = None
    flow_id: int = -1

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
        Optional hook ``(src, dst, size_bytes) -> bool`` consulted for
        every flow the filter keeps.  Returning True claims the flow
        for an external engine (the cascade's fluid tier); it is
        counted in ``flows_diverted`` and no packet flow is opened.
        Returning False leaves the flow on the packet path.  The hook
        runs *after* all randomness is drawn, so diverting flows never
        perturbs the seeded workload.
    max_flows:
        Stop generating after this many arrivals (None = unbounded).
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`.  Every
        launched flow gets a ``flow.admit`` record (and a registered
        ``(src, src_port)`` lookup key so hot paths can attribute its
        packets) plus a ``flow.complete`` record with its FCT.  The
        flow id is the launch-order index — the same identity the PDES
        flow schedule uses.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        matrix: TrafficMatrix,
        sizes: EmpiricalSizeDistribution,
        arrivals: PoissonArrivals,
        flow_filter: Optional[Callable[[str, str], bool]] = None,
        flow_dispatch: Optional[Callable[[str, str, int], bool]] = None,
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

        self.fct_monitor = Monitor("fct")
        self.flows: list[FlowRecord] = []
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_elided = 0
        self.flows_diverted = 0
        self._arrival_rng = sim.rng.stream("traffic.arrivals")
        self._pair_rng = sim.rng.stream("traffic.pairs")
        self._size_rng = sim.rng.stream("traffic.sizes")
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
        if self.flow_filter is not None and not self.flow_filter(src, dst):
            self.flows_elided += 1
        elif self.flow_dispatch is not None and self.flow_dispatch(
            src, dst, max(size, 1)
        ):
            self.flows_diverted += 1
        else:
            self.launch_flow(src, dst, max(size, 1))
        # Scheduled after the counters update so max_flows is exact;
        # the gap comes from an independent named stream, so ordering
        # relative to the pair/size draws cannot perturb the workload.
        self._schedule_next_arrival()

    def launch_flow(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        src_port: Optional[int] = None,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
    ) -> FlowRecord:
        """Open one packet flow now; returns its record.

        Public so tier adapters can relaunch handed-off flows (with
        their remaining bytes) through the exact same TCP path and
        bookkeeping as generated flows.  ``src_port`` pins the source
        port (tier handoffs reuse the port reserved at diversion time
        so the packet flow hashes onto the path the fluid tier already
        charged); ``on_complete`` is a per-flow completion tap invoked
        after the shared bookkeeping (collective chunk gating uses it).
        """
        flow_id = len(self.flows)
        record = FlowRecord(
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            start_time=self.now,
            flow_id=flow_id,
        )
        self.flows.append(record)
        self.flows_started += 1
        src_host = self.network.host(src)
        dst_host = self.network.host(dst)
        trace = None
        if self._tracer is not None:
            trace = self._tracer.trace_for_flow(flow_id)

        flow_tap = on_complete

        def handle_complete(fct: float, record: FlowRecord = record, trace=trace) -> None:
            record.completion_time = self.now
            self.flows_completed += 1
            self.fct_monitor.record(fct)
            if trace is not None:
                self._tracer.event(
                    "flow.complete", trace=trace, fct=fct, size=record.size_bytes
                )
            if self.on_flow_complete is not None:
                self.on_flow_complete(record)
            if flow_tap is not None:
                flow_tap(record)

        sender = src_host.open_flow(
            dst_host, size_bytes, on_complete=handle_complete, src_port=src_port
        )
        if trace is not None:
            self._tracer.register_flow(flow_id, key=(src, sender.src_port))
            self._tracer.event(
                "flow.admit", trace=trace, src=src, dst=dst, size=size_bytes
            )
        sender.start()
        return record

    # ------------------------------------------------------------------
    @property
    def flows_in_flight(self) -> int:
        """Flows started but not yet completed."""
        return self.flows_started - self.flows_completed

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
            src_port = flow.src_port or FLOW_PORT_BASE + flow.flow_id
            trace = None
            if tracer is not None:
                trace = tracer.register_flow(flow.flow_id, key=(flow.src, src_port))
            dst_host = hosts.get(flow.dst)
            if dst_host is not None:
                dst_host.register_receiver(
                    TcpReceiver(
                        host=dst_host,
                        peer=flow.src,
                        src_port=FLOW_DST_PORT,
                        dst_port=src_port,
                        config=tcp,
                    )
                )
            src_host = hosts.get(flow.src)
            if src_host is None:
                continue
            sender = TcpSender(
                host=src_host,
                dst=flow.dst,
                src_port=src_port,
                dst_port=FLOW_DST_PORT,
                total_bytes=flow.size_bytes,
                config=tcp,
                on_complete=self._completion_tap(flow, trace),
                rtt_monitor=src_host.rtt_monitor,
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
