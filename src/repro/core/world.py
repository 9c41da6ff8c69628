"""One world: scenario → :func:`build_world` → :meth:`World.run` → :meth:`World.result`.

Every in-process run path is a caller of this module.  A scenario
(:class:`ExperimentConfig`) plus a *placement* decides what is built:
no trained model keeps every cluster packet-level (full DES); a model
makes :class:`~repro.core.hybrid.HybridSimulation` replace all clusters
but one (hybrid); a ``cascade`` config adds the fluid tier and fidelity
controller on top; a ``shard`` seam owns only part of the topology and
reaches the rest through remote stubs (a PDES worker).  Traffic is the
live seeded generator or, given ``flows``, a pre-drawn schedule.

:meth:`World.run` is the one in-process driver and :meth:`World.result`
the one place a :class:`RunResult` is made; PDES workers call
:meth:`World.finish` after their own window loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.core.features import RegionFeatureExtractor
from repro.core.hybrid import HybridConfig, HybridSimulation, ShardableHybrid
from repro.core.region import Region
from repro.core.training import (
    PacketCrossing,
    RegionTraceCollector,
    TrainedClusterModel,
)
from repro.des.kernel import Simulator
from repro.net.failures import LinkFailure, normalize_failures
from repro.net.network import Network, NetworkConfig
from repro.topology.clos import ClosParams, build_clos
from repro.topology.graph import Topology
from repro.topology.routing import RoutingConfig
from repro.traffic.apps import ScheduledFlows, TrafficGenerator
from repro.traffic.arrivals import PoissonArrivals, arrival_rate_for_load
from repro.traffic.collectives import CollectiveConfig, CollectiveWorkload
from repro.traffic.distributions import EmpiricalSizeDistribution, web_search_sizes
from repro.traffic.matrix import IncastMatrix, PermutationMatrix, TrafficMatrix, UniformMatrix

if TYPE_CHECKING:
    from repro.flowsim.simulator import FlowSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload and topology parameters shared by all pipeline stages.

    Attributes
    ----------
    clos:
        Topology shape (the evaluation's clusters have four switches
        and eight servers — :class:`ClosParams` defaults).
    load:
        Offered load as a fraction of server access capacity.
    duration_s:
        Simulated time window.
    seed:
        Master seed (workload and simulation randomness).
    net:
        Queue and TCP parameters.
    intra_cluster_fraction:
        Optional locality bias of the traffic matrix.
    matrix:
        Endpoint-selection policy: "uniform" (the evaluation default),
        "permutation", or "incast" — the generality ablation (A6)
        trains under one and evaluates under another.
    routing:
        Forwarding policy (ECMP / flowlet / adaptive) and its knobs;
        consumed by every stage's network *and* the fluid path charger.
    failures:
        Deterministic link-failure/recovery events, applied by a
        :class:`~repro.net.failures.FailureInjector` in every stage.
    collective:
        Optional AI-training collective workload running alongside the
        Poisson mice traffic (see :mod:`repro.traffic.collectives`).
    """

    clos: ClosParams = field(default_factory=ClosParams)
    load: float = 0.25
    duration_s: float = 0.02
    seed: int = 1
    net: NetworkConfig = field(default_factory=NetworkConfig)
    intra_cluster_fraction: Optional[float] = None
    matrix: str = "uniform"
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    failures: tuple[LinkFailure, ...] = ()
    collective: Optional[CollectiveConfig] = None

    def __post_init__(self) -> None:
        # Spec files hand these over as plain dicts/lists; normalize so
        # every consumer sees the frozen dataclasses and the run
        # fingerprint stays canonical.
        object.__setattr__(self, "routing", RoutingConfig.from_dict(self.routing))
        object.__setattr__(self, "failures", normalize_failures(self.failures))
        if self.collective is not None:
            object.__setattr__(
                self, "collective", CollectiveConfig.from_dict(self.collective)
            )
        if self.matrix not in ("uniform", "permutation", "incast"):
            raise ValueError(
                f"matrix must be uniform|permutation|incast, got {self.matrix!r}"
            )
        # Sweep schedulers build configs from parsed spec files; bad
        # numbers must fail here, not surface as NaNs mid-simulation.
        if not self.load > 0:
            raise ValueError(f"load must be > 0, got {self.load}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def sizes(self) -> EmpiricalSizeDistribution:
        """The flow-size distribution (the paper's web-search trace)."""
        return web_search_sizes()


def per_wallclock_second(amount: float, wallclock_seconds: float) -> float:
    """``amount`` per wall-clock second, for every result type.

    Zero wall-clock (degenerate but reachable: empty workload, a
    mocked clock) yields 0.0, never ``inf`` — results get JSON-
    serialized into manifests and ``inf`` is not valid JSON.
    """
    if wallclock_seconds <= 0:
        return 0.0
    return amount / wallclock_seconds


@dataclass
class RunResult:
    """Measurements from one simulation run (full or hybrid)."""

    sim_seconds: float
    wallclock_seconds: float
    events_executed: int
    flows_started: int
    flows_completed: int
    flows_elided: int
    drops: int
    rtt_samples: list[float]
    fcts: list[float]
    model_packets: int = 0
    model_drops: int = 0
    model_inference_seconds: float = 0.0
    #: Applied link failure/recovery events (manifest-ready dicts).
    failure_events: list[dict] = field(default_factory=list)
    #: Collective workload accounting when one ran (else None).
    collective: Optional[dict] = None

    @property
    def sim_seconds_per_second(self) -> float:
        """Simulated seconds per wall-clock second (Figure 1's metric)."""
        return per_wallclock_second(self.sim_seconds, self.wallclock_seconds)

    @property
    def events_per_second(self) -> float:
        """Executed events per wall-clock second (zero-guarded)."""
        return per_wallclock_second(self.events_executed, self.wallclock_seconds)

    @property
    def inference_share(self) -> float:
        """Fraction of wall-clock spent inside model inference."""
        return per_wallclock_second(
            self.model_inference_seconds, self.wallclock_seconds
        )

    @property
    def model_packets_per_sec(self) -> float:
        """Wall-clock throughput of packets through approximated clusters."""
        return per_wallclock_second(self.model_packets, self.wallclock_seconds)

    def determinism_signature(self) -> str:
        """Byte-comparable canonical form of everything seeded.

        Wall-clock fields are excluded, and so is ``events_executed``
        (metrics probes schedule extra kernel events without touching
        outcomes); same-seed runs of the same scenario (including
        link-failure schedules and collective workloads) must produce
        identical signatures whether or not metrics or tracing were
        enabled.
        """
        payload = {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_elided": self.flows_elided,
            "drops": self.drops,
            "rtts": self.rtt_samples,
            "fcts": self.fcts,
            "model_packets": self.model_packets,
            "model_drops": self.model_drops,
            "failure_events": self.failure_events,
            "collective": self.collective,
        }
        return json.dumps(payload, sort_keys=True)


def make_generator(
    sim: Simulator,
    network: Network,
    config: ExperimentConfig,
    flow_filter=None,
    flow_dispatch=None,
    tracer=None,
) -> TrafficGenerator:
    """Build the load-calibrated traffic generator for an experiment.

    Public so custom experiment drivers can assemble networks manually
    while keeping the exact workload semantics of the pipeline.
    """
    sizes = config.sizes()
    rate = arrival_rate_for_load(
        config.load,
        len(network.topology.servers()),
        next(iter(network.topology.links)).rate_bps,
        sizes.mean(),
    )
    matrix = _make_matrix(sim, network, config)
    generator = TrafficGenerator(
        sim,
        network,
        matrix=matrix,
        sizes=sizes,
        arrivals=PoissonArrivals(rate),
        flow_filter=flow_filter,
        flow_dispatch=flow_dispatch,
        tracer=tracer,
    )
    # The collective workload self-starts at sim time 0 and launches
    # its gated chunk flows through the generator (packet path in
    # every tier); the Poisson arrivals are the background mice.
    if config.collective is not None:
        generator.collective = CollectiveWorkload(sim, generator, config.collective)
    return generator


def _make_matrix(
    sim: Simulator, network: Network, config: ExperimentConfig
) -> TrafficMatrix:
    if config.matrix == "permutation":
        return PermutationMatrix(network.topology, sim.rng.stream("traffic.permutation"))
    if config.matrix == "incast":
        return IncastMatrix(network.topology)
    return UniformMatrix(
        network.topology, intra_cluster_fraction=config.intra_cluster_fraction
    )


@dataclass
class World:
    """One assembled scenario, ready to run."""

    config: ExperimentConfig
    sim: Simulator
    #: The packet / model / remote placement; with no trained model it
    #: has no approximated cluster and *is* full DES.
    hybrid: HybridSimulation
    #: The fluid tier + fidelity controller on top of ``hybrid``, or None.
    cascade: Optional[object]
    #: The live TrafficGenerator, or the pre-drawn ScheduledFlows.
    traffic: Union[TrafficGenerator, ScheduledFlows]
    #: The InvariantChecker watching the kernel and every model, or None.
    invariants: Optional[object] = None
    #: Boundary trace collector and its feature extractor (training
    #: input) when built with ``collect_cluster``.
    collector: Optional[RegionTraceCollector] = None
    extractor: Optional[RegionFeatureExtractor] = None

    @property
    def network(self) -> Network:
        """The live packet network (approximated fabrics excluded)."""
        return self.hybrid.network

    def run(self) -> None:
        """Start traffic, run the kernel to the horizon, close the books."""
        self.traffic.start()
        self.sim.run(until=self.config.duration_s)
        self.finish()

    def finish(self) -> None:
        """The one epilogue: flush → conservation → per-tier accounting.

        Packets still inside the batching window are drained first so
        the result (and the conservation identity) accounts for every
        arrival; a no-op without batching.
        """
        self.hybrid.flush_inference()
        if self.invariants is not None:
            self.invariants.check_conservation(now=self.sim.now)
        if self.cascade is not None:
            self.cascade.finalize(self.config.duration_s)

    def records(self) -> list[PacketCrossing]:
        """The collected boundary trace (empty without a collector)."""
        return self.collector.finalize() if self.collector is not None else []

    def result(self) -> RunResult:
        """Measurements of the finished run."""
        sim, hybrid, traffic = self.sim, self.hybrid, self.traffic
        model_drops = hybrid.model_drops()
        return RunResult(
            sim_seconds=self.config.duration_s,
            wallclock_seconds=sim.wallclock_elapsed,
            events_executed=sim.events_executed,
            flows_started=traffic.flows_started,
            flows_completed=traffic.flows_completed,
            flows_elided=traffic.flows_elided,
            drops=hybrid.network.total_drops + model_drops,
            rtt_samples=hybrid.observed_rtt_samples(),
            fcts=traffic.completed_fcts(),
            model_packets=hybrid.model_packets_handled(),
            model_drops=model_drops,
            model_inference_seconds=hybrid.inference_seconds(),
            failure_events=hybrid.failure_injector.summary(),
            collective=traffic.collective.summary() if traffic.collective else None,
        )


def build_world(
    config: ExperimentConfig,
    trained: Union[
        TrainedClusterModel, Mapping[int, TrainedClusterModel], None
    ] = None,
    hybrid: Optional[HybridConfig] = None,
    cascade=None,
    shard: Optional[ShardableHybrid] = None,
    metrics=None,
    tracer=None,
    invariants=None,
    collect_cluster: Optional[int | Region] = None,
    probe_period_s: Optional[float] = None,
    topology: Optional[Topology] = None,
    flows: Optional[Sequence[FlowSpec]] = None,
) -> World:
    """Assemble the scenario ``config`` under a placement.

    ``trained`` (``None``: every cluster packet-level), ``hybrid``
    (its ``full_cluster`` is also whose RTTs the result reports),
    ``cascade`` (a :class:`~repro.cascade.config.CascadeConfig`, which
    supplies the hybrid options itself) and ``shard`` (a PDES worker's
    ownership seam) are the placement.  ``metrics`` / ``tracer`` /
    ``invariants`` are the RNG-free, outcome-neutral taps; sim-time
    probes tick every ``probe_period_s`` (default ``duration_s / 50``)
    when ``metrics`` is given.  ``collect_cluster`` instruments that
    region's fabric boundary for a training trace.  ``topology``
    replaces ``build_clos(config.clos)`` (PDES workers inherit the
    coordinator's; the Figure 1 engine runs arbitrary graphs) and
    ``flows`` replaces the live generator with a pre-drawn schedule.
    """
    if topology is None:
        topology = build_clos(config.clos)
    sim = Simulator(seed=config.seed)
    if tracer is not None:
        tracer.bind_clock(lambda: sim.now)
    if invariants is not None:
        invariants.attach_simulator(sim)
    assembly = dict(
        net_config=config.net,
        metrics=metrics,
        invariants=invariants,
        tracer=tracer,
        routing_config=config.routing,
        failures=config.failures,
    )
    cascade_sim = None
    if cascade is not None:
        from repro.cascade.simulation import CascadeSimulation

        cascade_sim = CascadeSimulation(
            sim, topology, trained, config=cascade, **assembly
        )
        hybrid_sim = cascade_sim.hybrid
    else:
        hybrid_sim = HybridSimulation(
            sim, topology, trained, config=hybrid, shard=shard, **assembly
        )
    network = hybrid_sim.network

    collector = extractor = None
    if collect_cluster is not None:
        collector = RegionTraceCollector(network, collect_cluster)
        extractor = RegionFeatureExtractor(topology, network.routing, collect_cluster)

    if flows is not None:
        traffic = ScheduledFlows(sim, network, flows, tracer=tracer)
    else:
        elides = hybrid_sim.config.elide_remote_traffic and hybrid_sim.approx_clusters
        traffic = make_generator(
            sim,
            network,
            config,
            flow_filter=hybrid_sim.flow_filter if elides else None,
            tracer=tracer,
        )
        if cascade_sim is not None:
            cascade_sim.attach_generator(traffic)

    # A shard gets no probes: their ticks are kernel events, and every
    # worker would add its own to the merged (signed) event count.
    if metrics is not None and not hybrid_sim.shard.is_sharded:
        from repro.obs import attach_cascade_probes, attach_hybrid_probes, default_period

        period = probe_period_s or default_period(config.duration_s)
        if cascade_sim is not None:
            attach_cascade_probes(metrics, sim, cascade_sim, period)
        else:
            attach_hybrid_probes(metrics, sim, hybrid_sim, period)
    return World(
        config, sim, hybrid_sim, cascade_sim, traffic, invariants, collector, extractor
    )
