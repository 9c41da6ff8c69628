"""The cascade assembly: three engines, one scenario, one clock.

:class:`CascadeSimulation` composes the repo's three fidelity tiers in
a single run:

* the **focal cluster** runs at full packet fidelity inside a
  :class:`~repro.core.hybrid.HybridSimulation` (DES tier — fixed for
  the run, because the packet network binds receivers at
  construction),
* every other cluster's fabric is an
  :class:`~repro.core.cluster_model.ApproximatedCluster` model
  (hybrid tier) — and keeps handling boundary packet traffic even
  while its region is demoted, so macro state stays warm,
* flows whose endpoints both live in flowsim-tier regions never become
  packets at all: the generator's ``flow_dispatch`` hook diverts them
  to an :class:`~repro.flowsim.epoch.EpochFlowSimulator` advanced to
  the DES clock at every epoch boundary.

An epoch tick flushes held inference batches, steps the fluid engine,
feeds the controller, and applies its decisions through the tier
adapters.  Everything is driven by simulated time and seeded streams:
re-running the same configuration reproduces the decision log byte
for byte.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.cascade.adapters import adapter_for
from repro.cascade.config import CascadeConfig, Tier
from repro.cascade.controller import DecisionLog, FidelityController
from repro.core.hybrid import HybridSimulation
from repro.core.training import (
    PacketCrossing,
    RegionTraceCollector,
    TrainedClusterModel,
)
from repro.core.world import ExperimentConfig, RunResult, build_world
from repro.des.kernel import Simulator
from repro.flowsim.epoch import EpochFlowSimulator
from repro.flowsim.simulator import FlowResult, FlowSpec
from repro.topology.graph import Topology
from repro.traffic.apps import FlowRecord, TrafficGenerator
from repro.validate.windows import RegionWindows


class FocalBoundaryTap(RegionTraceCollector):
    """Bounded online tap of the focal region's boundary.

    The training collector's taps, but instead of accumulating a trace
    every completed crossing feeds its region latency or drop straight
    into the reference :class:`RegionWindows` — O(in flight) memory,
    run-length independent.
    """

    def __init__(self, network, focal_cluster: int, windows: RegionWindows) -> None:
        super().__init__(network, focal_cluster)
        self.windows = windows

    def _complete(self, crossing: PacketCrossing) -> None:
        self.windows.record_outcome(
            crossing.outcome_time, crossing.latency_s, crossing.dropped
        )


class CascadeSimulation:
    """Multi-fidelity composition of DES, hybrid, and fluid engines.

    Parameters mirror :class:`~repro.core.hybrid.HybridSimulation`,
    with a :class:`~repro.cascade.config.CascadeConfig` instead of a
    ``HybridConfig``; ``assembly`` (``net_config``, ``invariants``,
    ``routing_config``, ``failures``) is forwarded to it.  Call
    :meth:`attach_generator` before traffic starts and
    :meth:`finalize` after ``sim.run`` returns.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        trained: Union[TrainedClusterModel, Mapping[int, TrainedClusterModel]],
        config: Optional[CascadeConfig] = None,
        metrics=None,
        tracer=None,
        **assembly,
    ) -> None:
        self.sim = sim
        self.config = config or CascadeConfig()
        self.metrics = metrics
        #: Optional FlightRecorder — tier dispatches, epoch handoffs,
        #: and fluid completions land in it alongside the hybrid
        #: layer's own model/batch records.  Sim-time only, no RNG.
        self._tracer = tracer
        self.hybrid = HybridSimulation(
            sim,
            topology,
            trained,
            config=self.config.hybrid,
            metrics=metrics,
            tracer=tracer,
            **assembly,
        )
        self.topology = topology
        self.focal_cluster = self.config.hybrid.full_cluster
        self.regions = sorted(self.hybrid.approx_clusters)
        unknown_pins = [
            region
            for region in self.config.pin_tiers
            if region != self.focal_cluster and region not in self.regions
        ]
        if unknown_pins:
            raise ValueError(
                f"pin_tiers references unknown regions {unknown_pins}; "
                f"topology clusters are {topology.cluster_ids()}"
            )
        self._cluster_of = self.hybrid._cluster_of

        self.fluid = EpochFlowSimulator(
            topology, routing=self.hybrid.network.routing, metrics=metrics
        )
        self.fluid.on_completion = self._on_fluid_completion
        self.fluid_fcts: list[float] = []

        # ---- Windows and taps ----------------------------------------
        self.reference = RegionWindows()
        self.windows: dict[int, RegionWindows] = {
            region: RegionWindows() for region in self.regions
        }
        self._focal_tap = FocalBoundaryTap(
            self.hybrid.network, self.focal_cluster, self.reference
        )
        for region, model in self.hybrid.models.items():
            model.on_outcome = self.windows[region].record_outcome

        self.controller = FidelityController(
            self.config,
            self.regions,
            reference=self.reference,
            windows=self.windows,
            metrics=metrics,
        )

        # ---- Accounting ----------------------------------------------
        self.generator: Optional[TrafficGenerator] = None
        self._carried_record_ids: set[int] = set()
        self._inflight_by_region: dict[int, int] = {
            region: 0 for region in self.regions
        }
        self._tier_packets: dict[Tier, float] = {tier: 0.0 for tier in Tier}
        self._tier_flows: dict[Tier, int] = {tier: 0 for tier in Tier}
        self._model_packet_marks: dict[int, int] = {
            region: 0 for region in self.regions
        }
        self._residency: dict[int, dict[Tier, int]] = {
            region: {tier: 0 for tier in Tier} for region in self.regions
        }
        self._epoch_index = 0
        self._finalized = False
        self.epoch_wallclock_s = 0.0
        sim.schedule(self.config.epoch_s, self._on_epoch)

    # ------------------------------------------------------------------
    # Generator wiring
    # ------------------------------------------------------------------
    def attach_generator(self, generator: TrafficGenerator) -> None:
        """Install the dispatch hook and FCT taps (before traffic starts)."""
        self.generator = generator
        generator.flow_dispatch = self.dispatch_flow
        generator.on_flow_complete = self._on_packet_flow_complete

    def tier_of(self, region: int) -> Tier:
        """Current tier of any cluster (the focal one reports DES)."""
        if region == self.focal_cluster:
            return Tier.DES
        return self.controller.tiers[region]

    def dispatch_flow(self, flow: FlowSpec) -> bool:
        """``TrafficGenerator.flow_dispatch`` hook.

        Flows with both endpoints in flowsim-tier regions go fluid
        (True: the generator opens no packet flow) as the generator
        numbered them: DES's id and source port, so the fluid path
        charger hashes onto DES's ECMP path and a promotion relaunches
        the flow on exactly the links already charged.  Everything else
        stays on the packet path and is attributed to the DES tier if
        it touches the focal cluster, else to the hybrid tier.
        """
        src_cluster = self._cluster_of[flow.src]
        dst_cluster = self._cluster_of[flow.dst]
        if (
            self.tier_of(src_cluster) is Tier.FLOWSIM
            and self.tier_of(dst_cluster) is Tier.FLOWSIM
        ):
            if self._tracer is not None:
                self._tracer.event(
                    "tier.dispatch",
                    trace=self._tracer.trace_for_flow(flow.flow_id),
                    tier=Tier.FLOWSIM.label,
                    src=flow.src,
                    dst=flow.dst,
                    size=flow.size_bytes,
                )
            self.fluid.admit(flow)
            self._tier_flows[Tier.FLOWSIM] += 1
            return True
        if self.focal_cluster in (src_cluster, dst_cluster):
            self._tier_flows[Tier.DES] += 1
        else:
            self._tier_flows[Tier.HYBRID] += 1
        for cluster in {src_cluster, dst_cluster} - {self.focal_cluster}:
            self._inflight_by_region[cluster] += 1
        return False

    # ------------------------------------------------------------------
    # Completion taps
    # ------------------------------------------------------------------
    def _on_fluid_completion(self, result: FlowResult) -> None:
        fct = result.fct
        self.fluid_fcts.append(fct)
        now = result.completion_time
        spec = result.spec
        if self._tracer is not None:
            self._tracer.event(
                "flow.complete",
                trace=self._tracer.trace_for_flow(spec.flow_id),
                t=now,
                fct=fct,
                size=spec.size_bytes,
            )
        src_cluster = self._cluster_of[spec.src]
        dst_cluster = self._cluster_of[spec.dst]
        for cluster in {src_cluster, dst_cluster}:
            self.windows[cluster].record_fct(
                now, fct, flow=f"fluid:{spec.flow_id}"
            )

    def _on_packet_flow_complete(self, record: FlowRecord) -> None:
        src_cluster = self._cluster_of[record.src]
        dst_cluster = self._cluster_of[record.dst]
        for cluster in {src_cluster, dst_cluster} - {self.focal_cluster}:
            if self._inflight_by_region[cluster] > 0:
                self._inflight_by_region[cluster] -= 1
        if id(record) in self._carried_record_ids:
            # A promotion handoff relaunched this flow mid-transfer;
            # its packet-side FCT covers only the remaining bytes and
            # would poison the windows.
            self._carried_record_ids.discard(id(record))
            return
        fct = record.fct
        assert fct is not None
        now = record.completion_time
        flow_name = f"flow:{record.flow_id}"
        if self.focal_cluster in (src_cluster, dst_cluster):
            self.reference.record_fct(now, fct, flow=flow_name)
        for cluster in {src_cluster, dst_cluster} - {self.focal_cluster}:
            self.windows[cluster].record_fct(now, fct, flow=flow_name)

    # ------------------------------------------------------------------
    # Adapter context (see TierAdapter.transfer)
    # ------------------------------------------------------------------
    def cluster_of(self, server: str) -> int:
        return self._cluster_of[server]

    def launch_carried_flow(self, flow: FlowSpec) -> FlowRecord:
        assert self.generator is not None, "attach_generator first"
        record = self.generator.launch_flow(flow)
        self._carried_record_ids.add(id(record))
        for cluster in {self._cluster_of[flow.src], self._cluster_of[flow.dst]} - {
            self.focal_cluster
        }:
            self._inflight_by_region[cluster] += 1
        return record

    def inflight_packet_flows(self, region: int) -> int:
        return self._inflight_by_region[region]

    def macro_label(self, region: int) -> Optional[str]:
        model = self.hybrid.models.get(region)
        if model is None:
            return None
        return model.macro.state.name.lower()

    # ------------------------------------------------------------------
    # Epoch tick
    # ------------------------------------------------------------------
    def _on_epoch(self) -> None:
        started = _wallclock.perf_counter()
        now = self.sim.now
        # Model state must be current before windows are scored.
        self.hybrid.flush_inference()
        self.fluid.step_to(now)
        for region in self.regions:
            self._residency[region][self.controller.tiers[region]] += 1
        self._epoch_index += 1
        decisions = self.controller.evaluate(self._epoch_index, now)
        for decision in decisions:
            if not decision.is_transition:
                continue
            # Close the region's model-packet bucket under the tier it
            # is leaving before the adapter moves any state.
            self._accrue_model_packets(decision.region, decision.from_tier)
            adapter = adapter_for(decision.from_tier, decision.to_tier)
            handoff = adapter.transfer(decision.region, self)
            decision.entry["handoff"] = handoff.to_dict()
            if self._tracer is not None:
                self._tracer.event(
                    "tier.handoff",
                    region=decision.region,
                    kind=decision.kind,
                    from_tier=decision.from_tier.label,
                    to_tier=decision.to_tier.label,
                    ratio=decision.ratio,
                    epoch=decision.epoch,
                )
        self.epoch_wallclock_s += _wallclock.perf_counter() - started
        self.sim.schedule(self.config.epoch_s, self._on_epoch)

    def _accrue_model_packets(self, region: int, tier: Tier) -> None:
        model = self.hybrid.models[region]
        delta = model.packets_handled - self._model_packet_marks[region]
        if delta:
            self._tier_packets[tier] += float(delta)
            self._model_packet_marks[region] = model.packets_handled

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, duration_s: float) -> None:
        """Drain all engines and close the per-tier accounting."""
        if self._finalized:
            return
        self._finalized = True
        self.hybrid.flush_inference()
        if duration_s > self.fluid.now:
            self.fluid.step_to(duration_s)
        for region in self.regions:
            self._accrue_model_packets(region, self.controller.tiers[region])
        focal_switches = {
            node.name
            for node in self.topology.cluster_nodes(self.focal_cluster)
            if node.role.is_switch
        }
        self._tier_packets[Tier.DES] += float(
            sum(
                switch.packets_forwarded
                for name, switch in self.hybrid.network.switches.items()
                if name in focal_switches
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def decision_log(self) -> DecisionLog:
        return self.controller.log

    def per_tier_packets(self) -> dict[str, float]:
        """Packets attributed to each tier (see DESIGN.md §10).

        ``des`` counts forwards through the focal cluster's real
        switches; ``hybrid``/``flowsim`` count packets the region
        models handled while their region resided at that tier (fluid
        regions still see boundary packets from cross-tier flows —
        that is what keeps their macro state warm).
        """
        return {tier.label: self._tier_packets[tier] for tier in Tier}

    def per_tier_flows(self) -> dict[str, int]:
        """Flows by the tier that carried them at launch."""
        return {tier.label: self._tier_flows[tier] for tier in Tier}

    def tier_residency(self) -> dict[str, dict[str, int]]:
        """Epochs each region spent in each tier (manifest field)."""
        return {
            str(region): {
                tier.label: count
                for tier, count in self._residency[region].items()
            }
            for region in self.regions
        }

    def final_tiers(self) -> dict[str, str]:
        return {
            str(region): self.controller.tiers[region].label
            for region in self.regions
        }

    def cascade_summary(self) -> dict[str, Any]:
        """The ``result["cascade"]`` manifest block."""
        log = self.controller.log
        return {
            "epochs": self.controller.epochs_evaluated,
            "promotions": log.promotions,
            "demotions": log.demotions,
            "decisions": len(log.entries),
            "final_tiers": self.final_tiers(),
            "tier_residency": self.tier_residency(),
            "per_tier_packets": self.per_tier_packets(),
            "per_tier_flows": self.per_tier_flows(),
            "fluid": {
                "flows_admitted": self.fluid.flows_admitted,
                "flows_completed": self.fluid.flows_completed,
                "active_at_end": self.fluid.active_flows,
                "rate_recomputes": self.fluid.rate_recomputations,
                "bytes_admitted": float(self.fluid.bytes_admitted),
            },
            "flows_diverted": (
                self.generator.flows_diverted if self.generator else 0
            ),
            "failures": self.hybrid.failure_injector.summary(),
            "collective": (
                self.generator.collective.summary()
                if self.generator is not None and self.generator.collective
                else None
            ),
        }


# ----------------------------------------------------------------------
# Pipeline-style driver
# ----------------------------------------------------------------------
@dataclass
class CascadeResult:
    """Measurements from one cascade run.

    ``result`` is the packet-side :class:`~repro.core.pipeline.RunResult`
    (same schema as hybrid runs, so existing tooling applies); the
    fluid tier's outcomes ride alongside.
    """

    result: RunResult
    fluid_fcts: list[float] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    @property
    def all_fcts(self) -> list[float]:
        """Packet-side and fluid FCTs combined."""
        return list(self.result.fcts) + list(self.fluid_fcts)

    @property
    def total_flows_completed(self) -> int:
        return self.result.flows_completed + len(self.fluid_fcts)

    @property
    def total_events(self) -> int:
        """Kernel events plus fluid engine events (arrivals+completions)."""
        fluid = self.summary.get("fluid", {})
        return self.result.events_executed + int(
            fluid.get("flows_admitted", 0) + fluid.get("flows_completed", 0)
        )


def run_cascade_simulation(
    config: ExperimentConfig,
    trained: Union[TrainedClusterModel, Mapping[int, TrainedClusterModel]],
    cascade: Optional[CascadeConfig] = None,
    metrics=None,
    probe_period_s: Optional[float] = None,
    tracer=None,
    invariants=None,
) -> tuple[CascadeResult, CascadeSimulation]:
    """Run one scenario under per-region fidelity assignments.

    The same seeded workload the full and hybrid pipelines would
    generate; background flows are diverted (not elided) per the
    current tier map, so offered load is preserved across tiers.
    With ``tracer``, packet flows get admission/completion records,
    fluid flows ``tier.dispatch`` records, and every epoch transition
    a ``tier.handoff`` record — RNG-free, outcomes unchanged.
    """
    world = build_world(
        config,
        trained,
        cascade=cascade or CascadeConfig(),
        metrics=metrics,
        tracer=tracer,
        invariants=invariants,
        probe_period_s=probe_period_s,
    )
    world.run()
    cascade_sim = world.cascade
    return (
        CascadeResult(
            result=world.result(),
            fluid_fcts=list(cascade_sim.fluid_fcts),
            summary=cascade_sim.cascade_summary(),
        ),
        cascade_sim,
    )
