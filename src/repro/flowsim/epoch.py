"""The max-min fluid engine: a whole workload, or the cascade's lowest tier.

:class:`EpochFlowSimulator` runs a complete workload in one ``run()``
call (the flow-level baseline), or online: flows are ``admit()``-ed as
the enclosing DES generates them and the fluid state is advanced to the
DES clock with ``step_to()`` at every cascade epoch boundary.  ``run()``
is the online drive fed the whole workload, so batch and online runs of
the same flows are event-identical by construction.  Completions are
surfaced through the ``on_completion`` callback as they are discovered,
so the cascade's sliding fidelity windows see fluid FCTs with the same
online discipline as packet FCTs.

``extract()`` is the tier-handoff primitive: it removes the in-flight
flows a promotion decision reassigns to the packet world and reports
their remaining bytes, so the receiving tier can resume them rather
than restart them.

Rates are recomputed lazily (only when the active set changed since the
last query) over the *used* links only — on a 128-cluster fabric the
background tier touches a few hundred of the tens of thousands of
directed links, and progressive filling cost scales with the dict it is
given.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.flowsim.maxmin import max_min_fair_rates
from repro.flowsim.simulator import (
    FlowResult,
    FlowSpec,
    _ActiveFlow,
    validate_flow_spec,
    validate_flow_specs,
)
from repro.topology.graph import Topology
from repro.topology.routing import EcmpRouting, ecmp_hash, name_key


class EpochFlowSimulator:
    """Max-min fluid simulation driven by an external clock.

    Parameters
    ----------
    topology:
        The network; per-direction link capacities come from it.
    routing:
        ECMP tables (computed if omitted).  Pass the enclosing
        network's tables so fluid flows take exactly the path their
        packet incarnation would.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; publishes
        ``flowsim.flows_completed`` and ``flowsim.rate_recomputes``.
    """

    def __init__(
        self,
        topology: Topology,
        routing: Optional[EcmpRouting] = None,
        metrics=None,
    ) -> None:
        self.topology = topology
        self.routing = routing or EcmpRouting(topology)
        self._capacities: dict[tuple[str, str], float] = {}
        for link in topology.links:
            self._capacities[(link.a, link.b)] = link.rate_bps
            self._capacities[(link.b, link.a)] = link.rate_bps
        self.now = 0.0
        self._active: dict[int, _ActiveFlow] = {}
        self._rates_dirty = True
        #: Called with each :class:`FlowResult` as its completion is
        #: discovered during ``step_to``/``run_to_completion``.
        self.on_completion: Optional[Callable[[FlowResult], None]] = None
        self.flows_admitted = 0
        self.flows_completed = 0
        self.bytes_admitted = 0
        self.rate_recomputations = 0
        if metrics:
            metrics.bind_counter(
                "flowsim.flows_completed", lambda: self.flows_completed
            )
            metrics.bind_counter(
                "flowsim.rate_recomputes", lambda: self.rate_recomputations
            )

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Flows admitted and not yet completed or extracted."""
        return len(self._active)

    def active_specs(self) -> list[FlowSpec]:
        """Specs of the in-flight flows (admission order)."""
        return [flow.spec for flow in self._active.values()]

    def _flow_links(self, spec: FlowSpec) -> list[tuple[str, str]]:
        """Directed links on the flow's policy-chosen path.

        The hash basis is the packet tier's ``Packet.flow_hash()``:
        (src, dst, src_port, dst_port), so a spec charges exactly the
        links its packet flow traverses (and, after a flowsim→hybrid
        handoff, will traverse).
        """
        flow_hash = ecmp_hash(
            name_key(spec.src), name_key(spec.dst), spec.src_port, spec.dst_port
        )
        path = self.routing.path(spec.src, spec.dst, flow_hash)
        return list(zip(path[:-1], path[1:]))

    # ------------------------------------------------------------------
    def run(self, flows: Sequence[FlowSpec]) -> list[FlowResult]:
        """Simulate a whole workload to completion; results by flow id.

        The workload is validated up front (unique ids and source
        ports, positive sizes, non-negative start times, routable
        server endpoints) — ``ValueError`` names the offending flow and
        field.  Flows are then admitted in start order and drained.
        """
        validate_flow_specs(flows, self.topology, self.routing)
        results: list[FlowResult] = []
        for spec in sorted(flows, key=lambda f: (f.start_time, f.flow_id)):
            results += self.admit(spec)
        results += self.run_to_completion()
        return sorted(results, key=lambda r: r.spec.flow_id)

    def admit(self, spec: FlowSpec) -> list[FlowResult]:
        """Add a flow; fluid time first advances to its start time.

        Admissions must be non-decreasing in ``start_time`` relative to
        the engine clock (the DES generates arrivals in order), and
        flow ids must be unique among flows ever admitted live.
        Returns the completions drained by that advance (see
        :meth:`step_to`).
        """
        validate_flow_spec(spec, self.topology)
        if spec.flow_id in self._active:
            raise ValueError(f"duplicate flow id {spec.flow_id} admitted")
        if spec.start_time < self.now:
            raise ValueError(
                f"flow {spec.flow_id} starts at {spec.start_time} but fluid "
                f"time is already {self.now}; admissions must be in order"
            )
        drained = self.step_to(spec.start_time)
        self._active[spec.flow_id] = _ActiveFlow(spec, self._flow_links(spec))
        self.flows_admitted += 1
        self.bytes_admitted += spec.size_bytes
        self._rates_dirty = True
        return drained

    def resume(self, spec: FlowSpec, remaining_bytes: float) -> None:
        """Admit a flow mid-transfer (demotion handoff): only
        ``remaining_bytes`` of it are still to be drained."""
        self.admit(spec)
        flow = self._active[spec.flow_id]
        flow.remaining_bits = max(float(remaining_bytes) * 8.0, 0.0)

    # ------------------------------------------------------------------
    def step_to(self, t: float) -> list[FlowResult]:
        """Advance fluid time to ``t``, draining completions on the way.

        Completions strictly before ``t`` are emitted (ties with an
        arrival at exactly ``t`` resolve arrival-first).  Returns the
        completions in occurrence order; each is also passed to
        ``on_completion``.
        """
        if t < self.now:
            raise ValueError(f"cannot step backwards: {t} < now={self.now}")
        drained: list[FlowResult] = []
        while True:
            self._refresh_rates()
            completion_time, completing = self._earliest_completion()
            if completion_time is None or completion_time >= t:
                self._advance(t - self.now)
                self.now = t
                break
            assert completing is not None
            self._advance(completion_time - self.now)
            self.now = completion_time
            flow = self._active.pop(completing)
            self._rates_dirty = True
            result = FlowResult(spec=flow.spec, completion_time=self.now)
            drained.append(result)
            self.flows_completed += 1
            if self.on_completion is not None:
                self.on_completion(result)
        return drained

    def run_to_completion(self) -> list[FlowResult]:
        """Drain every remaining flow (no time bound)."""
        drained: list[FlowResult] = []
        while self._active:
            self._refresh_rates()
            completion_time, completing = self._earliest_completion()
            if completion_time is None:
                # All remaining flows are rate-starved; nothing can
                # ever complete — surface it instead of spinning.
                raise RuntimeError(
                    f"{len(self._active)} flows have zero rate and cannot complete"
                )
            assert completing is not None
            self._advance(completion_time - self.now)
            self.now = max(self.now, completion_time)
            flow = self._active.pop(completing)
            self._rates_dirty = True
            result = FlowResult(spec=flow.spec, completion_time=completion_time)
            drained.append(result)
            self.flows_completed += 1
            if self.on_completion is not None:
                self.on_completion(result)
        return drained

    # ------------------------------------------------------------------
    def extract(
        self, predicate: Callable[[FlowSpec], bool]
    ) -> list[tuple[FlowSpec, float]]:
        """Remove matching in-flight flows for a tier handoff.

        Returns ``(spec, remaining_bytes)`` pairs in admission order.
        The flows are no longer simulated here; the caller owns them.
        """
        matched = [
            flow for flow in self._active.values() if predicate(flow.spec)
        ]
        for flow in matched:
            del self._active[flow.spec.flow_id]
        if matched:
            self._rates_dirty = True
        return [(flow.spec, flow.remaining_bits / 8.0) for flow in matched]

    # ------------------------------------------------------------------
    def _refresh_rates(self) -> None:
        if not self._rates_dirty or not self._active:
            self._rates_dirty = False
            return
        self._rates_dirty = False
        self.rate_recomputations += 1
        flows = list(self._active.values())
        # Progressive filling over the links actually crossed: the
        # allocation is identical (untouched links never bind) but the
        # cost tracks the active working set, not the fabric size.
        used: dict[tuple[str, str], float] = {}
        for flow in flows:
            for link in flow.links:
                if link not in used:
                    used[link] = self._capacities[link]
        rates = max_min_fair_rates([f.links for f in flows], used)
        for flow, rate in zip(flows, rates):
            flow.rate = rate

    def _earliest_completion(self) -> tuple[Optional[float], Optional[int]]:
        best_time: Optional[float] = None
        best_id: Optional[int] = None
        now = self.now
        for flow_id, flow in self._active.items():
            if flow.rate <= 0:
                continue
            t = now + flow.remaining_bits / flow.rate
            if best_time is None or t < best_time:
                best_time = t
                best_id = flow_id
        return best_time, best_id

    def _advance(self, dt: float) -> None:
        if dt <= 0:
            return
        for flow in self._active.values():
            flow.remaining_bits = max(flow.remaining_bits - flow.rate * dt, 0.0)
