"""Tier adapters: state translation at promotion/demotion boundaries.

A tier transition changes *representation*: the fluid tier holds
``(spec, remaining bytes)`` pairs, the hybrid/packet tiers hold live
TCP flows and per-cluster macro state.  Each boundary is one
:class:`TierAdapter` with a single ``transfer`` method so the
translation rules are testable in isolation against a fake context.

Contracts
---------
flowsim -> hybrid (:class:`FlowsimToHybridAdapter`):
    Every in-flight fluid flow touching the promoted region is
    extracted from the fluid engine and relaunched as a *packet* flow
    carrying its remaining bytes — progress transfers, the transport
    restarts (slow start), which is the honest translation: the fluid
    tier never modeled TCP state, so there is none to hand over.  The
    region's macro classifier kept warm throughout (boundary packet
    traffic always runs through the model), so the hybrid tier starts
    from live congestion state, not from cold.

hybrid -> flowsim (:class:`HybridToFlowsimAdapter`):
    Drain-on-demote: packet flows already in flight complete at packet
    fidelity (their TCP state is not collapsible into a single rate
    without inventing one); only *new* wholly-background flows are
    admitted to the fluid tier.  The handoff records how many flows
    are draining and the macro state the region leaves behind.

Every ``transfer`` returns a :class:`Handoff` summary; the cascade
attaches it to the controller's decision-log entry, so the audit trail
shows what each transition actually moved.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional

from repro.cascade.config import Tier


@dataclass
class Handoff:
    """What one tier transition moved (decision-log payload)."""

    region: int
    from_tier: Tier
    to_tier: Tier
    flows_transferred: int = 0
    bytes_transferred: float = 0.0
    flows_draining: int = 0
    macro_state: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "region": self.region,
            "from": self.from_tier.label,
            "to": self.to_tier.label,
            "flows_transferred": self.flows_transferred,
            "bytes_transferred": self.bytes_transferred,
            "flows_draining": self.flows_draining,
            "macro_state": self.macro_state,
        }


class TierAdapter(ABC):
    """One directed tier boundary's state translation."""

    from_tier: Tier
    to_tier: Tier

    @abstractmethod
    def transfer(self, region: int, ctx) -> Handoff:
        """Move ``region``'s state across the boundary.

        ``ctx`` is the cascade context — anything exposing
        ``fluid`` (an :class:`~repro.flowsim.epoch.EpochFlowSimulator`),
        ``cluster_of(server) -> int``,
        ``launch_carried_flow(flow_spec)``,
        ``inflight_packet_flows(region) -> int`` and
        ``macro_label(region) -> str | None`` — the
        :class:`~repro.cascade.simulation.CascadeSimulation` in
        production, a stub in tests.
        """


class FlowsimToHybridAdapter(TierAdapter):
    """Promote: fluid flows become packet flows with remaining bytes."""

    from_tier = Tier.FLOWSIM
    to_tier = Tier.HYBRID

    def transfer(self, region: int, ctx) -> Handoff:
        moved = ctx.fluid.extract(
            lambda spec: ctx.cluster_of(spec.src) == region
            or ctx.cluster_of(spec.dst) == region
        )
        bytes_total = 0.0
        for spec, remaining_bytes in moved:
            bytes_total += remaining_bytes
            # At least one byte: a fluid flow at the knife edge of
            # completion still needs a real packet exchange to finish.
            # Its id and port stay, so the packet flow keeps its trace
            # and hashes onto the path the fluid tier charged.
            size = max(int(math.ceil(remaining_bytes)), 1)
            ctx.launch_carried_flow(dataclasses.replace(spec, size_bytes=size))
        return Handoff(
            region=region,
            from_tier=self.from_tier,
            to_tier=self.to_tier,
            flows_transferred=len(moved),
            bytes_transferred=bytes_total,
            macro_state=ctx.macro_label(region),
        )


class HybridToFlowsimAdapter(TierAdapter):
    """Demote: in-flight packet flows drain, new background flows go fluid."""

    from_tier = Tier.HYBRID
    to_tier = Tier.FLOWSIM

    def transfer(self, region: int, ctx) -> Handoff:
        return Handoff(
            region=region,
            from_tier=self.from_tier,
            to_tier=self.to_tier,
            flows_draining=ctx.inflight_packet_flows(region),
            macro_state=ctx.macro_label(region),
        )


_ADAPTERS: dict[tuple[Tier, Tier], TierAdapter] = {
    (Tier.FLOWSIM, Tier.HYBRID): FlowsimToHybridAdapter(),
    (Tier.HYBRID, Tier.FLOWSIM): HybridToFlowsimAdapter(),
}


def adapter_for(from_tier: Tier, to_tier: Tier) -> TierAdapter:
    """The adapter of a directed boundary; DES boundaries are
    structural (receivers bind at network construction) and have no
    runtime adapter."""
    adapter = _ADAPTERS.get((from_tier, to_tier))
    if adapter is None:
        raise ValueError(
            f"no runtime adapter for {from_tier.label} -> {to_tier.label}; "
            "only flowsim<->hybrid transitions happen mid-run"
        )
    return adapter
