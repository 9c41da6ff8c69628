"""Tier adapters in isolation, against a fake cascade context."""

from __future__ import annotations

import pytest

from repro.cascade import (
    FlowsimToHybridAdapter,
    HybridToFlowsimAdapter,
    Tier,
    adapter_for,
)
from repro.flowsim import EpochFlowSimulator, FlowSpec


class FakeContext:
    """The minimal surface TierAdapter.transfer needs (see its docs)."""

    def __init__(self, topology) -> None:
        self.fluid = EpochFlowSimulator(topology)
        self.launched: list[FlowSpec] = []
        self.inflight = {1: 4, 2: 0}
        self.macro = {1: "elevated", 2: None}

    def cluster_of(self, server: str) -> int:
        # server-c<N>-t...-s... -> N
        return int(server.split("-")[1][1:])

    def launch_carried_flow(self, flow: FlowSpec):
        self.launched.append(flow)

    def inflight_packet_flows(self, region: int) -> int:
        return self.inflight[region]

    def macro_label(self, region: int):
        return self.macro[region]


def _spec(flow_id, src, dst, size_bytes=125_000, start_time=0.0):
    return FlowSpec(
        flow_id=flow_id, src=src, dst=dst,
        size_bytes=size_bytes, start_time=start_time, src_port=10_000 + flow_id,
    )


class TestFlowsimToHybrid:
    def test_extracts_only_flows_touching_region(self, small_clos):
        ctx = FakeContext(small_clos)
        ctx.fluid.admit(_spec(0, "server-c0-t0-s0", "server-c1-t0-s0"))
        ctx.fluid.admit(_spec(1, "server-c0-t0-s1", "server-c0-t1-s0"))
        handoff = FlowsimToHybridAdapter().transfer(1, ctx)
        assert handoff.flows_transferred == 1
        assert len(ctx.launched) == 1
        assert ctx.fluid.active_flows == 1  # the c0-internal flow stays

    def test_carries_remaining_bytes_not_original_size(self, small_clos):
        ctx = FakeContext(small_clos)
        ctx.fluid.admit(_spec(0, "server-c0-t0-s0", "server-c1-t0-s0"))
        ctx.fluid.step_to(50e-6)  # half the 100 us transfer at 10 Gbps
        handoff = FlowsimToHybridAdapter().transfer(1, ctx)
        (flow,) = ctx.launched
        assert flow.size_bytes == pytest.approx(62_500, abs=1)
        assert handoff.bytes_transferred == pytest.approx(62_500, rel=1e-6)
        # The relaunch is the same flow: its arrival id and port stay.
        assert (flow.flow_id, flow.src_port) == (0, 10_000)

    def test_nearly_done_flow_still_carries_one_byte(self, small_clos):
        ctx = FakeContext(small_clos)
        ctx.fluid.admit(_spec(0, "server-c0-t0-s0", "server-c1-t0-s0"))
        ctx.fluid.step_to(100e-6 - 1e-12)  # a sliver of bytes left
        handoff = FlowsimToHybridAdapter().transfer(1, ctx)
        (flow,) = ctx.launched
        assert flow.size_bytes >= 1
        assert handoff.flows_transferred == 1

    def test_handoff_records_macro_state(self, small_clos):
        ctx = FakeContext(small_clos)
        handoff = FlowsimToHybridAdapter().transfer(1, ctx)
        assert handoff.macro_state == "elevated"
        assert handoff.flows_transferred == 0


class TestHybridToFlowsim:
    def test_records_draining_flows_without_moving_state(self, small_clos):
        ctx = FakeContext(small_clos)
        ctx.fluid.admit(_spec(0, "server-c0-t0-s0", "server-c1-t0-s0"))
        handoff = HybridToFlowsimAdapter().transfer(1, ctx)
        assert handoff.flows_draining == 4
        assert handoff.flows_transferred == 0
        assert ctx.launched == []
        assert ctx.fluid.active_flows == 1  # fluid side untouched

    def test_idle_region_drains_nothing(self, small_clos):
        ctx = FakeContext(small_clos)
        handoff = HybridToFlowsimAdapter().transfer(2, ctx)
        assert handoff.flows_draining == 0
        assert handoff.macro_state is None


class TestAdapterRegistry:
    def test_runtime_boundaries_have_adapters(self):
        assert isinstance(
            adapter_for(Tier.FLOWSIM, Tier.HYBRID), FlowsimToHybridAdapter
        )
        assert isinstance(
            adapter_for(Tier.HYBRID, Tier.FLOWSIM), HybridToFlowsimAdapter
        )

    def test_des_boundaries_are_structural(self):
        with pytest.raises(ValueError, match="no runtime adapter"):
            adapter_for(Tier.HYBRID, Tier.DES)
        with pytest.raises(ValueError, match="no runtime adapter"):
            adapter_for(Tier.DES, Tier.HYBRID)

    def test_handoff_to_dict_uses_tier_labels(self, small_clos):
        ctx = FakeContext(small_clos)
        payload = FlowsimToHybridAdapter().transfer(1, ctx).to_dict()
        assert payload["from"] == "flowsim"
        assert payload["to"] == "hybrid"
        assert set(payload) == {
            "region", "from", "to", "flows_transferred",
            "bytes_transferred", "flows_draining", "macro_state",
        }
