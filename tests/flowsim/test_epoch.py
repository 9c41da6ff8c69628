"""EpochFlowSimulator: online stepping, handoffs, and batch equivalence."""

from __future__ import annotations

import pytest

from repro.flowsim import EpochFlowSimulator, FlowSpec
from repro.flowsim.workload import generate_workload
from repro.obs import MetricsRegistry
from repro.traffic.distributions import web_search_sizes


def _spec(flow_id=0, src="server-c0-t0-s0", dst="server-c1-t0-s0",
          size_bytes=1_000_000, start_time=0.0) -> FlowSpec:
    return FlowSpec(
        flow_id=flow_id, src=src, dst=dst,
        size_bytes=size_bytes, start_time=start_time, src_port=10_000 + flow_id,
    )


class TestOnlineStepping:
    def test_single_flow_completes_at_bottleneck_rate(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.admit(_spec(size_bytes=125_000))  # 1 Mbit
        # Edge links are 10 Gbps: 1 Mbit / 10 Gbps = 100 us.
        done = engine.step_to(99e-6)
        assert done == []
        done = engine.step_to(101e-6)
        assert len(done) == 1
        assert done[0].fct == pytest.approx(100e-6)

    def test_completions_surface_through_callback(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        seen = []
        engine.on_completion = seen.append
        engine.admit(_spec(size_bytes=125_000))
        engine.run_to_completion()
        assert len(seen) == 1
        assert seen[0].spec.flow_id == 0

    def test_backwards_step_rejected(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.step_to(1e-3)
        with pytest.raises(ValueError, match="backwards"):
            engine.step_to(0.5e-3)

    def test_out_of_order_admission_rejected(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.admit(_spec(flow_id=0, start_time=1e-3))
        with pytest.raises(ValueError, match="in order"):
            engine.admit(_spec(flow_id=1, start_time=0.5e-3))

    def test_duplicate_live_id_rejected(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.admit(_spec(flow_id=5))
        with pytest.raises(ValueError, match="duplicate"):
            engine.admit(_spec(flow_id=5))

    def test_malformed_spec_rejected_at_admit(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        with pytest.raises(ValueError, match="size_bytes"):
            engine.admit(_spec(size_bytes=0))


class TestExtractAndResume:
    def test_extract_reports_remaining_bytes(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.admit(_spec(size_bytes=125_000))
        engine.step_to(50e-6)  # halfway at 10 Gbps
        moved = engine.extract(lambda spec: True)
        assert engine.active_flows == 0
        (spec, remaining), = moved
        assert spec.flow_id == 0
        assert remaining == pytest.approx(62_500)

    def test_extract_is_selective(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.admit(_spec(flow_id=0, src="server-c0-t0-s0"))
        engine.admit(_spec(flow_id=1, src="server-c0-t0-s1"))
        moved = engine.extract(lambda spec: spec.flow_id == 1)
        assert [spec.flow_id for spec, _ in moved] == [1]
        assert [s.flow_id for s in engine.active_specs()] == [0]

    def test_resume_drains_only_remaining_bytes(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        engine.resume(_spec(size_bytes=125_000), remaining_bytes=62_500)
        done = engine.run_to_completion()
        # Half the bytes at 10 Gbps: 50 us, not the 100 us a fresh
        # admission of the full size would take.
        assert done[0].completion_time == pytest.approx(50e-6)

    def test_extracted_flows_free_bandwidth(self, small_clos):
        engine = EpochFlowSimulator(small_clos)
        # Two flows from the same server share its 10 Gbps edge link.
        engine.admit(_spec(flow_id=0, dst="server-c1-t0-s0"))
        engine.admit(_spec(flow_id=1, dst="server-c1-t0-s1"))
        engine.step_to(1e-6)
        engine.extract(lambda spec: spec.flow_id == 1)
        engine.step_to(2e-6)
        remaining = {s.flow_id for s in engine.active_specs()}
        assert remaining == {0}


class TestBatchOnlineEquivalence:
    def test_same_workload_same_completions(self, small_clos):
        flows = generate_workload(
            small_clos, duration_s=0.01, load=0.3,
            sizes=web_search_sizes(), seed=77,
        )
        assert len(flows) > 10

        batch = EpochFlowSimulator(small_clos).run(flows)

        engine = EpochFlowSimulator(small_clos)
        online: list = []
        engine.on_completion = online.append
        ordered = sorted(flows, key=lambda f: (f.start_time, f.flow_id))
        for spec, nxt in zip(ordered, ordered[1:] + [None]):
            engine.admit(spec)
            if nxt is not None:
                # Step to an irregular epoch boundary between arrivals
                # to exercise the external clock.
                engine.step_to((spec.start_time + nxt.start_time) / 2)
        engine.run_to_completion()
        online.sort(key=lambda r: r.spec.flow_id)

        assert len(online) == len(batch)
        for a, b in zip(online, batch):
            assert a.spec == b.spec
            assert a.completion_time == pytest.approx(b.completion_time)


class TestObsCounters:
    def test_counters_published(self, small_clos):
        registry = MetricsRegistry(enabled=True)
        engine = EpochFlowSimulator(small_clos, metrics=registry)
        engine.admit(_spec(flow_id=0))
        engine.admit(_spec(flow_id=1, src="server-c0-t0-s1"))
        engine.run_to_completion()
        snapshot = {
            c["name"]: c["value"] for c in registry.snapshot()["counters"]
        }
        assert snapshot["flowsim.flows_completed"] == 2
        assert snapshot["flowsim.rate_recomputes"] >= 1
        assert snapshot["flowsim.rate_recomputes"] == engine.rate_recomputations
