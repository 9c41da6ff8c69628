"""Tests for the fluid flow-level simulator."""

from __future__ import annotations

import pytest

from repro.flowsim import EpochFlowSimulator, FlowSpec
from repro.flowsim.workload import generate_workload
from repro.topology.clos import ClosParams, build_clos, server_name
from repro.traffic.distributions import web_search_sizes


def _spec(flow_id, src, dst, size, start=0.0):
    return FlowSpec(
        flow_id=flow_id, src=src, dst=dst, size_bytes=size, start_time=start,
        src_port=10_000 + flow_id,
    )


class TestFlowLevelSimulator:
    def test_single_flow_line_rate(self, small_clos):
        simulator = EpochFlowSimulator(small_clos)
        size = 10_000_000
        src, dst = server_name(0, 0, 0), server_name(1, 0, 0)
        results = simulator.run([_spec(0, src, dst, size)])
        assert len(results) == 1
        assert results[0].fct == pytest.approx(size * 8 / 10e9)

    def test_two_flows_share_bottleneck(self, small_clos):
        """Two flows into the same destination NIC split it fairly."""
        dst = server_name(0, 0, 0)
        size = 10_000_000
        flows = [
            _spec(0, server_name(0, 0, 1), dst, size),
            _spec(1, server_name(0, 0, 2), dst, size),
        ]
        results = EpochFlowSimulator(small_clos).run(flows)
        # Both bottlenecked at the shared ToR->server link: 5 Gbps each.
        for result in results:
            assert result.fct == pytest.approx(size * 8 / 5e9)

    def test_staggered_arrivals(self, small_clos):
        """A flow arriving mid-way slows the first one down."""
        dst = server_name(0, 0, 0)
        size = 10_000_000
        solo_fct = size * 8 / 10e9
        flows = [
            _spec(0, server_name(0, 0, 1), dst, size, start=0.0),
            _spec(1, server_name(0, 0, 2), dst, size, start=solo_fct / 2),
        ]
        results = EpochFlowSimulator(small_clos).run(flows)
        first = next(r for r in results if r.spec.flow_id == 0)
        assert first.fct > solo_fct
        assert first.fct < 2 * solo_fct

    def test_flow_conservation(self, small_clos):
        """Every submitted flow completes exactly once, after start."""
        flows = generate_workload(
            small_clos, duration_s=0.01, load=0.3, sizes=web_search_sizes(), seed=2
        )
        results = EpochFlowSimulator(small_clos).run(flows)
        assert len(results) == len(flows)
        assert {r.spec.flow_id for r in results} == {f.flow_id for f in flows}
        for result in results:
            assert result.completion_time > result.spec.start_time

    def test_duplicate_flow_ids_rejected(self, small_clos):
        src, dst = server_name(0, 0, 0), server_name(0, 0, 1)
        with pytest.raises(ValueError):
            EpochFlowSimulator(small_clos).run(
                [_spec(1, src, dst, 100), _spec(1, dst, src, 100)]
            )

    def test_empty_workload(self, small_clos):
        assert EpochFlowSimulator(small_clos).run([]) == []

    def test_much_faster_than_packet_sim(self, small_clos):
        """The whole point of flow-level simulation: event count is
        tiny (2 per flow vs thousands per flow for packets)."""
        flows = generate_workload(
            small_clos, duration_s=0.02, load=0.3, sizes=web_search_sizes(), seed=3
        )
        simulator = EpochFlowSimulator(small_clos)
        simulator.run(flows)
        # Rate recomputations = arrivals + completions = 2 per flow.
        assert simulator.rate_recomputations <= 2 * len(flows)


class TestWorkloadPersistence:
    def test_save_load_roundtrip(self, small_clos, tmp_path):
        from repro.flowsim.workload import load_workload, save_workload

        flows = generate_workload(
            small_clos, 0.005, 0.2, web_search_sizes(), seed=9
        )
        path = tmp_path / "workload.json"
        save_workload(flows, path)
        assert load_workload(path) == flows  # ports included

    def test_file_without_ports_gets_per_host_numbering(self, tmp_path):
        import json

        from repro.flowsim.workload import load_workload

        rows = [
            {"flow_id": i, "src": src, "dst": "d", "size_bytes": 10, "start_time": 0.0}
            for i, src in enumerate(["a", "b", "a", "a", "b"])
        ]
        (tmp_path / "w.json").write_text(json.dumps(rows))
        ports = [f.src_port for f in load_workload(tmp_path / "w.json")]
        assert ports == [10_000, 10_000, 10_001, 10_002, 10_001]

    def test_shared_source_port_rejected_naming_both_flows(self, tmp_path):
        import json

        from repro.flowsim.workload import load_workload

        row = {"src": "a", "dst": "b", "size_bytes": 10, "start_time": 0.0}
        rows = [
            {**row, "flow_id": 4, "src_port": 10_003},
            {**row, "flow_id": 9, "src_port": 10_003},
        ]
        (tmp_path / "bad.json").write_text(json.dumps(rows))
        with pytest.raises(ValueError, match="flows 4 and 9 share source port a:10003"):
            load_workload(tmp_path / "bad.json")

    def test_duplicate_ids_rejected_on_load(self, tmp_path):
        import json

        from repro.flowsim.workload import load_workload

        row = {"flow_id": 1, "src": "a", "dst": "b", "size_bytes": 10, "start_time": 0.0}
        (tmp_path / "bad.json").write_text(json.dumps([row, row]))
        with pytest.raises(ValueError):
            load_workload(tmp_path / "bad.json")


class TestWorkloadGeneration:
    def test_deterministic(self, small_clos):
        a = generate_workload(small_clos, 0.01, 0.3, web_search_sizes(), seed=5)
        b = generate_workload(small_clos, 0.01, 0.3, web_search_sizes(), seed=5)
        assert a == b

    def test_seed_changes_workload(self, small_clos):
        a = generate_workload(small_clos, 0.01, 0.3, web_search_sizes(), seed=5)
        b = generate_workload(small_clos, 0.01, 0.3, web_search_sizes(), seed=6)
        assert a != b

    def test_load_scales_flow_count(self, small_clos):
        low = generate_workload(small_clos, 0.05, 0.1, web_search_sizes(), seed=7)
        high = generate_workload(small_clos, 0.05, 0.4, web_search_sizes(), seed=7)
        assert len(high) > 2 * len(low)

    def test_invalid_duration(self, small_clos):
        with pytest.raises(ValueError):
            generate_workload(small_clos, 0.0, 0.3, web_search_sizes(), seed=1)
