"""FlowSpec validation: malformed flows are rejected with named fields."""

from __future__ import annotations

import pytest

from repro.flowsim import (
    EpochFlowSimulator,
    FlowSpec,
    validate_flow_spec,
    validate_flow_specs,
)
from repro.topology.routing import EcmpRouting


def _spec(**overrides) -> FlowSpec:
    base = dict(
        flow_id=0,
        src="server-c0-t0-s0",
        dst="server-c1-t0-s0",
        size_bytes=10_000,
        start_time=0.0,
    )
    base.update(overrides)
    base.setdefault("src_port", 10_000 + base["flow_id"])
    return FlowSpec(**base)


class TestValidateFlowSpec:
    def test_valid_spec_passes(self, small_clos):
        validate_flow_spec(_spec(), small_clos)

    def test_zero_size_rejected(self, small_clos):
        with pytest.raises(ValueError, match="size_bytes must be positive"):
            validate_flow_spec(_spec(size_bytes=0), small_clos)

    def test_negative_size_rejected(self, small_clos):
        with pytest.raises(ValueError, match="size_bytes must be positive"):
            validate_flow_spec(_spec(size_bytes=-3), small_clos)

    def test_negative_start_rejected(self, small_clos):
        with pytest.raises(ValueError, match="start_time"):
            validate_flow_spec(_spec(start_time=-1e-9), small_clos)

    def test_nan_start_rejected(self, small_clos):
        with pytest.raises(ValueError, match="start_time"):
            validate_flow_spec(_spec(start_time=float("nan")), small_clos)

    def test_unknown_src_rejected(self, small_clos):
        with pytest.raises(ValueError, match="src 'server-c9-t9-s9'"):
            validate_flow_spec(_spec(src="server-c9-t9-s9"), small_clos)

    def test_unknown_dst_rejected(self, small_clos):
        with pytest.raises(ValueError, match="dst"):
            validate_flow_spec(_spec(dst="ghost"), small_clos)

    def test_non_server_endpoint_unroutable(self, small_clos):
        with pytest.raises(ValueError, match="unroutable"):
            validate_flow_spec(_spec(src="tor-c0-0"), small_clos)
        with pytest.raises(ValueError, match="unroutable"):
            validate_flow_spec(_spec(dst="core-0"), small_clos)

    def test_same_host_rejected(self, small_clos):
        with pytest.raises(ValueError, match="src == dst"):
            validate_flow_spec(
                _spec(dst="server-c0-t0-s0"), small_clos
            )

    def test_error_names_the_flow(self, small_clos):
        with pytest.raises(ValueError, match="flow 7"):
            validate_flow_spec(_spec(flow_id=7, size_bytes=0), small_clos)

    def test_routing_check_accepts_routable_pair(self, small_clos):
        routing = EcmpRouting(small_clos)
        validate_flow_spec(_spec(), small_clos, routing)


class TestValidateFlowSpecs:
    def test_duplicate_flow_ids_rejected(self, small_clos):
        flows = [_spec(flow_id=1), _spec(flow_id=1, start_time=1e-3)]
        with pytest.raises(ValueError, match="duplicate flow ids"):
            validate_flow_specs(flows, small_clos)

    def test_all_flows_checked(self, small_clos):
        flows = [_spec(flow_id=0), _spec(flow_id=1, size_bytes=0)]
        with pytest.raises(ValueError, match="flow 1"):
            validate_flow_specs(flows, small_clos)


class TestSimulatorRejectsMalformedWorkloads:
    def test_run_rejects_zero_size(self, small_clos):
        simulator = EpochFlowSimulator(small_clos)
        with pytest.raises(ValueError, match="size_bytes"):
            simulator.run([_spec(size_bytes=0)])

    def test_run_rejects_unknown_endpoint(self, small_clos):
        simulator = EpochFlowSimulator(small_clos)
        with pytest.raises(ValueError, match="not in the topology"):
            simulator.run([_spec(dst="nowhere")])

    def test_run_rejects_duplicate_ids(self, small_clos):
        simulator = EpochFlowSimulator(small_clos)
        with pytest.raises(ValueError, match="duplicate"):
            simulator.run([_spec(flow_id=3), _spec(flow_id=3)])
