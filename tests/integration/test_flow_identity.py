"""One flow, one identity: every engine numbers a flow as DES does.

The traffic generator numbers each arrival once — its ``flow_id`` from
the counter every arrival shares, its source port from its source host
— before the elision filter or the cascade's dispatch hook sees it.  So
a flow has the same id, source port and trace id whether DES launches
it, the elided hybrid keeps it, the cascade diverts it to the fluid
tier (and a promotion relaunches it) or a pre-drawn schedule records
it.  ``SCENARIO`` is the smallest seeded one on which launch-order
numbering gave the elided hybrid other ids than DES for all 8 paired
focal flows, and other source ports for 3 of them.
"""

from __future__ import annotations

import pytest

from repro.cascade import CascadeConfig, TierBudget
from repro.core.hybrid import HybridConfig
from repro.core.pipeline import ExperimentConfig
from repro.core.world import build_world
from repro.obs.trace import FlightRecorder, trace_id
from repro.pdes import extract_flow_schedule
from repro.topology.clos import ClosParams, build_clos

SCENARIO = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=42000
)
#: Diverts background flows at once and promotes region 1 mid-run.
CASCADE = CascadeConfig(
    epoch_s=0.001, window_epochs=3, min_window_samples=4, budget=TierBudget(ks=0.2)
)


def _key(flow) -> tuple:
    """What pairs a flow across engines without trusting its id."""
    return (flow.src, flow.dst, flow.size_bytes, flow.start_time)


def _run(trained=None, **engine):
    tracer = FlightRecorder(seed=SCENARIO.seed, capacity=1_000_000)
    world = build_world(SCENARIO, trained, tracer=tracer, **engine)
    world.run()
    return world.traffic, tracer.records()


def _admitted(records) -> dict[str, tuple]:
    """Trace id -> (src, dst, size) of its first ``flow.admit``."""
    admitted: dict[str, tuple] = {}
    for record in records:
        if record["name"] == "flow.admit":
            args = record["args"]
            admitted.setdefault(record["trace"], (args["src"], args["dst"], args["size"]))
    return admitted


@pytest.fixture(scope="module")
def des():
    traffic, records = _run()
    return {_key(record): record for record in traffic.flows}, records


@pytest.fixture(scope="module")
def elided(trained_bundle):
    return _run(trained_bundle, hybrid=HybridConfig())


def test_elided_hybrid_flows_carry_des_ids_ports_and_traces(des, elided):
    des_flows, des_records = des
    traffic, records = elided
    assert traffic.flows_elided > 0
    paired = [
        (flow, des_flows[_key(flow)])
        for flow in traffic.flows
        if flow.completion_time is not None
        and des_flows.get(_key(flow)) is not None
        and des_flows[_key(flow)].completion_time is not None
    ]
    assert len(paired) >= 8
    des_admitted, admitted = _admitted(des_records), _admitted(records)
    for flow, twin in paired:
        assert flow.flow_id == twin.flow_id
        assert flow.src_port == twin.src_port
        trace = trace_id(SCENARIO.seed, flow.flow_id)
        assert admitted[trace] == des_admitted[trace] == _key(flow)[:3]


def test_cascade_flows_carry_des_ids(des, trained_bundle):
    des_flows, _ = des
    traffic, records = _run(trained_bundle, cascade=CASCADE)
    # Each fluid flow is traced under its DES twin's id at diversion.
    dispatched = {
        record["trace"]: des_flows[
            (record["args"]["src"], record["args"]["dst"], record["args"]["size"],
             record["t0"])
        ]
        for record in records
        if record["name"] == "tier.dispatch"
    }
    assert len(dispatched) == traffic.flows_diverted > 0
    for trace, twin in dispatched.items():
        assert trace == trace_id(SCENARIO.seed, twin.flow_id)
    carried = 0
    for flow in traffic.flows:
        twin = des_flows.get(_key(flow))
        if twin is None:
            # A promotion relaunched a fluid flow's remaining bytes:
            # the same flow, so its twin's id and port.
            carried += 1
            twin = dispatched[trace_id(SCENARIO.seed, flow.flow_id)]
        assert (flow.flow_id, flow.src, flow.dst, flow.src_port) == (
            twin.flow_id, twin.src, twin.dst, twin.src_port
        )
    assert carried > 0


def test_pre_drawn_elided_schedule_is_the_live_one(elided):
    traffic, _ = elided
    topology = build_clos(SCENARIO.clos)
    schedule = extract_flow_schedule(topology, SCENARIO, HybridConfig())
    assert [(f.flow_id, f.src_port, *_key(f)) for f in schedule] == [
        (f.flow_id, f.src_port, *_key(f)) for f in traffic.flows
    ]
    assert schedule.elided == traffic.flows_elided
    # Elision drops arrivals and renumbers none: DES's schedule holds
    # every kept flow as it is.
    assert set(schedule) < set(extract_flow_schedule(topology, SCENARIO))
