"""Flow-aware scoring windows and cascade tracing.

Satellite 2 of the tracing PR: every DecisionLog entry names the flows
whose FCT samples sat in the region's scoring window when the decision
fired (``window_flows``), so an operator can jump from a promote record
straight to ``repro trace show`` for the flows that triggered it.  The
tentpole side: a traced cascade records ``tier.dispatch`` for every
fluid diversion, ``tier.handoff`` for every adapter transition, and
fluid completions — without perturbing the (byte-identical) decision
log.
"""

from __future__ import annotations

import pytest

from repro.cascade import CascadeConfig, TierBudget, run_cascade_simulation
from repro.core.pipeline import ExperimentConfig
from repro.obs.trace import FlightRecorder
from repro.topology.clos import ClosParams
from repro.validate.windows import RegionWindows, SlidingWindow

EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=4), load=0.25, duration_s=0.006, seed=9
)
CASCADE = CascadeConfig(
    epoch_s=0.001, window_epochs=3, min_window_samples=4,
    budget=TierBudget(ks=0.2),
)


# ----------------------------------------------------------------------
# Window plumbing (unit level)
# ----------------------------------------------------------------------
class TestWindowTags:
    def test_tags_follow_samples_and_evict_together(self):
        window = SlidingWindow()
        window.add(0.0, 10.0, tag="flow:0")
        window.add(0.5, 20.0)  # untagged samples are legal
        window.add(1.0, 30.0, tag="fluid:2")
        assert window.tags() == ["flow:0", "fluid:2"]
        window.evict_before(0.25)
        assert window.values() == [20.0, 30.0]
        assert window.tags() == ["fluid:2"]

    def test_window_flows_sorted_unique(self):
        windows = RegionWindows()
        windows.record_fct(0.0, 0.1, flow="fluid:3")
        windows.record_fct(0.1, 0.2, flow="flow:1")
        windows.record_fct(0.2, 0.3, flow="fluid:3")
        windows.record_fct(0.3, 0.4)  # anonymous sample
        assert windows.window_flows() == ["flow:1", "fluid:3"]
        windows.evict_before(0.15)  # drops flow:1 and the first fluid:3
        assert windows.window_flows() == ["fluid:3"]


# ----------------------------------------------------------------------
# End-to-end: traced cascade run (module-cached, it promotes reliably)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_cascade(trained_bundle):
    # Capacity far above the run's record count: the assertions below
    # reason about *all* records, so nothing may fall off the ring.
    tracer = FlightRecorder(seed=EXPERIMENT.seed, capacity=1_000_000)
    result, cascade_sim = run_cascade_simulation(
        EXPERIMENT, trained_bundle, cascade=CASCADE, tracer=tracer
    )
    return result, cascade_sim, tracer


class TestDecisionWindowFlows:
    def test_every_decision_names_its_window_flows(self, traced_cascade):
        _, cascade_sim, _ = traced_cascade
        entries = cascade_sim.controller.log.entries
        assert entries, "scenario produced no decisions"
        for entry in entries:
            assert "window_flows" in entry
            for name in entry["window_flows"]:
                domain, _, flow = name.partition(":")
                assert domain in ("flow", "fluid") and flow.isdigit()
            assert entry["window_flows"] == sorted(entry["window_flows"])

    def test_some_decision_scored_fluid_flows(self, traced_cascade):
        """Promotions fire while regions run the fluid tier, so fluid
        flow names must reach at least one entry's scoring window."""
        _, cascade_sim, _ = traced_cascade
        named = [
            name
            for entry in cascade_sim.controller.log.entries
            for name in entry["window_flows"]
        ]
        assert any(name.startswith("fluid:") for name in named)


class TestCascadeTraceRecords:
    def test_fluid_dispatch_and_completion_traced(self, traced_cascade):
        _, cascade_sim, tracer = traced_cascade
        records = tracer.records()
        dispatches = [r for r in records if r["name"] == "tier.dispatch"]
        assert dispatches, "no fluid diversion was traced"
        assert all(r["args"]["tier"] == "flowsim" for r in dispatches)
        # A fluid flow traces under its arrival id, once per diversion;
        # a packet record of it can only be a later promotion relaunch.
        dispatched = {r["trace"]: r["seq"] for r in dispatches}
        assert len(dispatched) == cascade_sim.generator.flows_diverted
        assert all(
            r["seq"] > dispatched[r["trace"]]
            for r in records
            if r["name"] == "flow.admit" and r["trace"] in dispatched
        )
        completions = [
            r
            for r in records
            if r["name"] == "flow.complete" and r["trace"] in dispatched
        ]
        assert completions, "no fluid completion was traced"
        assert all("fct" in r["args"] for r in completions)

    def test_handoffs_traced_per_transition(self, traced_cascade):
        _, cascade_sim, tracer = traced_cascade
        handoffs = [
            r for r in tracer.records() if r["name"] == "tier.handoff"
        ]
        transitions = [
            e
            for e in cascade_sim.controller.log.entries
            if e["kind"] in ("promote", "demote")
        ]
        assert len(handoffs) == len(transitions)
        for record in handoffs:
            assert record["args"]["kind"] in ("promote", "demote")
            assert record["args"]["from_tier"] != record["args"]["to_tier"]

    def test_tracing_leaves_decision_log_byte_identical(
        self, traced_cascade, trained_bundle
    ):
        _, cascade_sim, _ = traced_cascade
        untraced_result, untraced_sim = run_cascade_simulation(
            EXPERIMENT, trained_bundle, cascade=CASCADE
        )
        assert (
            untraced_sim.controller.log.to_json()
            == cascade_sim.controller.log.to_json()
        )
