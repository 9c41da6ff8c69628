"""CascadeSimulation end-to-end: dispatch, accounting, determinism."""

from __future__ import annotations

import pytest

from repro.cascade import (
    CascadeConfig,
    CascadeSimulation,
    Tier,
    TierBudget,
    run_cascade_simulation,
)
from repro.core.pipeline import ExperimentConfig
from repro.des.kernel import Simulator
from repro.flowsim import FlowSpec
from repro.obs import MetricsRegistry
from repro.topology.clos import ClosParams, build_clos

#: A scenario that reliably produces promotions: tight K-S budget,
#: fast epochs, small score windows.
EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=4), load=0.25, duration_s=0.006, seed=9
)
CASCADE = CascadeConfig(
    epoch_s=0.001, window_epochs=3, min_window_samples=4,
    budget=TierBudget(ks=0.2),
)


@pytest.fixture(scope="module")
def cascade_run(trained_bundle):
    metrics = MetricsRegistry(enabled=True)
    result, cascade_sim = run_cascade_simulation(
        EXPERIMENT, trained_bundle, cascade=CASCADE, metrics=metrics
    )
    return result, cascade_sim, metrics


def _arrival(src: str, dst: str) -> FlowSpec:
    """A generator-numbered arrival, as ``flow_dispatch`` receives it."""
    return FlowSpec(0, src, dst, 10_000, 0.0, 10_000)


class TestDispatch:
    """Tier-routing of new flows, on an unstarted cascade."""

    @pytest.fixture()
    def fresh(self, trained_bundle):
        sim = Simulator(seed=5)
        topology = build_clos(ClosParams(clusters=4))
        return CascadeSimulation(sim, topology, trained_bundle, config=CASCADE)

    def test_focal_cluster_is_des(self, fresh):
        assert fresh.tier_of(CASCADE.hybrid.full_cluster) is Tier.DES
        for region in fresh.regions:
            assert fresh.tier_of(region) is Tier.FLOWSIM

    def test_background_flow_diverted_to_fluid(self, fresh):
        claimed = fresh.dispatch_flow(_arrival("server-c1-t0-s0", "server-c2-t0-s0"))
        assert claimed is True
        assert fresh.fluid.active_flows == 1

    def test_focal_flow_stays_on_packet_path(self, fresh):
        claimed = fresh.dispatch_flow(_arrival("server-c0-t0-s0", "server-c1-t0-s0"))
        assert claimed is False
        assert fresh.fluid.active_flows == 0
        assert fresh.per_tier_flows()["des"] == 1

    def test_hybrid_region_flow_stays_on_packet_path(self, fresh):
        fresh.controller.tiers[1] = Tier.HYBRID
        claimed = fresh.dispatch_flow(_arrival("server-c1-t0-s0", "server-c2-t0-s0"))
        assert claimed is False
        assert fresh.per_tier_flows()["hybrid"] == 1


class TestEndToEnd:
    def test_promotions_happen(self, cascade_run):
        result, cascade_sim, _ = cascade_run
        assert result.summary["promotions"] >= 1
        assert result.summary["epochs"] >= 4

    def test_all_tiers_carry_packets(self, cascade_run):
        result, _, _ = cascade_run
        packets = result.summary["per_tier_packets"]
        assert set(packets) == {"flowsim", "hybrid", "des"}
        assert packets["des"] > 0
        assert packets["flowsim"] + packets["hybrid"] > 0

    def test_residency_accounts_every_epoch(self, cascade_run):
        result, _, _ = cascade_run
        summary = result.summary
        for region, residency in summary["tier_residency"].items():
            assert sum(residency.values()) == summary["epochs"], region
            assert residency["des"] == 0  # only the focal cluster is DES

    def test_diverted_flows_equal_fluid_admissions(self, cascade_run):
        result, _, _ = cascade_run
        summary = result.summary
        assert summary["flows_diverted"] > 0
        assert summary["flows_diverted"] == summary["fluid"]["flows_admitted"]

    def test_fluid_fcts_counted_separately(self, cascade_run):
        result, _, _ = cascade_run
        fluid = result.summary["fluid"]
        assert len(result.fluid_fcts) == fluid["flows_completed"]
        assert result.total_flows_completed == (
            result.result.flows_completed + fluid["flows_completed"]
        )

    def test_promote_decisions_carry_handoffs(self, cascade_run):
        _, cascade_sim, _ = cascade_run
        promotes = [
            e for e in cascade_sim.decision_log.entries
            if e["kind"] == "promote"
        ]
        assert promotes
        for entry in promotes:
            handoff = entry["handoff"]
            assert handoff is not None
            assert handoff["from"] == "flowsim" and handoff["to"] == "hybrid"
            assert handoff["flows_transferred"] >= 0

    def test_controller_counters_published(self, cascade_run):
        result, _, metrics = cascade_run
        counters = {
            c["name"]: c["value"] for c in metrics.snapshot()["counters"]
        }
        assert counters["cascade.epochs"] == result.summary["epochs"]
        assert counters["cascade.promotions"] == result.summary["promotions"]
        assert counters["flowsim.flows_completed"] == (
            result.summary["fluid"]["flows_completed"]
        )

    def test_cascade_tier_probes_sampled(self, cascade_run):
        _, _, metrics = cascade_run
        samples = metrics.snapshot()["probes"]["samples"]
        tier_samples = [s for s in samples if s["name"] == "cascade_tier"]
        assert tier_samples
        values = {s["value"] for s in tier_samples}
        # At least one region was observed at each runtime tier.
        assert float(Tier.FLOWSIM.value) in values
        assert float(Tier.HYBRID.value) in values


class TestDeterminism:
    def test_same_seed_byte_identical_decisions(self, cascade_run, trained_bundle):
        result, cascade_sim, _ = cascade_run
        rerun, rerun_sim = run_cascade_simulation(
            EXPERIMENT, trained_bundle, cascade=CASCADE
        )
        assert (
            rerun_sim.decision_log.to_json()
            == cascade_sim.decision_log.to_json()
        )
        assert rerun.summary == result.summary
        assert rerun.fluid_fcts == result.fluid_fcts
        assert rerun.result.fcts == result.result.fcts
