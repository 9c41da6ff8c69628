"""FidelityController: decision rules, pacing, hysteresis, audit log."""

from __future__ import annotations

import pytest

from repro.cascade import CascadeConfig, FidelityController, Tier, TierBudget
from repro.validate import RegionWindows


def _fill(windows: RegionWindows, values, time: float = 0.0) -> None:
    for value in values:
        windows.record_fct(time, value)


def _controller(regions, config=None, region_values=None, reference_values=None):
    """A controller over synthetic windows.

    ``region_values``: region -> FCT sample list; defaults to samples
    identical to the reference (ratio 0).
    """
    config = config or CascadeConfig(min_window_samples=4)
    reference = RegionWindows()
    _fill(reference, reference_values or [1e-3] * 8, time=config.epoch_s)
    windows = {}
    for region in regions:
        windows[region] = RegionWindows()
        values = (region_values or {}).get(region, reference_values or [1e-3] * 8)
        _fill(windows[region], values, time=config.epoch_s)
    controller = FidelityController(config, regions, reference, windows)
    return controller, reference, windows


BREACHING = [5e-3] * 8  # K-S = 1 against the 1e-3 reference


def _promoted(region_values):
    """Region 1 reaches hybrid the way a run moves it there: it breaches
    at flowsim, is promoted at epoch 1 and sits out epoch 2, the one
    cooldown epoch.  From epoch 3 on its FCT window holds
    ``region_values``."""
    config = CascadeConfig(min_window_samples=4)
    controller, _, windows = _controller(
        [1], config=config, region_values={1: BREACHING}
    )
    assert [d.kind for d in controller.evaluate(epoch=1, now=config.epoch_s)] == [
        "promote"
    ]
    assert controller.evaluate(epoch=2, now=config.epoch_s) == []  # cooldown
    assert controller.tiers[1] is Tier.HYBRID
    windows[1] = RegionWindows()
    _fill(windows[1], region_values, time=config.epoch_s)
    return controller, windows


def _kinds(controller, epoch):
    return [d.kind for d in controller.evaluate(epoch=epoch, now=controller.config.epoch_s)]


class TestBreachRatio:
    def test_components_scaled_by_budget(self):
        scores = {
            "fct": {"ks": 0.2, "wasserstein": 1e-3},
            "latency": {"ks": 0.1},
            "drop_rate": {"delta": -0.02},
        }
        budget = TierBudget(ks=0.4)
        ratio, components = FidelityController.breach_ratio(scores, budget)
        assert components["fct_ks"] == pytest.approx(0.5)
        assert components["latency_ks"] == pytest.approx(0.25)
        # The drop-rate delta is scored against the fixed 0.05 budget.
        assert components["drop_delta"] == pytest.approx(0.4)
        assert "fct_w1" not in components  # the Wasserstein distance is not scored
        assert ratio == pytest.approx(0.5)

    def test_latency_ks_falls_back_to_ks_budget(self):
        scores = {
            "fct": {"ks": None},
            "latency": {"ks": 0.2},
            "drop_rate": {"delta": 0.0},
        }
        ratio, components = FidelityController.breach_ratio(
            scores, TierBudget(ks=0.4)
        )
        assert components["latency_ks"] == pytest.approx(0.5)
        assert "fct_ks" not in components


class TestPromotion:
    def test_breaching_region_promoted(self):
        config = CascadeConfig(min_window_samples=4, budget=TierBudget(ks=0.35))
        controller, _, _ = _controller(
            [1], config=config, region_values={1: BREACHING}
        )
        decisions = controller.evaluate(epoch=1, now=config.epoch_s)
        assert [d.kind for d in decisions] == ["promote"]
        assert decisions[0].from_tier is Tier.FLOWSIM
        assert decisions[0].to_tier is Tier.HYBRID
        assert controller.tiers[1] is Tier.HYBRID
        assert decisions[0].ratio > 1.0

    def test_promotion_pacing_worst_first(self):
        """One promotion per epoch, worst breach first."""
        config = CascadeConfig(min_window_samples=4, budget=TierBudget(ks=0.35))
        # Region 2 breaches harder (bigger drop delta via drops).
        controller, _, windows = _controller(
            [1, 2], config=config,
            region_values={1: BREACHING, 2: BREACHING},
        )
        for _ in range(10):
            windows[2].record_outcome(config.epoch_s, None, True)
        decisions = controller.evaluate(epoch=1, now=config.epoch_s)
        assert len(decisions) == 1
        assert decisions[0].region == 2
        assert controller.tiers[1] is Tier.FLOWSIM  # waits its turn
        (second,) = controller.evaluate(epoch=2, now=config.epoch_s)
        assert (second.kind, second.region) == ("promote", 1)

    def test_promotion_tie_broken_by_region_index(self):
        config = CascadeConfig(min_window_samples=4)
        controller, _, _ = _controller(
            [3, 1], config=config,
            region_values={1: BREACHING, 3: BREACHING},
        )
        decisions = controller.evaluate(epoch=1, now=config.epoch_s)
        assert decisions[0].region == 1

    def test_starved_window_is_not_evidence(self):
        config = CascadeConfig(min_window_samples=8)
        controller, _, _ = _controller(
            [1], config=config, region_values={1: [5e-3] * 2}
        )
        decisions = controller.evaluate(epoch=1, now=config.epoch_s)
        assert decisions == []
        assert controller.tiers[1] is Tier.FLOWSIM

    def test_pinned_region_never_moves(self):
        config = CascadeConfig(
            min_window_samples=4, pin_tiers={1: Tier.FLOWSIM}
        )
        controller, _, _ = _controller(
            [1], config=config, region_values={1: BREACHING}
        )
        assert controller.evaluate(epoch=1, now=config.epoch_s) == []
        assert controller.tiers[1] is Tier.FLOWSIM


class TestCeilingBreach:
    def test_breach_at_hybrid_is_audited_not_acted_on(self):
        controller, _ = _promoted(BREACHING)
        decisions = controller.evaluate(epoch=3, now=controller.config.epoch_s)
        assert [d.kind for d in decisions] == ["breach_at_ceiling"]
        assert not decisions[0].is_transition
        assert controller.tiers[1] is Tier.HYBRID

    def test_persistent_breach_logged_once(self):
        controller, _ = _promoted(BREACHING)
        assert _kinds(controller, 3) == ["breach_at_ceiling"]
        assert _kinds(controller, 4) == []
        assert [e["kind"] for e in controller.log.entries] == [
            "promote", "breach_at_ceiling",
        ]


class TestDemotion:
    def test_calm_hybrid_region_demoted_after_patience(self):
        """Demoted after exactly two calm scored epochs."""
        controller, _ = _promoted([1e-3] * 8)
        assert _kinds(controller, 3) == []
        decisions = controller.evaluate(epoch=4, now=controller.config.epoch_s)
        assert [d.kind for d in decisions] == ["demote"]
        assert decisions[0].entry["reason"] == "ratio <= 0.5 for 2 consecutive epochs"
        assert controller.tiers[1] is Tier.FLOWSIM

    def test_breach_resets_patience(self):
        controller, windows = _promoted([1e-3] * 8)
        assert _kinds(controller, 3) == []
        # An in-window breach: replace the region's samples.
        windows[1] = RegionWindows()
        _fill(windows[1], BREACHING, time=controller.config.epoch_s)
        assert _kinds(controller, 4) == ["breach_at_ceiling"]
        assert controller.tiers[1] is Tier.HYBRID
        # The calm streak starts over: two more calm epochs to demote.
        windows[1] = RegionWindows()
        _fill(windows[1], [1e-3] * 8, time=controller.config.epoch_s)
        assert _kinds(controller, 5) == []
        assert _kinds(controller, 6) == ["demote"]

    def test_calm_flowsim_region_stays(self):
        config = CascadeConfig(min_window_samples=4)
        controller, _, _ = _controller([1], config=config)
        for epoch in (1, 2, 3):
            assert controller.evaluate(epoch=epoch, now=config.epoch_s) == []
        assert controller.tiers[1] is Tier.FLOWSIM


class TestCooldown:
    def test_transition_starts_refractory_period(self):
        """A move, either way, skips exactly one epoch."""
        # Promoted at epoch 1; still breaching, but in cooldown at
        # epoch 2: no audit record until epoch 3.
        controller, windows = _promoted(BREACHING)
        assert _kinds(controller, 3) == ["breach_at_ceiling"]
        windows[1] = RegionWindows()
        _fill(windows[1], [1e-3] * 8, time=controller.config.epoch_s)
        assert _kinds(controller, 4) == []
        assert _kinds(controller, 5) == ["demote"]
        # Breaching again at flowsim, but sitting out epoch 6.
        windows[1] = RegionWindows()
        _fill(windows[1], BREACHING, time=controller.config.epoch_s)
        assert _kinds(controller, 6) == []
        assert _kinds(controller, 7) == ["promote"]


class TestDecisionLog:
    def test_entries_carry_full_audit_fields(self):
        config = CascadeConfig(min_window_samples=4)
        controller, _, _ = _controller(
            [1], config=config, region_values={1: BREACHING}
        )
        controller.evaluate(epoch=1, now=config.epoch_s)
        (entry,) = controller.log.entries
        assert entry["kind"] == "promote"
        assert entry["from"] == "flowsim" and entry["to"] == "hybrid"
        assert entry["ratio"] > 1.0
        assert "fct_ks" in entry["components"]
        assert entry["reason"]
        assert entry["handoff"] is None  # attached by the cascade, not here

    def test_decision_entry_is_log_entry(self):
        """Attaching a handoff to a Decision lands in the log."""
        config = CascadeConfig(min_window_samples=4)
        controller, _, _ = _controller(
            [1], config=config, region_values={1: BREACHING}
        )
        (decision,) = controller.evaluate(epoch=1, now=config.epoch_s)
        decision.entry["handoff"] = {"flows_transferred": 3}
        assert controller.log.entries[0]["handoff"] == {"flows_transferred": 3}

    def test_identical_inputs_identical_bytes(self):
        def run():
            config = CascadeConfig(min_window_samples=4)
            controller, _, windows = _controller(
                [1, 2], config=config,
                region_values={1: BREACHING, 2: [1e-3] * 8},
            )
            for epoch in range(1, 4):
                controller.evaluate(epoch=epoch, now=epoch * config.epoch_s)
            return controller.log.to_json()

        assert run() == run()

    def test_save_round_trips(self, tmp_path):
        import json

        config = CascadeConfig(min_window_samples=4)
        controller, _, _ = _controller(
            [1], config=config, region_values={1: BREACHING}
        )
        controller.evaluate(epoch=1, now=config.epoch_s)
        path = controller.log.save(tmp_path / "decisions.json")
        loaded = json.loads(path.read_text())
        assert loaded == controller.log.entries
