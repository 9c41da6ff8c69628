"""CascadeConfig / TierBudget / Tier: parsing and validation."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.cascade import CascadeConfig, Tier, TierBudget
from repro.core.hybrid import HybridConfig


class TestTier:
    def test_ordering_cheapest_to_most_faithful(self):
        assert Tier.FLOWSIM < Tier.HYBRID < Tier.DES

    def test_parse_accepts_tier_int_and_name(self):
        assert Tier.parse(Tier.HYBRID) is Tier.HYBRID
        assert Tier.parse(2) is Tier.HYBRID
        assert Tier.parse("hybrid") is Tier.HYBRID
        assert Tier.parse(" DES ") is Tier.DES

    def test_parse_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown tier"):
            Tier.parse("quantum")

    def test_label(self):
        assert Tier.FLOWSIM.label == "flowsim"


class TestTierBudget:
    def test_defaults_valid(self):
        budget = TierBudget()
        assert 0 < budget.ks <= 1

    def test_ks_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="ks budget"):
            TierBudget(ks=0.0)
        with pytest.raises(ValueError, match="ks budget"):
            TierBudget(ks=1.5)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown TierBudget fields"):
            TierBudget.from_dict({"ks": 0.2, "typo": 1})

    def test_ks_is_the_only_field(self):
        """The latency K-S shares ``ks`` and the drop-rate budget is a
        controller constant."""
        assert [f.name for f in fields(TierBudget)] == ["ks"]


class TestCascadeConfig:
    def test_defaults_valid(self):
        config = CascadeConfig()
        assert config.window_s == pytest.approx(
            config.epoch_s * config.window_epochs
        )

    def test_pinning_non_focal_region_to_des_rejected(self):
        with pytest.raises(ValueError, match="cannot pin region 2 to des"):
            CascadeConfig(pin_tiers={2: Tier.DES})
        with pytest.raises(ValueError, match=r"cannot pin region 0 .*full_cluster=1"):
            CascadeConfig.from_dict({"full_cluster": 1, "pin_tiers": {"0": "des"}})

    def test_pinning_focal_to_des_allowed(self):
        config = CascadeConfig(pin_tiers={0: Tier.DES})
        assert config.tier_for(0) is Tier.DES
        config = CascadeConfig.from_dict({"full_cluster": 2, "pin_tiers": {"2": "des"}})
        assert config.tier_for(2) is Tier.DES

    def test_tier_for_respects_pins_then_initial(self):
        """Unpinned regions start at flowsim."""
        config = CascadeConfig(pin_tiers={3: Tier.HYBRID})
        assert config.tier_for(3) is Tier.HYBRID
        assert config.tier_for(1) is Tier.FLOWSIM
        assert config.is_pinned(3) and not config.is_pinned(1)

    def test_invalid_knobs_rejected(self):
        # NaN and inf used to pass and fail only when the first epoch
        # was scheduled, after the model had loaded.
        for epoch_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epoch_s"):
                CascadeConfig(epoch_s=epoch_s)
        with pytest.raises(ValueError, match="window_epochs"):
            CascadeConfig(window_epochs=0)
        with pytest.raises(ValueError, match="min_window_samples"):
            CascadeConfig(min_window_samples=0)

    def test_fields_are_the_ones_callers_set(self):
        """Cadence, window, budget and pins; the controller's pacing and
        hysteresis are constants."""
        assert [f.name for f in fields(CascadeConfig)] == [
            "epoch_s", "window_epochs", "budget", "pin_tiers",
            "min_window_samples", "hybrid",
        ]

    def test_hybrid_config_keeps_remote_traffic(self):
        config = CascadeConfig.from_dict({"full_cluster": 1, "batch_window_s": 1e-6})
        assert config.hybrid == HybridConfig(
            full_cluster=1, elide_remote_traffic=False, batch_window_s=1e-6
        )
        # Background flows are diverted to the fluid tier, never elided.
        assert CascadeConfig().hybrid.elide_remote_traffic is False
        with pytest.raises(ValueError, match="elide_remote_traffic"):
            CascadeConfig(hybrid=HybridConfig())
        with pytest.raises(ValueError, match="elide_remote_traffic"):
            CascadeConfig.from_dict({"elide_remote_traffic": True})

    def test_single_black_box_rejected(self):
        """The cascade keys models, windows and tiers by cluster."""
        with pytest.raises(ValueError, match="single_black_box"):
            CascadeConfig.from_dict({"single_black_box": True})

    def test_from_dict_normalizes_json_types(self):
        config = CascadeConfig.from_dict({
            "full_cluster": 1,
            "budget": {"ks": 0.2},
            "pin_tiers": {"3": "flowsim"},
        })
        assert config.budget.ks == 0.2
        assert config.pin_tiers[3] is Tier.FLOWSIM
        assert config.hybrid.full_cluster == 1

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown CascadeConfig fields"):
            CascadeConfig.from_dict({"cadence": 1})
