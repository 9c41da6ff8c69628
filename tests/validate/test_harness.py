"""End-to-end tests of the differential fidelity harness."""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridConfig
from repro.core.pipeline import ExperimentConfig
from repro.topology.clos import ClosParams
from repro.validate import ValidateConfig, run_differential_pair

_PAIR_CONFIG = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.004, seed=17
)


@pytest.fixture(scope="module")
def pair(trained_bundle):
    """One scored differential pair shared by the module's tests."""
    return run_differential_pair(_PAIR_CONFIG, trained_bundle)


class TestValidateConfig:
    def test_region_must_be_approximated(self):
        with pytest.raises(ValueError, match="region_cluster"):
            ValidateConfig(region_cluster=0)
        with pytest.raises(ValueError, match="region_cluster"):
            ValidateConfig.from_dict({"region_cluster": 2, "full_cluster": 2})

    def test_region_must_exist(self, trained_bundle):
        with pytest.raises(ValueError, match="region_cluster"):
            run_differential_pair(
                _PAIR_CONFIG, trained_bundle, validate=ValidateConfig(region_cluster=9)
            )

    def test_hybrid_config_carries_matched_workload_default(self):
        assert ValidateConfig().hybrid == HybridConfig(elide_remote_traffic=False)
        config = ValidateConfig.from_dict({"full_cluster": 1, "region_cluster": 0})
        assert config.hybrid == HybridConfig(full_cluster=1, elide_remote_traffic=False)

    def test_single_black_box_rejected(self):
        """The harness taps the region's own model, so a rest-of-network
        model would fail later with a KeyError."""
        with pytest.raises(ValueError, match="single_black_box"):
            ValidateConfig.from_dict({"single_black_box": True})


class TestDifferentialPair:
    def test_both_sides_ran(self, pair):
        assert pair.full.events_executed > 0
        assert pair.hybrid.events_executed > 0
        assert pair.hybrid.model_packets > 0
        # The hybrid elides fabric events; same workload, fewer events.
        assert pair.hybrid.events_executed < pair.full.events_executed

    def test_outcome_streams_collected(self, pair):
        assert len(pair.full_outcomes) > 0
        assert len(pair.hybrid_outcomes) > 0
        assert len(pair.hybrid_outcomes) == pair.hybrid_sim.models[1].packets_handled

    def test_report_complete(self, pair):
        report = pair.report
        assert report.latency["full_samples"] > 0
        assert report.latency["hybrid_samples"] > 0
        assert report.latency["ks"] is not None
        assert report.latency["wasserstein"] is not None
        assert report.macro["buckets"] == 4  # 4 ms at the 1 ms bucket
        assert 0.0 <= sum(report.drop_rate[k] >= 0 for k in ("full", "hybrid"))

    def test_zero_invariant_violations(self, pair):
        pair.checker.assert_clean()
        assert pair.report.invariant_violations == 0

    def test_report_is_json_serializable(self, pair):
        import json

        json.dumps(pair.report.to_dict())

    def test_deterministic(self, trained_bundle, pair):
        """Same pair, run again: byte-identical scores (the harness
        draws everything from seeds and simulated time)."""
        again = run_differential_pair(_PAIR_CONFIG, trained_bundle)
        first = pair.report.to_dict()
        second = again.report.to_dict()
        assert first == second

    def test_conservation_checked_on_every_model(self, pair):
        for model in pair.hybrid_sim.models.values():
            assert (
                model.packets_dropped + model.packets_delivered
                == model.packets_handled
            )
