"""Event-horizon batching integration tests (ISSUE 6 tentpole).

The acceptance criterion: a float64 hybrid run with the batching
window (and with exact-mode memoization) produces *identical
simulation outcomes* to the per-packet scalar path — same drops, same
RTT samples, same FCTs, same model decisions.  The kernel event count
differs only by the flush events themselves, which carry no state.
"""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridConfig
from repro.core.pipeline import ExperimentConfig, run_hybrid_simulation
from repro.topology.clos import ClosParams

CONFIG = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=26
)

COUNTER_KEYS = {
    "batched_rounds",
    "batched_packets",
    "batch_flushes",
    "scalar_fallbacks",
    "memo_hits",
    "memo_misses",
    "memo_hit_rate",
}


def _outcomes(result):
    return (
        result.drops,
        result.rtt_samples,
        result.fcts,
        result.model_packets,
        result.model_drops,
        result.flows_completed,
    )


class TestBatchedEventIdentity:
    def test_batched_float64_matches_scalar_path(self, trained_bundle):
        scalar, _ = run_hybrid_simulation(CONFIG, trained_bundle)
        batched, hybrid_sim = run_hybrid_simulation(
            CONFIG, trained_bundle, hybrid=HybridConfig(batch_window_s=1e-6)
        )
        assert _outcomes(batched) == _outcomes(scalar)
        counters = hybrid_sim.hot_path_counters(batched.wallclock_seconds)
        # Every model packet went through the batcher, none were lost.
        assert counters["batched_packets"] == batched.model_packets > 0
        assert counters["batched_rounds"] > 0
        assert counters["batch_flushes"] > 0
        # The extra kernel events are exactly the window-flush events
        # (the end-of-run drain is a direct call, not an event).
        assert batched.events_executed > scalar.events_executed

    def test_batched_with_exact_memo_matches_scalar_path(self, trained_bundle):
        scalar, _ = run_hybrid_simulation(CONFIG, trained_bundle)
        memoized, hybrid_sim = run_hybrid_simulation(
            CONFIG,
            trained_bundle,
            hybrid=HybridConfig(batch_window_s=1e-6, memoize_inference=True),
        )
        assert _outcomes(memoized) == _outcomes(scalar)
        counters = hybrid_sim.hot_path_counters(memoized.wallclock_seconds)
        assert counters["memo_hits"] + counters["memo_misses"] == (
            memoized.model_packets
        )
        # Every batched packet, at every width, is a hit or a miss.
        assert counters["memo_hits"] + counters["memo_misses"] == (
            counters["batched_packets"]
        )

    def test_batched_run_is_deterministic(self, trained_bundle):
        hc = HybridConfig(batch_window_s=1e-6, memoize_inference=True)
        r1, _ = run_hybrid_simulation(CONFIG, trained_bundle, hybrid=hc)
        r2, _ = run_hybrid_simulation(CONFIG, trained_bundle, hybrid=hc)
        assert _outcomes(r1) == _outcomes(r2)
        assert r1.events_executed == r2.events_executed

    def test_routing_change_inside_a_window_keeps_outcomes(self, trained_bundle):
        """Packets held when a link failure lands inside their batching
        window must be decided under the routing they arrived in (their
        flow's path features and egress), or the batched run leaves the
        per-packet one: the failure drains them first.  Until the
        failure, runs that differ only in its time are equal, so a
        failure just after a held arrival lands inside its window."""
        from repro.core.world import build_world

        def config(fail_at):
            return ExperimentConfig(
                clos=ClosParams(clusters=3), load=0.25, duration_s=0.003, seed=7,
                failures=[
                    (fail_at, "core-0", "agg-c1-0"),
                    (fail_at + 5e-4, "core-0", "agg-c1-0", "up"),
                ],
            )

        inline = HybridConfig(elide_remote_traffic=False)
        batched = HybridConfig(elide_remote_traffic=False, batch_window_s=1e-6)
        world = build_world(config(0.0015), trained_bundle, hybrid=inline)
        arrivals = []
        world.hybrid.models[1].on_outcome = (
            lambda now, latency, dropped: arrivals.append(now)
        )
        world.run()
        # An arrival after a quiet microsecond opens its own window.
        openers = [
            now for before, now in zip(arrivals, arrivals[1:])
            if 0.0012 < now < 0.0015 and now - before > 1e-6
        ]
        assert len(openers) >= 3
        for opener in openers[:3]:
            fail_at = opener + 0.4e-6
            scalar, _ = run_hybrid_simulation(config(fail_at), trained_bundle, hybrid=inline)
            held, hybrid_sim = run_hybrid_simulation(
                config(fail_at), trained_bundle, hybrid=batched
            )
            assert held.determinism_signature() == scalar.determinism_signature()
            assert hybrid_sim.failure_injector.applied

    def test_float32_batched_close_to_scalar_float32(self, trained_bundle):
        scalar, _ = run_hybrid_simulation(
            CONFIG, trained_bundle, hybrid=HybridConfig(inference_dtype="float32")
        )
        batched, _ = run_hybrid_simulation(
            CONFIG,
            trained_bundle,
            hybrid=HybridConfig(inference_dtype="float32", batch_window_s=1e-6),
        )
        # float32 batching reassociates GEMMs: within-tolerance, and
        # the packet/drop totals must still agree on this short run.
        assert batched.model_packets == scalar.model_packets
        assert batched.model_drops == scalar.model_drops


class TestBatcherConfiguration:
    def test_counters_schema_without_batching(self, trained_bundle):
        result, hybrid_sim = run_hybrid_simulation(CONFIG, trained_bundle)
        counters = hybrid_sim.hot_path_counters(result.wallclock_seconds)
        assert COUNTER_KEYS <= set(counters)
        assert all(counters[key] == 0.0 for key in COUNTER_KEYS)

    def test_window_requires_fused_inference(self):
        """The reference predict_step path has no batched form, so every
        stage that takes a window rejects it without the fused engine
        when its configs are built (a spec at load), before any model
        is trained or fetched."""
        from repro.runs.executor import stage_configs
        from repro.runs.spec import ScenarioSpec

        options = {"use_fused_inference": False, "batch_window_s": 1e-6}
        with pytest.raises(ValueError, match="use_fused_inference"):
            HybridConfig(**options)
        for stage in ("hybrid", "pdes-hybrid", "cascade", "validate"):
            with pytest.raises(ValueError, match="use_fused_inference"):
                stage_configs(stage, options)
        with pytest.raises(ValueError, match="use_fused_inference"):
            ScenarioSpec.from_dict({"name": "x", "stage": "hybrid", "hybrid": options})
        # Without a window the reference path is a valid choice.
        HybridConfig(use_fused_inference=False)

    def test_batcher_rejects_nonpositive_window(self):
        from repro.core.batcher import InferenceBatcher
        from repro.des.kernel import Simulator

        with pytest.raises(ValueError):
            InferenceBatcher(Simulator(seed=1), 0.0)

    @pytest.mark.parametrize("options", [
        {"memoize_inference": True},
        {"memoize_inference": True, "batch_window_s": 0.0},
        {"batch_window_s": -1e-6},
        {"batch_window_s": -1e-6, "memoize_inference": True},
    ])
    @pytest.mark.parametrize("config_type", ["hybrid", "cascade", "validate"])
    def test_memo_without_window_and_negative_window_rejected(
        self, config_type, options
    ):
        """A memo with no batching window (or a negative window) would
        run unmemoized and unbatched without a word, so the stage's
        options are rejected when its configs are built, naming the
        field."""
        from repro.runs.executor import stage_configs

        with pytest.raises(ValueError, match="batch_window_s"):
            stage_configs(config_type, options)

    def test_window_clamped_to_causal_horizon(self):
        from repro.core.batcher import InferenceBatcher
        from repro.core.cluster_model import MIN_REGION_LATENCY_S
        from repro.des.kernel import Simulator

        batcher = InferenceBatcher(Simulator(seed=1), 1.0)
        assert batcher.window_s == MIN_REGION_LATENCY_S


class TestValidateWithBatching:
    def test_differential_pair_clean_with_batching_and_memo(self, trained_bundle):
        from repro.validate import ValidateConfig, run_differential_pair

        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=91
        )
        plain = run_differential_pair(config, trained_bundle)
        plain.checker.assert_clean()
        batched = run_differential_pair(
            config,
            trained_bundle,
            validate=ValidateConfig.from_dict(
                {"batch_window_s": 1e-6, "memoize_inference": True}
            ),
        )
        batched.checker.assert_clean()
        assert batched.checker.violations == []
        # Exact-mode memo + batching changes nothing the report can see.
        assert batched.report.to_dict() == plain.report.to_dict()
