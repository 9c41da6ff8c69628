"""End-to-end observability: pipeline, manifests, CLI, zero-guards."""

from __future__ import annotations

import json

import pytest

from repro.cascade import CascadeConfig, TierBudget, run_cascade_simulation
from repro.core.hybrid import HybridConfig, HybridSimulation
from repro.core.pipeline import (
    ExperimentConfig,
    RunResult,
    run_hybrid_simulation,
)
from repro.des.kernel import Simulator
from repro.obs import MetricsRegistry, read_jsonl
from repro.pdes import HybridShardConfig, run_hybrid_sharded
from repro.topology.clos import ClosParams, build_clos

RUN_CONFIG = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=31
)
#: Batched inference with the exact memo (the default key), float64.
BATCHED_MEMO = HybridConfig(
    elide_remote_traffic=False, batch_window_s=5e-7, memoize_inference=True
)
#: Three clusters: two approximated ones share each direction's engine.
BATCHED_RUN = ExperimentConfig(
    clos=ClosParams(clusters=3), load=0.25, duration_s=0.003, seed=7
)
#: A cascade run short enough for the suite that still promotes.
CASCADE_RUN = ExperimentConfig(
    clos=ClosParams(clusters=3), load=0.25, duration_s=0.004, seed=31
)
CASCADE = CascadeConfig(
    epoch_s=0.001, window_epochs=3, min_window_samples=4, budget=TierBudget(ks=0.2)
)

#: Counters the registry reads from a producer's field.
READ_THROUGH = {
    "hybrid.model_drops",
    "hybrid.conflicts_resolved",
    "hybrid.egress_rate_fallbacks",
    "hybrid.scalar_fallbacks",
    "hybrid.batch_flushes",
    "infer.memo_hits",
    "infer.memo_misses",
    "cascade.epochs",
    "cascade.promotions",
    "cascade.demotions",
    "flowsim.flows_completed",
    "flowsim.rate_recomputes",
}


def _read_through(snapshot) -> dict:
    """(name, labels) -> value of every read-through counter."""
    return {
        (c["name"], tuple(sorted(c.get("labels", {}).items()))): c["value"]
        for c in snapshot["counters"]
        if c["name"] in READ_THROUGH
    }


def _cluster_fields(models) -> dict:
    fields = {}
    for model in models:
        labels = (("cluster", model.region.name),)
        fields["hybrid.model_drops", labels] = model.packets_dropped
        fields["hybrid.conflicts_resolved", labels] = model.conflicts_resolved
        fields["hybrid.egress_rate_fallbacks", labels] = model.rate_fallbacks
    return fields


def _hybrid_fields(hybrid, trained) -> dict:
    """The producer fields behind a hybrid's read-through counters."""
    fields = _cluster_fields(hybrid.models.values())
    batcher = hybrid.batcher
    if batcher is not None:
        fields["hybrid.scalar_fallbacks", ()] = batcher.scalar_fallbacks
        fields["hybrid.batch_flushes", ()] = batcher.flushes
        compiled = trained.compiled(hybrid.config.inference_dtype)
        direction_of = {id(c): d.name.lower() for d, c in compiled.directions.items()}
        for engine in hybrid._batch_engines:
            labels = (("direction", direction_of[id(engine.compiled)]),)
            for name, count in (
                ("infer.memo_hits", engine.memo_hits),
                ("infer.memo_misses", engine.memo_misses),
            ):
                fields[name, labels] = fields.get((name, labels), 0) + count
    return fields


@pytest.fixture(scope="module")
def observed_run(trained_bundle):
    """One instrumented hybrid run shared by this module's tests."""
    reg = MetricsRegistry()
    result, hybrid_sim = run_hybrid_simulation(
        RUN_CONFIG, trained_bundle, metrics=reg
    )
    return reg, result, hybrid_sim


class TestHybridInstrumentation:
    def test_snapshot_covers_every_subsystem(self, observed_run):
        reg, result, _ = observed_run
        snap = reg.snapshot()
        spans = {s["name"] for s in snap["spans"]}
        assert "des.run" in spans
        hists = {h["name"] for h in snap["histograms"]}
        assert {"hybrid.inference_seconds", "hybrid.predicted_latency_s"} <= hists
        assert {"probe.queue_depth_bytes", "probe.macro_state"} <= hists
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges["des.events_executed"] == result.events_executed
        assert gauges["des.sim_time_s"] == pytest.approx(RUN_CONFIG.duration_s)
        assert len(snap["probes"]["samples"]) > 0

    def test_per_packet_instruments_match_entity_counters(self, observed_run):
        reg, result, hybrid_sim = observed_run
        model = hybrid_sim.models[1]
        cluster = model.region.name
        infer = reg.histogram("hybrid.inference_seconds", cluster=cluster)
        assert infer.count == model.packets_handled == result.model_packets
        latency = reg.histogram("hybrid.predicted_latency_s", cluster=cluster)
        assert latency.count == model.packets_delivered
        drops = reg.counter("hybrid.model_drops", cluster=cluster)
        assert drops.value == model.packets_dropped
        conflicts = reg.counter("hybrid.conflicts_resolved", cluster=cluster)
        assert conflicts.value == model.conflicts_resolved

    def test_probe_samples_in_sim_time_order(self, observed_run):
        reg, _, _ = observed_run
        times = [s.t_sim for s in reg.probe_samples]
        assert times == sorted(times)
        assert times[-1] <= RUN_CONFIG.duration_s + 1e-12

    def test_des_run_span_tracks_kernel_wallclock(self, observed_run):
        reg, result, _ = observed_run
        span = reg.span("des.run")
        assert span.count == 1
        # Same clock, same scope (the kernel times itself identically).
        assert span.total_s == pytest.approx(result.wallclock_seconds, rel=0.05)


class TestDeterminismInvariant:
    def test_metrics_do_not_perturb_seeded_runs(self, trained_bundle):
        """Obs on == obs off: inline, batched with the exact memo, and
        the cascade (whose decisions and fluid side must not move
        either)."""

        def inline(metrics):
            result, _ = run_hybrid_simulation(RUN_CONFIG, trained_bundle, metrics=metrics)
            return result, ""

        def batched(metrics):
            result, _ = run_hybrid_simulation(
                BATCHED_RUN, trained_bundle, hybrid=BATCHED_MEMO, metrics=metrics
            )
            return result, ""

        def cascade(metrics):
            result, cascade_sim = run_cascade_simulation(
                CASCADE_RUN, trained_bundle, cascade=CASCADE, metrics=metrics
            )
            assert cascade_sim.decision_log.promotions > 0
            return result.result, (
                cascade_sim.decision_log.to_json() + json.dumps(result.fluid_fcts)
            )

        for run in (inline, batched, cascade):
            bare, bare_extra = run(None)
            observed, observed_extra = run(MetricsRegistry())
            assert observed.rtt_samples == bare.rtt_samples
            assert observed.fcts == bare.fcts
            assert observed.drops == bare.drops
            assert observed.model_packets == bare.model_packets
            assert observed.model_drops == bare.model_drops
            assert observed.hot_path["memo_hits"] == bare.hot_path["memo_hits"]
            assert observed_extra == bare_extra
            # The only event-count delta is the probe ticks themselves.
            assert observed.events_executed > bare.events_executed

    def test_disabled_registry_equals_no_registry(self, trained_bundle):
        bare, _ = run_hybrid_simulation(RUN_CONFIG, trained_bundle)
        disabled, _ = run_hybrid_simulation(
            RUN_CONFIG, trained_bundle, metrics=MetricsRegistry(enabled=False)
        )
        assert disabled.events_executed == bare.events_executed
        assert disabled.rtt_samples == bare.rtt_samples


class TestReadThroughCounters:
    def test_counters_equal_their_producers_fields(self, trained_bundle):
        """Every read-through counter in a snapshot is its producer's
        field: batched + memo hybrid, cascade, and each worker of a
        2-worker sharded hybrid."""
        reg = MetricsRegistry()
        _, hybrid = run_hybrid_simulation(
            BATCHED_RUN, trained_bundle, hybrid=BATCHED_MEMO, metrics=reg
        )
        expected = _hybrid_fields(hybrid, trained_bundle)
        assert expected["infer.memo_misses", (("direction", "egress"),)] > 0
        assert _read_through(reg.snapshot()) == expected

        reg = MetricsRegistry()
        _, cascade_sim = run_cascade_simulation(
            CASCADE_RUN, trained_bundle, cascade=CASCADE, metrics=reg
        )
        expected = _hybrid_fields(cascade_sim.hybrid, trained_bundle)
        expected.update({
            ("cascade.epochs", ()): cascade_sim.controller.epochs_evaluated,
            ("cascade.promotions", ()): cascade_sim.decision_log.promotions,
            ("cascade.demotions", ()): cascade_sim.decision_log.demotions,
            ("flowsim.flows_completed", ()): cascade_sim.fluid.flows_completed,
            ("flowsim.rate_recomputes", ()): cascade_sim.fluid.rate_recomputations,
        })
        assert expected["cascade.promotions", ()] > 0
        assert _read_through(reg.snapshot()) == expected

        # A worker's producers live in its process: its batcher and
        # engines report through the worker's result, and each cluster
        # decides exactly as in the one-process run above.
        sharded = run_hybrid_sharded(
            BATCHED_RUN,
            trained_bundle,
            shard=HybridShardConfig(workers=2),
            hybrid=BATCHED_MEMO,
            metrics=MetricsRegistry(enabled=True),
        )
        per_cluster = _cluster_fields(hybrid.models.values())
        clusters_seen = set()
        for stats in sharded.worker_stats:
            counters = _read_through(stats.metrics_snapshot)
            hot = stats.result.hot_path
            for key, value in counters.items():
                name, labels = key
                if name.startswith("infer."):
                    continue
                if labels:
                    clusters_seen.add(labels)
                    assert value == per_cluster[key], key
                else:
                    field = {
                        "hybrid.scalar_fallbacks": "scalar_fallbacks",
                        "hybrid.batch_flushes": "batch_flushes",
                    }[name]
                    assert value == hot[field], key
            for name, field in (
                ("infer.memo_hits", "memo_hits"),
                ("infer.memo_misses", "memo_misses"),
            ):
                total = sum(v for (n, _), v in counters.items() if n == name)
                assert total == hot[field]
            drops = sum(
                v for (n, _), v in counters.items() if n == "hybrid.model_drops"
            )
            assert drops == stats.result.model_drops
        assert clusters_seen == {labels for _, labels in per_cluster}


class TestRateGuards:
    """Satellite: zero packets / zero wall-clock never produce inf/NaN."""

    def _zero_wallclock_result(self, **overrides) -> RunResult:
        defaults = dict(
            sim_seconds=0.01,
            wallclock_seconds=0.0,
            events_executed=100,
            flows_started=0,
            flows_completed=0,
            flows_elided=0,
            drops=0,
            rtt_samples=[],
            fcts=[],
        )
        defaults.update(overrides)
        return RunResult(**defaults)

    def test_run_result_rates_guard_zero_wallclock(self):
        result = self._zero_wallclock_result(model_packets=5)
        assert result.sim_seconds_per_second == 0.0
        assert result.events_per_second == 0.0
        assert result.inference_share == 0.0
        assert result.model_packets_per_sec == 0.0
        json.dumps(
            [
                result.sim_seconds_per_second,
                result.events_per_second,
                result.inference_share,
                result.model_packets_per_sec,
            ]
        )  # no inf/NaN ever reaches JSON

    def test_run_result_rates_with_positive_wallclock(self):
        result = self._zero_wallclock_result(wallclock_seconds=2.0, model_packets=6)
        assert result.sim_seconds_per_second == pytest.approx(0.005)
        assert result.events_per_second == pytest.approx(50.0)
        assert result.model_packets_per_sec == pytest.approx(3.0)

    def test_hot_path_counters_guard_zero_packets(self, trained_bundle):
        topo = build_clos(ClosParams(clusters=2))
        hybrid = HybridSimulation(Simulator(seed=1), topo, trained_bundle)
        # No traffic ran: zero packets, zero inference.
        counters = hybrid.hot_path_counters(wallclock_s=0.0)
        assert counters["inference_seconds_per_packet"] == 0.0
        assert counters["inference_share"] == 0.0
        assert counters["model_packets_per_sec"] == 0.0
        json.dumps(counters)
        # Without a wall-clock the rate keys are simply absent.
        assert "inference_share" not in hybrid.hot_path_counters()


class TestManifestIntegration:
    SPEC = {
        "name": "obs-sim",
        "stage": "simulate",
        "experiment": {"clusters": 2, "load": 0.15, "duration_s": 0.001, "seed": 5},
    }

    def _submit(self, out_dir):
        from repro.runs import ScenarioSpec, SchedulerConfig, SweepScheduler

        spec = ScenarioSpec.from_dict(dict(self.SPEC))
        scheduler = SweepScheduler(
            spec, out_dir, config=SchedulerConfig(workers=0, retries=0)
        )
        return scheduler.submit()

    def test_manifest_embeds_metrics_snapshot_and_jsonl(self, tmp_path):
        [manifest] = self._submit(tmp_path)
        assert manifest.status == "completed"
        snap = manifest.metrics
        assert snap is not None and snap["enabled"] is True
        assert any(s["name"] == "des.run" for s in snap["spans"])
        assert manifest.result["events_per_second"] > 0
        # The JSONL artifact sits next to the manifest and parses back.
        path = tmp_path / manifest.run_id / "metrics.jsonl"
        assert manifest.artifacts["metrics"] == str(path)
        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "probe" for r in records)

    def test_old_manifests_without_metrics_still_load(self, tmp_path):
        from repro.runs import RunManifest

        [manifest] = self._submit(tmp_path)
        raw = json.loads(
            (tmp_path / manifest.run_id / "manifest.json").read_text()
        )
        del raw["metrics"]  # a pre-obs manifest
        loaded = RunManifest.from_dict(raw)
        assert loaded.metrics is None

    def test_scheduler_metrics_observe_dispatch(self, tmp_path):
        from repro.runs import ScenarioSpec, SchedulerConfig, SweepScheduler

        reg = MetricsRegistry()
        spec = ScenarioSpec.from_dict(dict(self.SPEC))
        SweepScheduler(
            spec, tmp_path, config=SchedulerConfig(workers=0, retries=0),
            metrics=reg,
        ).submit()
        assert reg.counter("sweep.runs_dispatched").value == 1
        assert reg.counter("sweep.runs_settled", status="completed").value == 1
        assert reg.span("sweep.submit").count == 1


class TestCli:
    def test_simulate_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.jsonl"
        code = main([
            "simulate", "--clusters", "2", "--load", "0.15",
            "--duration", "0.001", "--seed", "5", "--metrics-out", str(out),
        ])
        assert code == 0
        assert f"metrics records to {out}" in capsys.readouterr().out
        records = read_jsonl(out)
        assert records[0] == {
            "type": "meta", "enabled": True, "probe_samples_dropped": 0
        }
        assert any(r["type"] == "span" and r["name"] == "des.run" for r in records)
        assert any(r["type"] == "probe" for r in records)

    def test_obs_show_renders_manifest(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runs import ScenarioSpec, SchedulerConfig, SweepScheduler

        spec = ScenarioSpec.from_dict(dict(TestManifestIntegration.SPEC))
        [manifest] = SweepScheduler(
            spec, tmp_path, config=SchedulerConfig(workers=0, retries=0)
        ).submit()
        code = main(["obs", "show", str(tmp_path / manifest.run_id)])
        out = capsys.readouterr().out
        assert code == 0
        assert manifest.run_id in out
        assert "des.run" in out
        assert "probe samples:" in out

    def test_obs_show_missing_manifest(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["obs", "show", str(tmp_path / "nope")])
        assert code == 2
        assert "cannot load manifest" in capsys.readouterr().err
