"""Sweep scheduler: exactly-once training, retries, timeouts, determinism."""

from __future__ import annotations

import copy

import pytest

from repro.runs import RunStore, ScenarioSpec, SchedulerConfig, SweepScheduler

TINY_SIMULATE = {
    "name": "sched-sim",
    "stage": "simulate",
    "experiment": {"clusters": 2, "load": 0.15, "duration_s": 0.001, "seed": 3},
    "sweep": {"seed": [1, 2]},
}

TINY_HYBRID = {
    "name": "sched-hyb",
    "stage": "hybrid",
    "experiment": {"clusters": 2, "load": 0.25, "duration_s": 0.002, "seed": 9},
    "training": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
    "micro": {
        "hidden_size": 8, "num_layers": 1, "window": 8,
        "train_batches": 5, "learning_rate": 3e-3,
    },
    "sweep": {"load": [0.15, 0.25]},
}


def _submit(spec_dict, out_dir, **config):
    spec = ScenarioSpec.from_dict(copy.deepcopy(spec_dict))
    scheduler = SweepScheduler(
        spec, out_dir, config=SchedulerConfig(**config)
    )
    return scheduler.submit()


class TestHybridSweep:
    """The acceptance scenario: a 2-point load sweep trains exactly once."""

    def test_second_run_is_registry_cache_hit(self, tmp_path):
        manifests = _submit(TINY_HYBRID, tmp_path, workers=1, retries=0)
        assert [m.status for m in manifests] == ["completed", "completed"]
        assert manifests[0].model["cache_hit"] is False
        assert manifests[1].model["cache_hit"] is True
        assert manifests[0].model["fingerprint"] == manifests[1].model["fingerprint"]
        # Exactly one model trained for the whole sweep.
        assert len(list((tmp_path / "models").glob("*/bundle.json"))) == 1

    def test_parallel_workers_still_train_once(self, tmp_path):
        # Both runs need the same missing fingerprint; the second must
        # wait for the first's training rather than duplicate it.
        manifests = _submit(TINY_HYBRID, tmp_path, workers=2, retries=0)
        assert [m.status for m in manifests] == ["completed", "completed"]
        hits = sorted(m.model["cache_hit"] for m in manifests)
        assert hits == [False, True]
        assert len(list((tmp_path / "models").glob("*/bundle.json"))) == 1

    def test_manifest_contents(self, tmp_path):
        manifests = _submit(TINY_HYBRID, tmp_path, workers=0, retries=0)
        for manifest in manifests:
            assert manifest.config_hash
            assert manifest.seed_master >= 0 and manifest.seed_derived >= 0
            assert manifest.wallclock_seconds > 0
            assert manifest.hot_path_counters["model_packets"] >= 0
            assert "inference_seconds" in manifest.hot_path_counters
            assert manifest.versions["repro"]
            assert manifest.config["load"] == manifest.axes["load"]
            assert manifest.result["events_executed"] > 0
        # Durable on disk, discoverable through the store.
        store = RunStore(tmp_path)
        assert store.run_ids() == ["sched-hyb-0000", "sched-hyb-0001"]
        assert store.get("sched-hyb-0001").model["cache_hit"] is True


TINY_CASCADE = {
    "name": "sched-cas",
    "stage": "cascade",
    "experiment": {"clusters": 3, "load": 0.25, "duration_s": 0.003, "seed": 9},
    "hybrid": {
        "epoch_s": 0.001, "window_epochs": 2, "min_window_samples": 4,
        "budget": {"ks": 0.2},
    },
    "training": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
    "micro": {
        "hidden_size": 8, "num_layers": 1, "window": 8,
        "train_batches": 5, "learning_rate": 3e-3,
    },
}


class TestCascadeStage:
    def test_manifest_carries_tier_accounting_and_decision_log(self, tmp_path):
        (manifest,) = _submit(TINY_CASCADE, tmp_path, workers=0, retries=0)
        assert manifest.status == "completed"
        cascade = manifest.result["cascade"]
        assert cascade["epochs"] >= 2
        assert set(cascade["per_tier_packets"]) == {"flowsim", "hybrid", "des"}
        assert cascade["per_tier_packets"]["des"] > 0
        for residency in cascade["tier_residency"].values():
            assert sum(residency.values()) == cascade["epochs"]
        # The auditable decision log is a run-directory artifact.
        import json

        decisions_path = manifest.artifacts["decisions"]
        assert decisions_path.endswith("decisions.json")
        entries = json.loads(open(decisions_path).read())
        assert len(entries) == cascade["decisions"]
        # Hot-path counters come from the packet side as usual.
        assert manifest.hot_path_counters["model_packets"] > 0


class TestFailureHandling:
    def test_injected_failure_is_retried_then_succeeds(self, tmp_path):
        spec = copy.deepcopy(TINY_SIMULATE)
        spec["inject"] = {"0": {"fail_attempts": 1}}
        manifests = _submit(
            spec, tmp_path, workers=2, retries=2, backoff_s=0.05
        )
        assert manifests[0].status == "completed"
        assert manifests[0].attempts == 2
        assert manifests[1].status == "completed" and manifests[1].attempts == 1

    def test_persistent_failure_recorded_without_aborting_sweep(self, tmp_path):
        spec = copy.deepcopy(TINY_SIMULATE)
        spec["sweep"] = {"seed": [1, 2, 3]}
        spec["inject"] = {"1": {"fail_attempts": 99}}
        manifests = _submit(
            spec, tmp_path, workers=2, retries=1, backoff_s=0.05
        )
        assert [m.status for m in manifests] == ["completed", "failed", "completed"]
        failed = manifests[1]
        assert failed.attempts == 2  # first try + one retry
        assert failed.error["type"] == "RuntimeError"
        assert "injected failure" in failed.error["traceback"]
        # The failure is durably recorded, not just returned.
        assert RunStore(tmp_path).get(failed.run_id).status == "failed"

    def test_inline_mode_retries_too(self, tmp_path):
        spec = copy.deepcopy(TINY_SIMULATE)
        spec["inject"] = {"1": {"fail_attempts": 1}}
        manifests = _submit(
            spec, tmp_path, workers=0, retries=1, backoff_s=0.01
        )
        assert [m.status for m in manifests] == ["completed", "completed"]
        assert manifests[1].attempts == 2


class TestPoolShutdown:
    def test_drained_pool_is_joined_before_submit_returns(self, tmp_path):
        """No worker (and no management thread) is left for the
        interpreter's exit hook to reap."""
        import multiprocessing

        manifests = _submit(TINY_SIMULATE, tmp_path, workers=1, retries=0)
        assert [m.status for m in manifests] == ["completed", "completed"]
        assert multiprocessing.active_children() == []


class TestTimeouts:
    def test_hung_run_times_out_and_sweep_continues(self, tmp_path):
        spec = copy.deepcopy(TINY_SIMULATE)
        spec["inject"] = {"0": {"hang_s": 30.0}}
        manifests = _submit(
            spec, tmp_path, workers=1, retries=0, timeout_s=1.0, poll_s=0.02
        )
        assert manifests[0].status == "timeout"
        assert manifests[0].error["type"] == "TimeoutError"
        assert manifests[1].status == "completed"

    def test_timeout_requires_workers(self):
        with pytest.raises(ValueError, match="timeout_s requires workers"):
            SchedulerConfig(workers=0, timeout_s=1.0)


class TestDeterminism:
    def test_same_spec_same_manifests_modulo_timestamps(self, tmp_path):
        first = _submit(TINY_SIMULATE, tmp_path / "a", workers=0, retries=0)
        second = _submit(TINY_SIMULATE, tmp_path / "b", workers=0, retries=0)

        def comparable(manifest):
            data = manifest.to_dict()
            for key in ("started_at", "finished_at", "wallclock_seconds", "versions"):
                data.pop(key)
            for key in (
                "wallclock_seconds",
                "sim_seconds_per_second",
                "events_per_second",
                "model_inference_seconds",
                "inference_share",
            ):
                data["result"].pop(key)
            # Span timings are wall-clock by design; everything else in
            # the metrics snapshot (counters, gauges, probe samples and
            # their histograms) is a function of the seeded simulation
            # and must reproduce exactly.
            data["metrics"].pop("spans")
            # The JSONL artifact path embeds the (differing) out dir.
            data["artifacts"].pop("metrics")
            return data

        assert [comparable(m) for m in first] == [comparable(m) for m in second]
        # In particular: derived seeds, config hashes, and simulation
        # outcomes (event counts, drops, percentiles) are identical.
        assert [m.seed_derived for m in first] == [m.seed_derived for m in second]
        assert [m.config_hash for m in first] == [m.config_hash for m in second]
        assert [m.result["events_executed"] for m in first] == [
            m.result["events_executed"] for m in second
        ]


TINY_VALIDATE = {
    "name": "sched-val",
    "stage": "validate",
    "experiment": {"clusters": 2, "load": 0.25, "duration_s": 0.002, "seed": 9},
    "training": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
    "micro": {
        "hidden_size": 8, "num_layers": 1, "window": 8,
        "train_batches": 5, "learning_rate": 3e-3,
    },
}


class TestValidateStage:
    """The differential fidelity stage rides the same scheduler path."""

    def test_fidelity_embedded_in_manifest(self, tmp_path):
        manifests = _submit(TINY_VALIDATE, tmp_path, workers=0, retries=0)
        assert [m.status for m in manifests] == ["completed"]
        manifest = manifests[0]
        assert manifest.model is not None  # validate is a model stage
        fidelity = manifest.result["fidelity"]
        assert set(fidelity) == {
            "fct", "latency", "drop_rate", "throughput", "macro", "invariants"
        }
        assert fidelity["invariants"]["total"] == 0
        assert fidelity["latency"]["full_samples"] > 0
        assert fidelity["macro"]["buckets"] > 0
        assert manifest.result["full"]["events_executed"] > 0
        assert manifest.result["hybrid"]["events_executed"] > 0
        assert manifest.hot_path_counters["model_packets"] > 0
