"""Spec keys come from the config dataclasses; specs round-trip.

A spec's ``hybrid`` block is checked at load against the stage's config
fields (bad keys used to pass the loader and die in a worker with a
``TypeError``), and ``to_dict`` output — what ``sweep.json`` records —
loads back into an equal spec (it used to fail on ``net``).
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.cascade import CascadeConfig
from repro.core.hybrid import HybridConfig
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.pdes import HybridShardConfig
from repro.runs import STAGES, ScenarioSpec
from repro.validate import ValidateConfig

_TRAINING = {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7}
_MICRO = {"hidden_size": 8, "num_layers": 1, "window": 8, "train_batches": 5}


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


class TestHybridKeys:
    def test_misspelled_key_rejected_at_load(self):
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict(
                {"name": "x", "stage": "hybrid", "hybrid": {"batch_windw_s": 1e-6}}
            )
        message = str(excinfo.value)
        assert "stage 'hybrid'" in message and "batch_windw_s" in message
        assert "allowed:" in message and "'batch_window_s'" in message

    def test_key_foreign_to_the_stage_rejected(self):
        with pytest.raises(ValueError, match=r"stage 'validate'.*\['trace'\]"):
            ScenarioSpec.from_dict(
                {"name": "x", "stage": "validate", "hybrid": {"trace": True}}
            )
        with pytest.raises(ValueError, match=r"stage 'hybrid'.*\['workers'\]"):
            ScenarioSpec.from_dict(
                {"name": "x", "stage": "hybrid", "hybrid": {"workers": 2}}
            )

    @pytest.mark.parametrize("stage", ["simulate", "train", "evaluate"])
    def test_modelless_option_stages_take_no_hybrid_block(self, stage):
        with pytest.raises(ValueError, match=f"stage '{stage}'.*no hybrid block"):
            ScenarioSpec.from_dict(
                {"name": "x", "stage": stage, "hybrid": {"full_cluster": 0}}
            )

    @pytest.mark.parametrize("key", ["memo_exact", "memo_max_entries", "macro_bucket_s"])
    @pytest.mark.parametrize("stage", ["hybrid", "pdes-hybrid", "cascade", "validate"])
    def test_removed_memo_and_bucket_keys_rejected_at_load(self, stage, key):
        """The quantized memo, the memo capacity and the macro bucket are
        no longer options: a spec that still sets one is refused, naming
        the key, instead of running on the fixed behaviour."""
        with pytest.raises(ValueError, match=rf"unknown 'hybrid' keys \['{key}'\]"):
            ScenarioSpec.from_dict({"name": "x", "stage": stage, "hybrid": {key: False}})

    @pytest.mark.parametrize("key", [
        "initial_tier", "region_budgets", "demote_fraction", "demote_patience",
        "cooldown_epochs", "max_promotions_per_epoch",
    ])
    def test_removed_cascade_keys_rejected_at_load(self, key):
        """The controller's pacing and hysteresis are constants: a
        cascade spec that still sets one is refused, naming the key."""
        with pytest.raises(ValueError, match=rf"unknown 'hybrid' keys \['{key}'\]"):
            ScenarioSpec.from_dict({"name": "x", "stage": "cascade", "hybrid": {key: 1}})

    @pytest.mark.parametrize("key", ["latency_ks", "wasserstein_s", "drop_delta"])
    def test_removed_budget_keys_rejected_at_load(self, key):
        with pytest.raises(ValueError, match=rf"unknown TierBudget fields: \['{key}'\]"):
            ScenarioSpec.from_dict({
                "name": "x", "stage": "cascade",
                "hybrid": {"budget": {"ks": 0.35, key: 0.1}},
            })

    def test_bad_value_fails_at_load(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ScenarioSpec.from_dict(
                {"name": "x", "stage": "pdes-hybrid", "hybrid": {"workers": 0}}
            )

    def test_allowed_keys_are_the_config_fields(self):
        from repro.runs.executor import TRACE_KEYS, stage_option_keys

        assert stage_option_keys("hybrid") == _names(HybridConfig) | set(TRACE_KEYS)
        assert stage_option_keys("pdes-hybrid") == (
            _names(HybridConfig) | _names(HybridShardConfig)
        )
        # A stage config's ``hybrid`` field is spelt as the flat
        # HybridConfig keys it holds.
        assert stage_option_keys("cascade") == (
            _names(CascadeConfig) - {"hybrid"} | _names(HybridConfig) | set(TRACE_KEYS)
        )
        assert stage_option_keys("validate") == (
            _names(ValidateConfig) - {"hybrid"} | _names(HybridConfig)
        )
        for stage in ("simulate", "train", "evaluate"):
            assert stage_option_keys(stage) == frozenset()

    @pytest.mark.parametrize("stage", ["hybrid", "pdes-hybrid", "cascade", "validate"])
    def test_every_model_stage_takes_every_hybrid_key(self, stage):
        """One HybridConfig for every stage that runs a model: each takes
        all of its keys, and no two of the stage's configs share a name
        (a flat key must mean one field)."""
        from repro.runs.executor import _stage_config_types, stage_option_keys

        assert _names(HybridConfig) <= stage_option_keys(stage)
        configs = list(_stage_config_types(stage).values())
        if any("hybrid" in _names(cls) for cls in configs):
            configs.append(HybridConfig)
        names = [f.name for cls in configs for f in fields(cls) if f.name != "hybrid"]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("options,message", [
        # NaN passed every comparison: a memoized run had neither
        # batching nor memo.
        ({"batch_window_s": float("nan"), "memoize_inference": True}, "batch_window_s"),
        ({"inference_dtype": "float16"}, "inference_dtype"),
    ], ids=["nan_window", "float16"])
    def test_bad_hybrid_option_fails_at_load(self, options, message):
        """Refused when the spec is parsed, not when the world is built
        after ``runs submit`` has trained the model."""
        for stage in ("hybrid", "cascade", "validate"):
            with pytest.raises(ValueError, match=message):
                ScenarioSpec.from_dict({"name": "x", "stage": stage, "hybrid": options})

    def test_experiment_keys_are_the_config_fields(self):
        from repro.runs.spec import EXPERIMENT_KEYS

        assert EXPERIMENT_KEYS == _names(ExperimentConfig) | {"clusters"}

    @pytest.mark.parametrize("stage", STAGES)
    def test_sweep_axes_are_the_config_fields(self, stage):
        """Axes come from the configs: the experiment fields, every
        micro-model field but its width and seed (on a model stage),
        the stage's option keys, and ``stage``."""
        from repro.runs.executor import stage_option_keys
        from repro.runs.spec import (
            EXPERIMENT_AXES, EXPERIMENT_KEYS, MICRO_AXES, MODEL_STAGES, sweep_axes,
        )

        assert set(EXPERIMENT_AXES) <= EXPERIMENT_KEYS
        assert set(MICRO_AXES) == _names(MicroModelConfig) - {"input_size", "seed"}
        micro = set(MICRO_AXES) if stage in MODEL_STAGES else set()
        assert sweep_axes((stage,)) == (
            set(EXPERIMENT_AXES) | micro | stage_option_keys(stage) | {"stage"}
        )


#: One spec per stage, each exercising what its stage carries.
ROUND_TRIP = {
    "simulate": {
        "experiment": {
            "clusters": 3, "load": 0.2, "duration_s": 0.002, "seed": 4,
            "matrix": "permutation", "intra_cluster_fraction": 0.5,
            "net": {"queue_capacity_bytes": 100_000, "tcp": {"min_rto_s": 0.005}},
        },
        "sweep": {"load": [0.1, 0.2], "seed": [1, 2]},
        "inject": {"1": {"fail_attempts": 1}},
    },
    "train": {"sweep": {"alpha": [0.25, 0.5]}},
    "hybrid": {
        "experiment": {"clusters": 2, "duration_s": 0.002, "seed": 9},
        "hybrid": {"batch_window_s": 1e-6, "memoize_inference": True, "trace": True},
        "sweep": {"clusters": [2, 4], "hidden_size": [4, 8]},
    },
    "pdes": {
        "experiment": {"clusters": 4, "duration_s": 0.003, "seed": 5},
        "hybrid": {"workers": 2, "trace": True},
        "sweep": {"workers": [1, 2]},
    },
    "pdes-hybrid": {
        "hybrid": {"workers": 2, "trace": True, "elide_remote_traffic": False},
    },
    "cascade": {
        "experiment": {"clusters": 4, "load": 0.15, "duration_s": 0.008, "seed": 11},
        "traffic": {"collective": {"algorithm": "ring", "ranks": 8, "rounds": 2}},
        "routing": {"policy": "flowlet", "flowlet_gap_s": 5e-5},
        "failures": [
            {"time": 0.003, "link": ["core-0", "agg-c0-0"]},
            {"time": 0.006, "link": ["core-0", "agg-c0-0"], "action": "up"},
        ],
        "hybrid": {"epoch_s": 0.001, "budget": {"ks": 0.2}, "pin_tiers": {"2": "hybrid"}},
    },
    "evaluate": {"sweep": {"alpha": [0.1, 1.0]}},
    "validate": {
        "routing": "adaptive", "hybrid": {"region_cluster": 1},
        "sweep": {"elide_remote_traffic": [False, True]},
    },
}


@pytest.mark.parametrize("stage", STAGES)
def test_spec_round_trips_through_json(stage):
    raw = {"name": f"rt-{stage}", "stage": stage, **ROUND_TRIP[stage]}
    if stage != "simulate":
        raw.update(training=_TRAINING, micro=_MICRO)
    spec = ScenarioSpec.from_dict(raw)
    echoed = json.loads(json.dumps(spec.to_dict()))
    again = ScenarioSpec.from_dict(echoed)
    assert again.expand() == spec.expand()
    assert again.to_dict() == echoed
