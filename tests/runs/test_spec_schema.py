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
        assert stage_option_keys("cascade") == _names(CascadeConfig) | set(TRACE_KEYS)
        assert stage_option_keys("validate") == _names(ValidateConfig)
        for stage in ("simulate", "train", "evaluate"):
            assert stage_option_keys(stage) == frozenset()

    def test_experiment_keys_are_the_config_fields(self):
        from repro.runs.spec import EXPERIMENT_KEYS

        assert EXPERIMENT_KEYS == _names(ExperimentConfig) | {"clusters"}


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
        "sweep": {"clusters": [2, 4]},
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
    "validate": {"routing": "adaptive", "hybrid": {"region_cluster": 1}},
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
