"""A stage command line is a scenario spec: argv -> configs, no simulation.

``repro <stage> --flags`` turns its flags into the ``experiment`` /
``hybrid`` tables a ``runs submit`` file carries (a flag's dest is the
spec key it sets) and runs through the same stage runner.  These tests
pin that mapping with config literals and against the shipped example
specs; none of them simulates.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cascade import CascadeConfig, Tier, TierBudget
from repro.cli import build_parser, main, spec_from_args
from repro.core.hybrid import HybridConfig
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.net.failures import LinkFailure
from repro.obs.trace import DEFAULT_TRACE_CAPACITY
from repro.pdes import HybridShardConfig
from repro.runs import ScenarioSpec, load_spec
from repro.runs.executor import stage_configs
from repro.topology.clos import ClosParams
from repro.topology.routing import RoutingConfig
from repro.traffic.collectives import CollectiveConfig
from repro.validate import ValidateConfig

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def _spec(argv: list[str]) -> ScenarioSpec:
    args = build_parser().parse_args(argv)
    return ScenarioSpec.from_dict({"name": "cli", **spec_from_args(args)})


def _configs(argv: list[str]) -> dict:
    spec = _spec(argv)
    return stage_configs(spec.stage, spec.hybrid)


def _experiment(**fields) -> ExperimentConfig:
    clusters = fields.pop("clusters", 2)
    fields = {"load": 0.25, "duration_s": 0.01, "seed": 1, **fields}
    return ExperimentConfig(clos=ClosParams(clusters=clusters), **fields)


class TestArgvToConfig:
    def test_hybrid_defaults(self):
        spec = _spec(["hybrid", "--model", "m"])
        assert spec.experiment == _experiment()
        assert stage_configs("hybrid", spec.hybrid) == {
            "hybrid": HybridConfig(), "trace": None,
        }

    def test_hybrid_flags(self):
        configs = _configs([
            "hybrid", "--model", "m", "--full-cluster", "1",
            "--keep-remote-traffic", "--single-black-box",
            "--batch-window", "1e-6", "--memoize",
        ])
        assert configs["hybrid"] == HybridConfig(
            full_cluster=1, elide_remote_traffic=False, single_black_box=True,
            batch_window_s=1e-6, memoize_inference=True,
        )

    def test_trace_flags_set_the_recorder_capacity(self):
        assert _configs(["hybrid", "--model", "m", "--trace"])["trace"] == (
            DEFAULT_TRACE_CAPACITY
        )
        assert _configs([
            "cascade", "--model", "m", "--trace-out", "t.jsonl",
            "--trace-capacity", "64",
        ])["trace"] == 64

    def test_pdes_command_is_the_pdes_or_pdes_hybrid_stage(self):
        parse = build_parser().parse_args
        assert spec_from_args(parse(["pdes"]))["stage"] == "pdes"
        assert spec_from_args(parse(["pdes", "--hybrid", "--model", "m"]))["stage"] == (
            "pdes-hybrid"
        )

    def test_pdes_defaults(self):
        assert _configs(["pdes"]) == {"shard": HybridShardConfig()}

    def test_pdes_hybrid_defaults(self):
        configs = _configs(["pdes", "--hybrid", "--model", "m"])
        assert configs == {"hybrid": HybridConfig(), "shard": HybridShardConfig()}

    def test_pdes_hybrid_flags(self):
        configs = _configs([
            "pdes", "--hybrid", "--model", "m", "--workers", "3",
            "--window", "2e-7", "--metrics-out", "m.jsonl", "--trace",
            "--trace-capacity", "32", "--keep-remote-traffic", "--batch-window", "1e-7",
        ])
        assert configs["shard"] == HybridShardConfig(
            workers=3, window_s=2e-7, trace=True, trace_capacity=32
        )
        assert configs["hybrid"] == HybridConfig(
            elide_remote_traffic=False, batch_window_s=1e-7
        )

    def test_cascade_defaults(self):
        assert _configs(["cascade", "--model", "m"]) == {
            "cascade": CascadeConfig(), "trace": None,
        }

    def test_cascade_flags(self):
        configs = _configs([
            "cascade", "--model", "m", "--clusters", "3", "--focal-cluster", "1",
            "--budget", "0.2",
            "--epoch-s", "0.001", "--window-epochs", "4", "--min-window-samples", "5",
            "--pin-tier", "2=flowsim",
            "--batch-window", "1e-6", "--memoize",
        ])
        assert configs["cascade"] == CascadeConfig(
            epoch_s=0.001,
            window_epochs=4,
            budget=TierBudget(ks=0.2),
            pin_tiers={2: Tier.FLOWSIM},
            min_window_samples=5,
            hybrid=HybridConfig(
                full_cluster=1,
                elide_remote_traffic=False,
                batch_window_s=1e-6,
                memoize_inference=True,
            ),
        )

    def test_validate_defaults(self):
        assert _configs(["validate", "--model", "m"]) == {"validate": ValidateConfig()}

    def test_validate_flags(self):
        configs = _configs([
            "validate", "--model", "m", "--clusters", "3", "--region-cluster", "2",
            "--full-cluster", "1", "--elide-remote-traffic",
            "--batch-window", "1e-6", "--memoize",
        ])
        assert configs["validate"] == ValidateConfig(
            region_cluster=2,
            hybrid=HybridConfig(
                full_cluster=1, elide_remote_traffic=True,
                batch_window_s=1e-6, memoize_inference=True,
            ),
        )

    def test_validate_without_model_trains_the_fallback_bundle(self):
        spec = _spec([
            "validate", "--load", "0.3", "--seed", "11", "--train-duration", "0.005",
            "--hidden", "12", "--layers", "2", "--window", "6", "--batches", "30",
        ])
        assert spec.training == _experiment(load=0.3, duration_s=0.005, seed=11)
        assert spec.micro == MicroModelConfig(
            hidden_size=12, num_layers=2, window=6, train_batches=30, seed=11
        )

    def test_train(self):
        spec = _spec([
            "train", "--output", "out", "--clusters", "2", "--duration", "0.004",
            "--seed", "7", "--hidden", "8", "--layers", "2",
            "--alpha", "0.25", "--window", "4", "--batches", "5",
            "--learning-rate", "0.01",
        ])
        assert spec.training == _experiment(duration_s=0.004, seed=7)
        assert spec.micro == MicroModelConfig(
            hidden_size=8, num_layers=2, alpha=0.25, window=4,
            train_batches=5, learning_rate=0.01, seed=7,
        )

    def test_scenario_flags(self):
        spec = _spec([
            "simulate", "--clusters", "3", "--load", "0.15", "--duration", "0.006",
            "--seed", "31", "--matrix", "incast", "--routing", "flowlet",
            "--flowlet-gap-s", "2e-5",
            "--fail-link", "0.002:core-0:agg-c0-0",
            "--fail-link", "0.004:core-0:agg-c0-0:up",
            "--collective", "tree", "--collective-ranks", "4",
            "--collective-dp-groups", "2", "--chunk-bytes", "20000",
            "--collective-rounds", "3", "--collective-compute-s", "1e-4",
            "--collective-jitter", "0.1", "--tp-bytes", "1000", "--pp-bytes", "2000",
        ])
        assert spec.experiment == _experiment(
            clusters=3, load=0.15, duration_s=0.006, seed=31, matrix="incast",
            routing=RoutingConfig(policy="flowlet", flowlet_gap_s=2e-5),
            failures=(
                LinkFailure(0.002, "core-0", "agg-c0-0"),
                LinkFailure(0.004, "core-0", "agg-c0-0", "up"),
            ),
            collective=CollectiveConfig(
                algorithm="tree", ranks=4, dp_groups=2, chunk_bytes=20000,
                rounds=3, compute_s=1e-4, compute_jitter=0.1, tp_bytes=1000,
                pp_bytes=2000,
            ),
        )

    @pytest.mark.parametrize("argv", [
        ["simulate", "--matrix", "permutation"],
        ["evaluate", "--model", "m", "--region-cluster", "0"],
    ])
    def test_modelless_stages_carry_no_hybrid_block(self, argv):
        assert spec_from_args(build_parser().parse_args(argv))["hybrid"] == {}


def _inline(raw: dict):
    return lambda: ScenarioSpec.from_dict({"name": "inline", **raw})


#: (argv, the spec it means) — one per spec stage, mostly the shipped
#: examples, so each example's command line is written down here.
EQUIVALENT = {
    "simulate": (
        ["simulate", "--clusters", "3", "--load", "0.3", "--duration", "0.002",
         "--seed", "7", "--routing", "adaptive", "--fail-link", "0.001:core-0:agg-c0-0"],
        _inline({
            "stage": "simulate",
            "experiment": {"clusters": 3, "load": 0.3, "duration_s": 0.002, "seed": 7},
            "routing": "adaptive",
            "failures": [{"time": 0.001, "link": ["core-0", "agg-c0-0"]}],
        }),
    ),
    "train": (
        ["train", "--output", "out", "--duration", "0.004", "--seed", "7",
         "--hidden", "8", "--window", "8", "--batches", "5", "--learning-rate", "3e-3"],
        _inline({
            "stage": "train",
            "experiment": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
            "training": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
            "micro": {"hidden_size": 8, "num_layers": 1, "window": 8,
                      "train_batches": 5, "learning_rate": 3e-3, "seed": 7},
        }),
    ),
    "hybrid": (
        ["hybrid", "--model", "m", "--duration", "0.002", "--seed", "9"],
        lambda: load_spec(SPECS / "ci_smoke.json"),
    ),
    "pdes": (
        ["pdes", "--clusters", "4", "--duration", "0.003", "--workers", "2", "--trace"],
        lambda: load_spec(SPECS / "pdes_plain_smoke.json"),
    ),
    "pdes-hybrid": (
        ["pdes", "--hybrid", "--model", "m", "--clusters", "3", "--duration", "0.002",
         "--seed", "9", "--workers", "2", "--trace", "--keep-remote-traffic"],
        # pdes_hybrid_smoke.json less its failure pair: `repro pdes`
        # takes no --fail-link.
        _inline({
            "stage": "pdes-hybrid",
            "experiment": {"clusters": 3, "load": 0.25, "duration_s": 0.002, "seed": 9},
            "hybrid": {"workers": 2, "trace": True, "elide_remote_traffic": False},
        }),
    ),
    "cascade": (
        ["cascade", "--model", "m", "--clusters", "4", "--load", "0.15",
         "--duration", "0.008", "--seed", "11",
         "--collective", "ring", "--collective-ranks", "8", "--chunk-bytes", "20000",
         "--collective-rounds", "2", "--collective-compute-s", "0.0003",
         "--routing", "flowlet", "--flowlet-gap-s", "5e-5",
         "--fail-link", "0.003:core-0:agg-c0-0", "--fail-link", "0.006:core-0:agg-c0-0:up",
         "--epoch-s", "0.001", "--min-window-samples", "4", "--budget", "0.2"],
        lambda: load_spec(SPECS / "collective_smoke.json"),
    ),
    "validate": (
        ["validate", "--model", "m", "--duration", "0.002", "--seed", "9",
         "--batch-window", "1e-6", "--memoize"],
        lambda: load_spec(SPECS / "validate_smoke.json"),
    ),
    "evaluate": (
        ["evaluate", "--model", "m", "--duration", "0.005", "--seed", "202"],
        lambda: load_spec(SPECS / "alpha_sweep.toml"),
    ),
}


@pytest.mark.parametrize("stage", sorted(EQUIVALENT))
def test_argv_and_spec_build_equal_configs(stage):
    argv, spec_file = EQUIVALENT[stage]
    from_argv, from_spec = _spec(argv), spec_file()
    assert from_argv.stage == from_spec.stage == stage
    assert from_argv.experiment == from_spec.experiment
    assert stage_configs(stage, from_argv.hybrid) == stage_configs(stage, from_spec.hybrid)
    if stage == "train":
        assert (from_argv.training, from_argv.micro) == (from_spec.training, from_spec.micro)


@pytest.mark.parametrize("stage", [["hybrid"], ["pdes", "--hybrid"], ["cascade"], ["validate"]])
def test_memo_approximate_flag_is_gone(stage, capsys):
    """The quantized memo was removed: its flag is a usage error."""
    with pytest.raises(SystemExit) as excinfo:
        main([*stage, "--model", "m", "--batch-window", "1e-6", "--memoize",
              "--memo-approximate"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --memo-approximate" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    "--drop-budget", "--wasserstein-budget", "--initial-tier", "--demote-fraction",
    "--demote-patience", "--cooldown-epochs", "--max-promotions",
])
def test_removed_cascade_flags_are_gone(flag, capsys):
    """The controller's pacing, hysteresis and secondary budgets are
    constants: their flags are usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        main(["cascade", "--model", "m", flag, "1"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cascade_smoke_example_matches_its_command_line():
    argv = ["cascade", "--model", "m", "--clusters", "4", "--duration", "0.008",
            "--seed", "9", "--epoch-s", "0.001", "--min-window-samples", "4",
            "--budget", "0.2"]
    spec = load_spec(SPECS / "cascade_smoke.json")
    assert _spec(argv).experiment == spec.experiment
    assert _configs(argv) == stage_configs("cascade", spec.hybrid)


def test_spec_json_from_argv_is_loadable(tmp_path):
    """What ``spec_from_args`` returns is a spec file ``runs submit`` reads."""
    args = build_parser().parse_args(EQUIVALENT["cascade"][0])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "from-argv", **spec_from_args(args)}))
    loaded = load_spec(path)
    assert loaded.experiment == _spec(EQUIVALENT["cascade"][0]).experiment
