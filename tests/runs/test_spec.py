"""ScenarioSpec parsing, validation, and deterministic expansion."""

from __future__ import annotations

import json

import pytest

from repro.runs import ScenarioSpec, derive_seed, load_spec
from repro.runs.executor import stage_configs
from repro.runs.spec import MODEL_STAGES


def _spec_dict(**overrides) -> dict:
    base = {
        "name": "demo",
        "stage": "simulate",
        "experiment": {"clusters": 2, "load": 0.2, "duration_s": 0.002, "seed": 5},
        "sweep": {"load": [0.1, 0.2], "seed": [1, 2]},
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec_dict()))
        spec = load_spec(path)
        assert spec.name == "demo"
        assert spec.experiment.load == 0.2
        assert spec.sweep == {"load": [0.1, 0.2], "seed": [1, 2]}

    def test_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "demo-toml"\n'
            'stage = "simulate"\n'
            "[experiment]\n"
            "clusters = 2\n"
            "load = 0.3\n"
            "duration_s = 0.001\n"
            "seed = 4\n"
            "[sweep]\n"
            "load = [0.1, 0.3]\n"
        )
        spec = load_spec(path)
        assert spec.name == "demo-toml"
        assert spec.experiment.clos.clusters == 2
        assert len(spec.expand()) == 2

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ValueError, match="json or .toml"):
            load_spec(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            ScenarioSpec.from_dict(_spec_dict(bogus=1))
        with pytest.raises(ValueError, match="unknown experiment keys"):
            ScenarioSpec.from_dict(
                _spec_dict(experiment={"loda": 0.2})
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            ScenarioSpec.from_dict(_spec_dict(sweep={"bananas": [1]}))

    @pytest.mark.parametrize("stage,allowed,refused", [
        ("simulate", "'seed', 'stage'", "'elide_remote_traffic'"),
        ("hybrid", "'elide_remote_traffic'", "'region_cluster'"),
        ("validate", "'region_cluster'", "'workers'"),
    ])
    def test_unknown_axis_names_the_stage_axes(self, stage, allowed, refused):
        """The refusal lists the axes allowed for the spec's stage: the
        experiment fields, ``stage``, micro fields on a model stage, and
        that stage's option keys."""
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict(_spec_dict(stage=stage, sweep={"bananas": [1]}))
        message = str(excinfo.value)
        assert f"for stage(s) ['{stage}']" in message and allowed in message
        assert refused not in message
        assert ("'hidden_size'" in message) == (stage in MODEL_STAGES)

    def test_micro_axis_on_simulate_refused(self):
        with pytest.raises(ValueError, match="'hidden_size'.*need a model stage"):
            ScenarioSpec.from_dict(_spec_dict(sweep={"hidden_size": [8]}))
        # Also when only some of a stage axis's stages train a model.
        with pytest.raises(ValueError, match="'heads'.*need a model stage"):
            ScenarioSpec.from_dict(_spec_dict(
                stage=None, sweep={"stage": ["simulate", "hybrid"], "heads": ["shared"]}
            ))

    def test_stage_at_top_level_and_as_axis_refused(self):
        with pytest.raises(ValueError, match="'stage' given both.*pick one"):
            ScenarioSpec.from_dict(_spec_dict(sweep={"stage": ["simulate", "hybrid"]}))

    def test_hybrid_block_must_suit_every_stage_of_the_axis(self):
        """``simulate`` takes no options, so beside it the block is empty:
        a key is refused, naming the stage, not dropped for that cell."""
        raw = _spec_dict(stage=None, sweep={"stage": ["simulate", "hybrid"]})
        with pytest.raises(ValueError, match=r"stage 'simulate'.*\['elide_remote_traffic'\]"):
            ScenarioSpec.from_dict({**raw, "hybrid": {"elide_remote_traffic": True}})
        with pytest.raises(ValueError, match="unknown sweep axis 'elide_remote_traffic'"):
            ScenarioSpec.from_dict({
                **raw, "sweep": {"stage": ["simulate", "hybrid"],
                                 "elide_remote_traffic": [True]},
            })
        with pytest.raises(ValueError, match=r"stage 'hybrid'.*\['region_cluster'\]"):
            ScenarioSpec.from_dict({
                **raw, "sweep": {"stage": ["validate", "hybrid"]},
                "hybrid": {"region_cluster": 1},
            })

    def test_bad_axis_value_fails_at_load(self):
        with pytest.raises(ValueError, match="hidden_size"):
            ScenarioSpec.from_dict(_spec_dict(stage="hybrid", sweep={"hidden_size": [0]}))
        with pytest.raises(ValueError, match="inference_dtype"):
            ScenarioSpec.from_dict(
                _spec_dict(stage="hybrid", sweep={"inference_dtype": ["float16"]})
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty list"):
            ScenarioSpec.from_dict(_spec_dict(sweep={"load": []}))

    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            ScenarioSpec.from_dict(_spec_dict(stage="transmogrify"))

    def test_bad_config_values_fail_fast(self):
        with pytest.raises(ValueError, match="load must be > 0"):
            ScenarioSpec.from_dict(
                _spec_dict(experiment={"load": -1.0, "duration_s": 0.001})
            )

    @pytest.mark.parametrize("key", ["duration_s", "load"])
    def test_infinite_load_or_duration_fails_fast(self, key):
        """An infinite duration (or load) would be a run that never ends."""
        experiment = {"load": 0.25, "duration_s": 0.001, key: float("inf")}
        with pytest.raises(ValueError, match=f"{key} must be"):
            ScenarioSpec.from_dict(_spec_dict(experiment=experiment))

    def test_alpha_axis_requires_model_stage(self):
        with pytest.raises(ValueError, match="alpha"):
            ScenarioSpec.from_dict(_spec_dict(sweep={"alpha": [0.5]}))

    def test_model_stage_defaults(self):
        spec = ScenarioSpec.from_dict(_spec_dict(stage="hybrid", sweep={}))
        assert spec.stage in MODEL_STAGES
        assert spec.training is not None and spec.training.clos.clusters == 2
        assert spec.micro is not None


class TestExpansion:
    def test_cartesian_product_in_order(self):
        spec = ScenarioSpec.from_dict(_spec_dict())
        runs = spec.expand()
        # Axes sorted by name: load before seed; values in given order.
        assert [r.run_id for r in runs] == [f"demo-{i:04d}" for i in range(4)]
        assert [r.axes for r in runs] == [
            {"load": 0.1, "seed": 1},
            {"load": 0.1, "seed": 2},
            {"load": 0.2, "seed": 1},
            {"load": 0.2, "seed": 2},
        ]

    def test_axes_applied_to_configs(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(
                stage="hybrid",
                sweep={"clusters": [2, 4], "alpha": [0.25]},
            )
        )
        runs = spec.expand()
        assert [r.experiment.clos.clusters for r in runs] == [2, 4]
        assert all(r.micro.alpha == 0.25 for r in runs)
        # The training config is untouched by evaluation-side axes.
        assert all(r.training.clos.clusters == 2 for r in runs)

    def test_micro_and_option_axes_reach_their_configs(self):
        spec = ScenarioSpec.from_dict(_spec_dict(
            stage="validate", hybrid={"region_cluster": 1},
            sweep={"hidden_size": [8, 16], "elide_remote_traffic": [False, True]},
        ))
        runs = spec.expand()
        assert [r.micro.hidden_size for r in runs] == [8, 16, 8, 16]
        assert [r.hybrid for r in runs] == [
            {"region_cluster": 1, "elide_remote_traffic": elide}
            for elide in (False, False, True, True)
        ]
        validate = [stage_configs(r.stage, r.hybrid)["validate"] for r in runs]
        assert [v.hybrid.elide_remote_traffic for v in validate] == [False, False, True, True]
        assert all(v.region_cluster == 1 for v in validate)
        # The spec's own micro table is the base every cell changes one field of.
        assert all(r.micro.num_layers == spec.micro.num_layers for r in runs)

    def test_stage_axis_sets_stage_per_cell(self):
        spec = ScenarioSpec.from_dict(_spec_dict(
            stage=None, sweep={"stage": ["simulate", "hybrid"], "clusters": [2, 4]},
        ))
        assert spec.stage is None and spec.stages == ("simulate", "hybrid")
        runs = spec.expand()
        assert [(r.stage, r.needs_model) for r in runs] == [
            ("simulate", False), ("hybrid", True), ("simulate", False), ("hybrid", True),
        ]
        # One model stage is enough for the training defaults.
        assert spec.training is not None and spec.micro is not None
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.expand() == runs and "stage" not in spec.to_dict()

    @pytest.mark.parametrize("stage,sweep", [
        ("hybrid", {"stage": ["simulate", "hybrid"]}),
        ("hybrid", {"hidden_size": [8, 16]}),
        ("hybrid", {"alpha": [0.25, 0.5]}),
        ("validate", {"elide_remote_traffic": [False, True]}),
    ], ids=["stage", "micro", "alpha", "option"])
    def test_non_workload_axes_share_the_seed(self, stage, sweep):
        """Only experiment axes seed the workload: cells that differ in
        stage, model or option run the same flows."""
        raw = _spec_dict(stage=None if "stage" in sweep else stage,
                         sweep={"clusters": [2, 4], **sweep})
        runs = ScenarioSpec.from_dict(raw).expand()
        by_clusters = {}
        for run in runs:
            by_clusters.setdefault(run.experiment.clos.clusters, set()).add(run.seed_derived)
        assert [len(seeds) for seeds in by_clusters.values()] == [1, 1]
        assert len(set.union(*by_clusters.values())) == 2

    def test_experiment_axis_seeds_are_unchanged(self):
        """Specs that sweep only experiment axes keep the seeds they
        were derived with before the stage, micro and option axes."""
        runs = ScenarioSpec.from_dict(_spec_dict()).expand()
        assert [r.seed_derived for r in runs] == [
            456043581, 1144974424, 247378028, 1523631514,
        ]
        runs = ScenarioSpec.from_dict(_spec_dict(
            sweep={"clusters": [2, 4], "matrix": ["uniform", "permutation"]}
        )).expand()
        assert [r.seed_derived for r in runs] == [
            1721065931, 1583187606, 764137101, 899603780,
        ]

    def test_derived_seeds_deterministic(self):
        spec_a = ScenarioSpec.from_dict(_spec_dict())
        spec_b = ScenarioSpec.from_dict(_spec_dict())
        seeds_a = [r.seed_derived for r in spec_a.expand()]
        seeds_b = [r.seed_derived for r in spec_b.expand()]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)  # independent streams
        # Runs execute with the derived seed, and record the master.
        runs = spec_a.expand()
        assert all(r.experiment.seed == r.seed_derived for r in runs)
        assert [r.seed_master for r in runs] == [1, 2, 1, 2]

    def test_master_seed_changes_derived_seeds(self):
        lo = ScenarioSpec.from_dict(_spec_dict(sweep={"load": [0.1, 0.2]}))
        hi_dict = _spec_dict(sweep={"load": [0.1, 0.2]})
        hi_dict["experiment"]["seed"] = 6
        hi = ScenarioSpec.from_dict(hi_dict)
        assert [r.seed_derived for r in lo.expand()] != [
            r.seed_derived for r in hi.expand()
        ]

    def test_derivation_position_independent(self):
        # The derived seed hangs off the axis assignment, not the run's
        # index, so growing a sweep does not reseed existing points.
        assert derive_seed("s", 7, {"load": 0.1}) == derive_seed("s", 7, {"load": 0.1})
        assert derive_seed("s", 7, {"load": 0.1}) != derive_seed("s", 7, {"load": 0.2})

    def test_no_sweep_is_single_run(self):
        spec = ScenarioSpec.from_dict(_spec_dict(sweep={}))
        runs = spec.expand()
        assert len(runs) == 1 and runs[0].axes == {}

    def test_inject_hooks_attach_by_index(self):
        spec = ScenarioSpec.from_dict(
            _spec_dict(inject={"1": {"fail_attempts": 2}})
        )
        runs = spec.expand()
        assert runs[0].inject == {}
        assert runs[1].inject == {"fail_attempts": 2}

    def test_unknown_inject_hook_rejected(self):
        with pytest.raises(ValueError, match="unknown hooks"):
            ScenarioSpec.from_dict(_spec_dict(inject={"0": {"explode": True}}))
