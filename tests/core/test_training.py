"""Tests for trace collection, dataset construction, and training."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.features import Direction, FEATURE_COUNT, RegionFeatureExtractor
from repro.core.micro import MicroModel, MicroModelConfig
from repro.core.training import (
    PacketCrossing,
    RegionTraceCollector,
    TrainedClusterModel,
    build_direction_datasets,
    standardize_and_window,
    train_cluster_model,
    train_micro_model,
)
from repro.core.pipeline import ExperimentConfig, run_full_simulation
from repro.net.packet import Packet
from repro.topology.clos import ClosParams, server_name

FAST_MICRO = MicroModelConfig(hidden_size=16, num_layers=1, window=8, train_batches=15)

SMALL_EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.006, seed=11
)


@pytest.fixture(scope="module")
def trace_output():
    """One full simulation with trace collection, shared by tests."""
    return run_full_simulation(SMALL_EXPERIMENT, collect_cluster=1)


class TestTraceCollection:
    def test_crossings_recorded(self, trace_output):
        records = trace_output.records
        assert len(records) > 200
        delivered = [r for r in records if not r.dropped]
        assert delivered, "no delivered packets recorded"
        for record in delivered[:50]:
            assert record.latency_s is not None and record.latency_s > 0
            assert record.exit_time > record.entry_time

    def test_drops_recorded_when_congested(self, trace_output):
        # The workload at this load produces at least some region drops.
        drops = [r for r in trace_output.records if r.dropped]
        for record in drops:
            assert record.drop_time is not None
            assert record.exit_time is None

    def test_latency_floor_is_physical(self, trace_output):
        """No packet crosses the region faster than physics allows:
        at least one hop of propagation (1 us) plus serialization."""
        for record in trace_output.records:
            if record.latency_s is not None:
                assert record.latency_s >= 1e-6

    def test_both_directions_seen(self, trace_output):
        ext = trace_output.extractor
        directions = {ext.direction_of(r.packet) for r in trace_output.records}
        assert directions == {Direction.INGRESS, Direction.EGRESS}

    def test_invalid_cluster_rejected(self, small_clos):
        from repro.des.kernel import Simulator
        from repro.net.network import Network

        net = Network(Simulator(), small_clos)
        with pytest.raises(ValueError):
            RegionTraceCollector(net, region=99)


class TestDatasetConstruction:
    def test_build_datasets(self, trace_output):
        datasets, calibration = build_direction_datasets(
            trace_output.records, trace_output.extractor
        )
        assert calibration.latency_low_s > 0
        total = sum(d.features.shape[0] for d in datasets.values())
        assert total == len(trace_output.records)
        for dataset in datasets.values():
            assert dataset.features.shape[1] == FEATURE_COUNT
            # Drop targets are 0/1; latency is NaN exactly where dropped.
            assert set(np.unique(dataset.drop)) <= {0.0, 1.0}
            np.testing.assert_array_equal(
                np.isnan(dataset.latency_log), dataset.drop == 1.0
            )

    def test_standardize_and_window(self, trace_output):
        datasets, _ = build_direction_datasets(
            trace_output.records, trace_output.extractor
        )
        dataset = datasets[Direction.INGRESS]
        data = standardize_and_window(dataset, window=8)
        assert data.windows_x.shape[1] == 8
        assert data.windows_x.shape[2] == FEATURE_COUNT
        assert data.windows_y.shape[2] == 3  # [drop, latency, macro_index]
        assert set(np.unique(data.windows_y[..., 2])) <= {0.0, 1.0, 2.0, 3.0}
        assert data.latency_std > 0
        # Standardized latency targets of survivors are ~N(0,1).
        survivors = data.windows_y[..., 1][data.windows_y[..., 0] == 0]
        assert abs(float(survivors.mean())) < 0.5

    def test_empty_records_rejected(self, trace_output):
        with pytest.raises(ValueError):
            build_direction_datasets([], trace_output.extractor)


class TestTraining:
    def test_loss_decreases(self, trace_output):
        datasets, _ = build_direction_datasets(
            trace_output.records, trace_output.extractor
        )
        data = standardize_and_window(datasets[Direction.INGRESS], window=8)
        config = MicroModelConfig(
            hidden_size=16, num_layers=1, window=8, train_batches=60,
            learning_rate=1e-2,
        )
        _, history = train_micro_model(data, config, np.random.default_rng(0))
        early = np.mean([h.total for h in history[:5]])
        late = np.mean([h.total for h in history[-5:]])
        assert late < early

    def test_train_cluster_model_bundle(self, trace_output):
        trained = train_cluster_model(
            trace_output.records, trace_output.extractor, config=FAST_MICRO
        )
        assert Direction.INGRESS in trained.directions
        summary = trained.training_summary
        assert summary["ingress_samples"] > 0

    def test_insufficient_windows_rejected(self, trace_output):
        records = trace_output.records[:3]
        with pytest.raises(ValueError):
            train_cluster_model(
                records, trace_output.extractor,
                config=MicroModelConfig(window=512, train_batches=1),
            )


class TestBundlePersistence:
    def test_save_load_roundtrip(self, trace_output, tmp_path):
        trained = train_cluster_model(
            trace_output.records, trace_output.extractor, config=FAST_MICRO
        )
        trained.save(tmp_path / "bundle")
        loaded = TrainedClusterModel.load(tmp_path / "bundle")
        assert loaded.config == trained.config
        assert loaded.calibration == trained.calibration
        assert set(loaded.directions) == set(trained.directions)
        # Weights identical -> identical predictions.
        direction = next(iter(trained.directions))
        original = trained.directions[direction]
        restored = loaded.directions[direction]
        features = np.zeros(FEATURE_COUNT)
        x = original.feature_standardizer.transform(features)
        p1, l1, _ = original.model.predict_step(x, original.model.initial_state())
        x2 = restored.feature_standardizer.transform(features)
        p2, l2, _ = restored.model.predict_step(x2, restored.model.initial_state())
        assert p1 == pytest.approx(p2)
        assert l1 == pytest.approx(l2)

    def test_bundle_cell_key_from_older_saves(self, trace_output, tmp_path):
        """Bundles written before the GRU was deleted record a ``cell``:
        an LSTM one still loads, a GRU one is refused by name."""
        import json

        trained = train_cluster_model(
            trace_output.records, trace_output.extractor, config=FAST_MICRO
        )
        meta_path = trained.save(tmp_path / "bundle") / "bundle.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["cell"] = "lstm"
        meta_path.write_text(json.dumps(meta))
        assert TrainedClusterModel.load(tmp_path / "bundle").config == trained.config
        meta["config"]["cell"] = "gru"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="only LSTM"):
            TrainedClusterModel.load(tmp_path / "bundle")

    def test_latency_transform_roundtrip(self, trace_output):
        trained = train_cluster_model(
            trace_output.records, trace_output.extractor, config=FAST_MICRO
        )
        bundle = next(iter(trained.directions.values()))
        # norm 0 -> exp(mean): the geometric-mean latency.
        assert bundle.latency_from_norm(0.0) == pytest.approx(
            math.exp(bundle.latency_mean)
        )
        assert bundle.latency_from_norm(1.0) > bundle.latency_from_norm(0.0)
