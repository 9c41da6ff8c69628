"""Trace collection, dataset construction, and micro-model training.

This module implements the paper's training workflow (Figure 3, left):
"We first briefly simulate a small network in full packet-level
fidelity to generate training and testing sets for a machine learning
model that can take incoming packets as inputs and generate properly
timed outgoing packets."

Three stages:

1. :class:`RegionTraceCollector` instruments a full-fidelity network
   and records every packet that crosses the boundary of one cluster's
   fabric: entry time, exit time (or drop time), and direction.
2. :func:`build_training_data` replays the recorded crossings in time
   order to compute features exactly as the hybrid simulator will at
   inference time (same stateful extractor, same macro classifier fed
   by outcomes as they become known), then standardizes and windows
   them.
3. :func:`train_micro_model` runs SGD-with-momentum over the joint
   drop/latency loss — the paper's optimizer, loss, and batch size.

:class:`TrainedClusterModel` bundles the two directional models with
their normalization and macro calibration, and serializes to a
directory for reuse across simulations (the paper's models are "cheap
to run, reusable, and beneficial to asymptotic behavior").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.features import Direction, FEATURE_COUNT, RegionFeatureExtractor
from repro.core.macro import (
    AutoRegressiveMacroClassifier,
    MacroCalibration,
    calibrate_macro,
)
from repro.core.micro import MicroModel, MicroModelConfig
from repro.core.region import Region
from repro.net.network import Network
from repro.net.packet import Packet
from repro.nn.data import BatchIterator, Standardizer, make_sequences
from repro.nn.infer import CompiledRecurrentModel, FusedInferenceEngine, compile_inference
from repro.nn.losses import JointDropLatencyLoss, JointLossParts
from repro.nn.optim import SGD, clip_gradients
from repro.nn.serialize import load_module_state, save_module_state


@dataclass
class PacketCrossing:
    """One packet's traversal of the instrumented region."""

    packet: Packet
    entry_time: float
    exit_time: Optional[float] = None
    drop_time: Optional[float] = None

    @property
    def dropped(self) -> bool:
        """True if the packet died inside the region."""
        return self.drop_time is not None

    @property
    def latency_s(self) -> Optional[float]:
        """Region latency for delivered packets, else None."""
        if self.exit_time is None:
            return None
        return self.exit_time - self.entry_time

    @property
    def outcome_time(self) -> Optional[float]:
        """When the outcome became observable (exit or drop instant)."""
        return self.drop_time if self.dropped else self.exit_time


class RegionTraceCollector:
    """Instruments one cluster's fabric boundary in a live network
    (:meth:`~repro.core.region.Region.tap_boundary`) and records every
    crossing: region latency is measured entry-delivery to
    exit-delivery — exactly the interval the hybrid simulator's model
    replaces.
    """

    def __init__(self, network: Network, region: Region | int) -> None:
        self.network = network
        if isinstance(region, int):
            region = Region.cluster(network.topology, region)
        self.region = region
        self._pending: dict[int, PacketCrossing] = {}
        self.records: list[PacketCrossing] = []
        self.incomplete = 0
        region.tap_boundary(
            network, self._on_entry, self._on_exit, self._on_region_drop
        )

    def _on_entry(self, packet: Packet, time: float) -> None:
        crossing = PacketCrossing(packet=packet, entry_time=time)
        self._pending[packet.packet_id] = crossing

    def _on_exit(self, packet: Packet, time: float) -> None:
        crossing = self._pending.pop(packet.packet_id, None)
        if crossing is None:
            return  # e.g. instrumentation attached mid-flight
        crossing.exit_time = time
        self._complete(crossing)

    def _on_region_drop(self, packet: Packet) -> None:
        crossing = self._pending.pop(packet.packet_id, None)
        if crossing is None:
            return
        crossing.drop_time = self.network.sim.now
        self._complete(crossing)

    def _complete(self, crossing: PacketCrossing) -> None:
        """A crossing's outcome is known (overridable sink)."""
        self.records.append(crossing)

    def finalize(self) -> list[PacketCrossing]:
        """Return completed records; in-flight packets are discarded."""
        self.incomplete = len(self._pending)
        self._pending.clear()
        return self.records


# ----------------------------------------------------------------------
# Dataset construction
# ----------------------------------------------------------------------
@dataclass
class DirectionDataset:
    """Feature/target arrays for one direction, pre-standardization."""

    features: np.ndarray  # (N, F)
    drop: np.ndarray  # (N,)
    latency_log: np.ndarray  # (N,) log-seconds; NaN where dropped
    macro_index: np.ndarray  # (N,) ints in [0, 4): macro state at entry


@dataclass
class TrainingData:
    """Standardized, windowed training tensors for one direction."""

    windows_x: np.ndarray  # (num_windows, T, F)
    windows_y: np.ndarray  # (num_windows, T, 3): [drop, latency_std, macro_index]
    feature_standardizer: Standardizer
    latency_mean: float
    latency_std: float
    sample_count: int
    drop_fraction: float


def build_direction_datasets(
    records: list[PacketCrossing],
    extractor: RegionFeatureExtractor,
    calibration: Optional[MacroCalibration] = None,
    macro_bucket_s: float = 0.001,
) -> tuple[dict[Direction, DirectionDataset], MacroCalibration]:
    """Replay crossings in time order and compute features.

    The replay interleaves entry events (feature extraction, using the
    macro state known *so far*) with outcome events (macro classifier
    updates) exactly as they interleave in a live run, so the macro
    feature never peeks at the future.
    """
    if not records:
        raise ValueError("no packet crossings recorded; nothing to train on")
    if calibration is None:
        latencies = [r.latency_s for r in records if r.latency_s is not None]
        drops = [1 if r.dropped else 0 for r in records]
        if not latencies:
            raise ValueError("trace contains no delivered packets; cannot calibrate")
        calibration = calibrate_macro(latencies, drops)
    macro = AutoRegressiveMacroClassifier(calibration, bucket_s=macro_bucket_s)

    events: list[tuple[float, int, str, PacketCrossing]] = []
    for record in records:
        events.append((record.entry_time, 0, "entry", record))
        outcome_time = record.outcome_time
        if outcome_time is not None:
            events.append((outcome_time, 1, "outcome", record))
    events.sort(key=lambda e: (e[0], e[1]))

    rows: dict[Direction, list[tuple[np.ndarray, float, float, int]]] = {
        Direction.INGRESS: [],
        Direction.EGRESS: [],
    }
    for time, _, kind, record in events:
        if kind == "entry":
            direction = extractor.direction_of(record.packet)
            features = extractor.extract(record.packet, time, macro.state)
            latency = record.latency_s
            latency_log = math.log(max(latency, 1e-9)) if latency is not None else math.nan
            rows[direction].append(
                (
                    features,
                    1.0 if record.dropped else 0.0,
                    latency_log,
                    macro.state.value - 1,
                )
            )
        else:
            macro.observe(
                time,
                latency_s=record.latency_s,
                dropped=record.dropped,
            )

    datasets: dict[Direction, DirectionDataset] = {}
    for direction, entries in rows.items():
        if not entries:
            continue
        features = np.stack([e[0] for e in entries])
        drop = np.array([e[1] for e in entries])
        latency_log = np.array([e[2] for e in entries])
        macro_index = np.array([e[3] for e in entries], dtype=np.intp)
        datasets[direction] = DirectionDataset(features, drop, latency_log, macro_index)
    return datasets, calibration


def standardize_and_window(dataset: DirectionDataset, window: int) -> TrainingData:
    """Fit normalizations and cut the stream into training windows."""
    standardizer = Standardizer().fit(dataset.features)
    x = standardizer.transform(dataset.features)
    delivered = ~np.isnan(dataset.latency_log)
    if delivered.any():
        latency_mean = float(dataset.latency_log[delivered].mean())
        latency_std = float(dataset.latency_log[delivered].std())
        if latency_std < 1e-9:
            latency_std = 1.0
    else:
        latency_mean, latency_std = 0.0, 1.0
    latency_norm = np.where(
        delivered, (dataset.latency_log - latency_mean) / latency_std, 0.0
    )
    targets = np.stack(
        [dataset.drop, latency_norm, dataset.macro_index.astype(np.float64)], axis=1
    )
    windows_x, windows_y = make_sequences(x, targets, window)
    return TrainingData(
        windows_x=windows_x,
        windows_y=windows_y,
        feature_standardizer=standardizer,
        latency_mean=latency_mean,
        latency_std=latency_std,
        sample_count=dataset.features.shape[0],
        drop_fraction=float(dataset.drop.mean()),
    )


# ----------------------------------------------------------------------
# Training loop
# ----------------------------------------------------------------------
def train_micro_model(
    data: TrainingData,
    config: MicroModelConfig,
    rng: Optional[np.random.Generator] = None,
    metrics=None,
    direction_label: str = "all",
) -> tuple[MicroModel, list[JointLossParts]]:
    """Train one directional micro model.

    Iterates reshuffled epochs over the window set until
    ``config.train_batches`` optimizer steps have been taken, exactly
    the paper's recipe (SGD, lr 1e-4, momentum 0.9, batch 64, joint
    loss with drop-masked latency term).

    When ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) is given,
    every optimizer step is timed under a ``train.batch`` span and the
    loss, pre-clip gradient norm, and examples/second land in labeled
    histograms — the training-side half of the observability layer.
    """
    if data.windows_x.shape[0] == 0:
        raise ValueError(
            f"no training windows (need >= {config.window} consecutive samples)"
        )
    rng = rng or np.random.default_rng(config.seed)
    model = MicroModel(config, rng)
    # Initialize the drop head's bias at the base-rate log-odds.  Drops
    # are rare (<1% in most regimes), and a head that starts at p=0.5
    # would need thousands of SGD steps just to stop mass-dropping;
    # base-rate initialization is the standard imbalanced-class fix and
    # lets the budgeted step counts refine rather than rescue.
    base_rate = min(max(data.drop_fraction, 1e-4), 0.5)
    model.drop_head.bias.value[...] = math.log(base_rate / (1.0 - base_rate))
    per_macro = config.heads == "per_macro"
    optimizer = SGD(
        model.parameters(), lr=config.learning_rate, momentum=config.momentum
    )
    loss_fn = JointDropLatencyLoss(alpha=config.alpha)
    history: list[JointLossParts] = []
    instrumented = metrics is not None and metrics.handles_enabled()
    if instrumented:
        batch_span = metrics.span("train.batch", direction=direction_label)
        m_loss = metrics.histogram("train.loss", direction=direction_label)
        m_grad = metrics.histogram("train.grad_norm", direction=direction_label)
        m_rate = metrics.histogram("train.examples_per_sec", direction=direction_label)
        prev_total = batch_span.total_s
    steps = 0
    while steps < config.train_batches:
        batches = BatchIterator(data.windows_x, data.windows_y, config.batch_size, rng)
        for xb, yb in batches:
            macro_idx = yb[..., 2].astype(np.intp) if per_macro else None
            if instrumented:
                with batch_span:
                    drop_logits, latency_pred = model.forward(xb, macro_index=macro_idx)
                    parts = loss_fn.forward(
                        drop_logits, latency_pred, yb[..., 0], yb[..., 1]
                    )
                    model.zero_grad()
                    grad_drop, grad_latency = loss_fn.backward()
                    model.backward(grad_drop, grad_latency)
                    grad_norm = clip_gradients(model.parameters(), config.grad_clip)
                    optimizer.step()
                m_loss.observe(parts.total)
                m_grad.observe(grad_norm)
                batch_s = batch_span.total_s - prev_total
                prev_total = batch_span.total_s
                if batch_s > 0:
                    m_rate.observe(xb.shape[0] * xb.shape[1] / batch_s)
            else:
                drop_logits, latency_pred = model.forward(xb, macro_index=macro_idx)
                parts = loss_fn.forward(
                    drop_logits, latency_pred, yb[..., 0], yb[..., 1]
                )
                model.zero_grad()
                grad_drop, grad_latency = loss_fn.backward()
                model.backward(grad_drop, grad_latency)
                clip_gradients(model.parameters(), config.grad_clip)
                optimizer.step()
            history.append(parts)
            steps += 1
            if steps >= config.train_batches:
                break
    return model, history


# ----------------------------------------------------------------------
# The trained bundle
# ----------------------------------------------------------------------
@dataclass
class DirectionModel:
    """One direction's model plus its normalization."""

    model: MicroModel
    feature_standardizer: Standardizer
    latency_mean: float
    latency_std: float

    def latency_from_norm(self, latency_norm: float) -> float:
        """Invert the standardized-log-latency transform (to seconds)."""
        return math.exp(latency_norm * self.latency_std + self.latency_mean)

    def compile(self, dtype: str | np.dtype = np.float64) -> CompiledRecurrentModel:
        """Lower this direction's model into fused inference weights.

        The feature standardizer is folded into layer 0, so compiled
        engines consume *raw* extractor features directly.
        """
        return compile_inference(
            self.model.lstm,
            self.model.drop_head,
            self.model.latency_head,
            feature_mean=self.feature_standardizer.mean,
            feature_std=self.feature_standardizer.std,
            dtype=dtype,
        )


@dataclass
class CompiledClusterModel:
    """Fused inference weights for both directions of a trained bundle.

    Produced by :meth:`TrainedClusterModel.compiled`; weights are
    shared read-only, so one compiled bundle serves every approximated
    cluster in a simulation — each cluster spawns its own per-direction
    :class:`~repro.nn.infer.FusedInferenceEngine` (which owns the
    hidden state) via :meth:`engine`.
    """

    directions: dict[Direction, CompiledRecurrentModel]

    def engine(self, direction: Direction) -> FusedInferenceEngine:
        """A fresh hot-path executor for one direction."""
        return self.directions[direction].engine()


@dataclass
class TrainedClusterModel:
    """Everything the hybrid simulator needs to replace a cluster.

    Trained once on a small full-fidelity simulation and reused for
    every approximated cluster of a large one — the symmetric structure
    of the Clos data center is what licenses the reuse (Section 3).
    """

    config: MicroModelConfig
    calibration: MacroCalibration
    directions: dict[Direction, DirectionModel]
    training_summary: dict[str, float] = field(default_factory=dict)
    _compiled: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def direction(self, direction: Direction) -> DirectionModel:
        """The model bundle for one direction."""
        return self.directions[direction]

    def compiled(self, dtype: str | np.dtype = np.float64) -> CompiledClusterModel:
        """Fused inference weights for the hybrid hot path.

        Compilation happens once per dtype and is cached on the bundle,
        so every approximated cluster of a simulation shares the same
        read-only weight arrays.  ``float64`` (default) matches the
        reference ``predict_step`` path to <= 1e-9; ``float32`` is the
        opt-in speed mode.
        """
        key = np.dtype(dtype).name
        cached = self._compiled.get(key)
        if cached is None:
            cached = CompiledClusterModel(
                directions={
                    direction: bundle.compile(dtype)
                    for direction, bundle in self.directions.items()
                }
            )
            self._compiled[key] = cached
        return cached

    # -- persistence ----------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Write the bundle to a directory (npz weights + json meta).

        Returns the directory; ``bundle.json`` records the per-direction
        weight files actually written, so registries and manifests can
        point at concrete artifacts.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        artifacts: dict[str, str] = {}
        for direction, bundle in self.directions.items():
            metadata = {
                "feature_mean": bundle.feature_standardizer.state_dict()["mean"],
                "feature_std": bundle.feature_standardizer.state_dict()["std"],
                "latency_mean": np.asarray(bundle.latency_mean),
                "latency_std": np.asarray(bundle.latency_std),
            }
            written = save_module_state(
                bundle.model, directory / f"{direction.value}.npz", metadata=metadata
            )
            artifacts[direction.value] = written.name
        meta = {
            "config": {
                "input_size": self.config.input_size,
                "hidden_size": self.config.hidden_size,
                "num_layers": self.config.num_layers,
                "cell": self.config.cell,
                "heads": self.config.heads,
                "alpha": self.config.alpha,
                "learning_rate": self.config.learning_rate,
                "momentum": self.config.momentum,
                "batch_size": self.config.batch_size,
                "window": self.config.window,
                "train_batches": self.config.train_batches,
                "grad_clip": self.config.grad_clip,
                "seed": self.config.seed,
            },
            "calibration": {
                "latency_low_s": self.calibration.latency_low_s,
                "drop_rate_high": self.calibration.drop_rate_high,
            },
            "directions": [d.value for d in self.directions],
            "artifacts": artifacts,
            "training_summary": self.training_summary,
        }
        (directory / "bundle.json").write_text(json.dumps(meta, indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "TrainedClusterModel":
        """Inverse of :meth:`save`."""
        directory = Path(directory)
        meta = json.loads((directory / "bundle.json").read_text())
        config = MicroModelConfig(**meta["config"])
        calibration = MacroCalibration(**meta["calibration"])
        directions: dict[Direction, DirectionModel] = {}
        for value in meta["directions"]:
            direction = Direction(value)
            model = MicroModel(config, np.random.default_rng(0))
            metadata = load_module_state(model, directory / f"{value}.npz")
            standardizer = Standardizer.from_state_dict(
                {"mean": metadata["feature_mean"], "std": metadata["feature_std"]}
            )
            directions[direction] = DirectionModel(
                model=model,
                feature_standardizer=standardizer,
                latency_mean=float(metadata["latency_mean"]),
                latency_std=float(metadata["latency_std"]),
            )
        return cls(
            config=config,
            calibration=calibration,
            directions=directions,
            training_summary=meta.get("training_summary", {}),
        )


def train_cluster_model(
    records: list[PacketCrossing],
    extractor: RegionFeatureExtractor,
    config: Optional[MicroModelConfig] = None,
    macro_bucket_s: float = 0.001,
    metrics=None,
) -> TrainedClusterModel:
    """End-to-end: crossings -> datasets -> two trained directional models."""
    config = config or MicroModelConfig()
    datasets, calibration = build_direction_datasets(
        records, extractor, macro_bucket_s=macro_bucket_s
    )
    directions: dict[Direction, DirectionModel] = {}
    summary: dict[str, float] = {}
    for direction, dataset in datasets.items():
        data = standardize_and_window(dataset, config.window)
        seed_offset = 0 if direction is Direction.INGRESS else 1
        rng = np.random.default_rng(config.seed + seed_offset)
        model, history = train_micro_model(
            data, config, rng, metrics=metrics, direction_label=direction.value
        )
        directions[direction] = DirectionModel(
            model=model,
            feature_standardizer=data.feature_standardizer,
            latency_mean=data.latency_mean,
            latency_std=data.latency_std,
        )
        summary[f"{direction.value}_samples"] = float(data.sample_count)
        summary[f"{direction.value}_drop_fraction"] = data.drop_fraction
        if history:
            summary[f"{direction.value}_final_loss"] = history[-1].total
            summary[f"{direction.value}_initial_loss"] = history[0].total
    if not directions:
        raise ValueError("trace produced no usable training data")
    return TrainedClusterModel(
        config=config, calibration=calibration, directions=directions, training_summary=summary
    )
