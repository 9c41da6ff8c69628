"""Offline evaluation of trained cluster models.

Accuracy in the paper is reported distributionally (Figure 4), which
mixes the model's error with TCP's reaction to it.  For model
development you also want the *isolated* error: given a held-out trace
of real crossings, how well does the model predict each packet's fate
when fed the true history (teacher forcing)?

:func:`evaluate_on_records` replays a crossing trace exactly as
training's dataset builder does — entries interleaved with outcomes in
time order, macro classifier fed ground truth — but instead of storing
features it *steps the trained model* and scores its predictions:

* drop head — ROC AUC and base rates (when both classes occur);
* latency head — MAE/RMSE in log-space, median absolute relative
  error in linear space, and predicted-vs-true quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.stats import roc_auc
from repro.core.features import Direction, RegionFeatureExtractor
from repro.core.macro import AutoRegressiveMacroClassifier
from repro.core.pipeline import ExperimentConfig, FullRunOutput, run_full_simulation
from repro.core.training import PacketCrossing, TrainedClusterModel


@dataclass
class DirectionEvaluation:
    """Per-direction prediction quality on a held-out trace."""

    samples: int
    drop_rate_true: float
    drop_rate_predicted: float
    drop_auc: Optional[float]
    latency_log_mae: float
    latency_log_rmse: float
    latency_median_relative_error: float
    latency_quantiles_true: dict[str, float] = field(default_factory=dict)
    latency_quantiles_predicted: dict[str, float] = field(default_factory=dict)


def evaluate_on_records(
    trained: TrainedClusterModel,
    records: list[PacketCrossing],
    extractor: RegionFeatureExtractor,
    macro_bucket_s: float = 0.001,
) -> dict[Direction, DirectionEvaluation]:
    """Score a trained bundle against ground-truth crossings.

    ``extractor`` must be a *fresh* extractor over the same region (its
    inter-arrival clocks are stateful; reusing the training instance
    would corrupt the gaps).
    """
    if not records:
        raise ValueError("no records to evaluate on")
    macro = AutoRegressiveMacroClassifier(trained.calibration, bucket_s=macro_bucket_s)
    states = {
        direction: bundle.model.initial_state()
        for direction, bundle in trained.directions.items()
    }
    collected: dict[Direction, dict[str, list[float]]] = {
        direction: {"p": [], "label": [], "pred_log": [], "true_log": []}
        for direction in trained.directions
    }

    events: list[tuple[float, int, str, PacketCrossing]] = []
    for record in records:
        events.append((record.entry_time, 0, "entry", record))
        if record.outcome_time is not None:
            events.append((record.outcome_time, 1, "outcome", record))
    events.sort(key=lambda e: (e[0], e[1]))

    for time, _, kind, record in events:
        if kind == "outcome":
            macro.observe(time, latency_s=record.latency_s, dropped=record.dropped)
            continue
        direction = extractor.direction_of(record.packet)
        features = extractor.extract(record.packet, time, macro.state, direction=direction)
        bundle = trained.directions.get(direction)
        if bundle is None:
            continue
        normalized = bundle.feature_standardizer.transform(features)
        drop_prob, latency_norm, states[direction] = bundle.model.predict_step(
            normalized, states[direction], macro_index=macro.state.value - 1
        )
        bucket = collected[direction]
        bucket["p"].append(drop_prob)
        bucket["label"].append(1.0 if record.dropped else 0.0)
        if not record.dropped and record.latency_s is not None:
            bucket["pred_log"].append(
                latency_norm * bundle.latency_std + bundle.latency_mean
            )
            bucket["true_log"].append(math.log(max(record.latency_s, 1e-9)))

    results: dict[Direction, DirectionEvaluation] = {}
    for direction, bucket in collected.items():
        if not bucket["p"]:
            continue
        labels = np.asarray(bucket["label"])
        probs = np.asarray(bucket["p"])
        auc: Optional[float] = None
        if 0.0 < labels.mean() < 1.0:
            auc = roc_auc(probs, labels.astype(int))
        pred_log = np.asarray(bucket["pred_log"])
        true_log = np.asarray(bucket["true_log"])
        if pred_log.size:
            log_err = pred_log - true_log
            mae = float(np.abs(log_err).mean())
            rmse = float(np.sqrt((log_err**2).mean()))
            relative = np.abs(np.exp(pred_log) - np.exp(true_log)) / np.exp(true_log)
            median_rel = float(np.median(relative))
            quantiles_true = {
                f"p{int(q * 100)}": float(np.exp(np.quantile(true_log, q)))
                for q in (0.5, 0.9, 0.99)
            }
            quantiles_pred = {
                f"p{int(q * 100)}": float(np.exp(np.quantile(pred_log, q)))
                for q in (0.5, 0.9, 0.99)
            }
        else:
            mae = rmse = median_rel = float("nan")
            quantiles_true = {}
            quantiles_pred = {}
        results[direction] = DirectionEvaluation(
            samples=len(bucket["p"]),
            drop_rate_true=float(labels.mean()),
            drop_rate_predicted=float(probs.mean()),
            drop_auc=auc,
            latency_log_mae=mae,
            latency_log_rmse=rmse,
            latency_median_relative_error=median_rel,
            latency_quantiles_true=quantiles_true,
            latency_quantiles_predicted=quantiles_pred,
        )
    if not results:
        raise ValueError("no direction produced evaluable samples")
    return results


def evaluate_on_fresh_trace(
    trained: TrainedClusterModel,
    config: ExperimentConfig,
    region_cluster: int = 1,
    metrics=None,
) -> tuple[dict[Direction, DirectionEvaluation], FullRunOutput]:
    """Score ``trained`` against a held-out trace of ``config``.

    Runs the experiment at full fidelity with ``region_cluster``'s
    boundary instrumented and replays the crossings through a fresh
    extractor.  Returns the per-direction evaluations and the
    collection run.
    """
    output = run_full_simulation(
        config, collect_cluster=region_cluster, metrics=metrics
    )
    if not output.records:
        raise ValueError("evaluation trace is empty; increase duration_s or load")
    extractor = RegionFeatureExtractor(
        output.extractor.topology, output.extractor.routing, region_cluster
    )
    return evaluate_on_records(trained, output.records, extractor), output
