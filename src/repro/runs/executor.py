"""The worker-side body of one scheduled run.

:func:`execute_run` is the function the sweep scheduler submits to its
process pool (top-level, so it pickles).  It owns the run directory's
manifest through the attempt's lifecycle:

1. write a ``running`` manifest immediately (durable even if the
   worker is later killed by a timeout),
2. execute the requested pipeline stage — model stages resolve their
   trained bundle through the :class:`~repro.runs.registry.ModelRegistry`
   (cache hit or train-and-store),
3. overwrite the manifest with ``completed`` (result summary, hot-path
   counters, model provenance) or ``failed`` (exception type, message,
   full traceback) and return it as a plain dict.

Failures never propagate: a crashing run yields a failed manifest for
the scheduler's retry logic, not a dead sweep.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from typing import Any, Optional

from repro.analysis.stats import percentile_summary
from repro.core.hybrid import HybridConfig, hot_path_summary
from repro.core.pipeline import (
    RunResult,
    run_full_simulation,
    run_hybrid_simulation,
)
from repro.core.world import per_wallclock_second
from repro.obs import MetricsRegistry
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, FlightRecorder
from repro.runs.fingerprint import experiment_hash, experiment_payload
from repro.runs.manifest import RunManifest
from repro.runs.registry import ModelRegistry, RegistryLookup
from repro.runs.spec import RunRequest

#: The hot-path block of a stage that runs no model.
_ZERO_COUNTERS = hot_path_summary({})


def _sample_summary(values: list[float]) -> dict[str, float]:
    if not values:
        return {"count": 0.0}
    return percentile_summary(values, percentiles=(50, 95, 99))


def _summarize_result(result: RunResult) -> dict[str, Any]:
    """Manifest-sized view of a :class:`RunResult` (no raw samples)."""
    scenario: dict[str, Any] = {}
    if result.failure_events:
        scenario["failure_events"] = result.failure_events
    if result.collective is not None:
        scenario["collective"] = result.collective
    return {
        **scenario,
        "sim_seconds": result.sim_seconds,
        "wallclock_seconds": result.wallclock_seconds,
        "sim_seconds_per_second": result.sim_seconds_per_second,
        "events_executed": result.events_executed,
        "events_per_second": result.events_per_second,
        "flows_started": result.flows_started,
        "flows_completed": result.flows_completed,
        "flows_elided": result.flows_elided,
        "drops": result.drops,
        "model_packets": result.model_packets,
        "model_drops": result.model_drops,
        "model_inference_seconds": result.model_inference_seconds,
        "inference_share": result.inference_share,
        "rtt": _sample_summary(result.rtt_samples),
        "fct": _sample_summary(result.fcts),
    }


def _write_trace_artifact(
    run_dir: Path, events: list[dict], meta: dict[str, Any]
) -> dict[str, str]:
    """Write ``trace.jsonl`` next to the manifest; best-effort (a full
    disk must not fail the run that was being traced)."""
    from repro.obs.trace import write_trace_jsonl

    path = run_dir / "trace.jsonl"
    try:
        write_trace_jsonl(path, events, meta=meta)
    except OSError:
        return {}
    return {"trace": str(path)}


def _apply_injections(request: RunRequest, attempt: int) -> None:
    """Test hooks: deterministic failures and hangs (see ScenarioSpec)."""
    hang_s = float(request.inject.get("hang_s", 0.0))
    if hang_s > 0.0:
        time.sleep(hang_s)
    fail_attempts = int(request.inject.get("fail_attempts", 0))
    if attempt <= fail_attempts:
        raise RuntimeError(
            f"injected failure (attempt {attempt} of {fail_attempts} doomed)"
        )


def _resolve_model(
    request: RunRequest, registry_root: Optional[str]
) -> RegistryLookup:
    if registry_root is None:
        raise ValueError(f"stage {request.stage!r} needs a model registry")
    assert request.training is not None and request.micro is not None
    registry = ModelRegistry(registry_root)
    return registry.get_or_train(request.training, request.micro)


def _run_stage(
    request: RunRequest,
    registry_root: Optional[str],
    run_dir: Path,
    metrics: Optional[MetricsRegistry] = None,
) -> tuple[
    dict[str, Any], dict[str, float], Optional[dict[str, Any]], dict[str, str]
]:
    """Execute the stage.

    Returns ``(result, hot_path_counters, model_info, artifacts)`` —
    ``artifacts`` maps artifact names to files the stage wrote under
    ``run_dir`` (the cascade stage's decision log, for instance).
    """
    experiment = request.experiment
    artifacts: dict[str, str] = {}
    if not request.needs_model:
        # simulate: full packet-level fidelity, no model involved.
        output = run_full_simulation(experiment, metrics=metrics)
        return _summarize_result(output.result), dict(_ZERO_COUNTERS), None, artifacts

    lookup = _resolve_model(request, registry_root)
    model_info = {
        "fingerprint": lookup.fingerprint,
        "cache_hit": lookup.cache_hit,
        "path": str(lookup.path),
        "train_wallclock_s": lookup.train_wallclock_s,
    }
    if request.stage == "train":
        result_dict = {"training_summary": lookup.model.training_summary}
        return result_dict, dict(_ZERO_COUNTERS), model_info, artifacts
    if request.stage == "validate":
        # Differential fidelity: a matched full/hybrid pair scored
        # by repro.validate; the report rides in the manifest so
        # sweeps gate on agreement, not just completion.
        from repro.validate import ValidateConfig, run_differential_pair

        diff = run_differential_pair(
            experiment,
            lookup.model,
            validate=ValidateConfig(**request.hybrid),
            metrics=metrics,
        )
        counters = diff.hybrid_sim.hot_path_counters(diff.hybrid.wallclock_seconds)
        result_dict = {
            "full": _summarize_result(diff.full),
            "hybrid": _summarize_result(diff.hybrid),
            "fidelity": diff.report.to_dict(),
        }
        return result_dict, counters, model_info, artifacts
    if request.stage == "evaluate":
        # Score the bundle against a fresh ground-truth trace.
        from repro.core.evaluation import evaluate_on_fresh_trace

        evaluations, output = evaluate_on_fresh_trace(
            lookup.model, experiment, metrics=metrics
        )
        scored = (
            "samples", "drop_rate_true", "drop_rate_predicted", "drop_auc",
            "latency_log_mae", "latency_median_relative_error",
        )
        result_dict = {
            "trace": _summarize_result(output.result),
            "directions": {
                direction.value: {field: getattr(ev, field) for field in scored}
                for direction, ev in evaluations.items()
            },
        }
        return result_dict, dict(_ZERO_COUNTERS), model_info, artifacts

    # hybrid / pdes-hybrid / cascade: run, then one trace write.
    options = dict(request.hybrid)
    # The trace knobs are popped whether or not tracing was requested,
    # so they never reach HybridConfig/CascadeConfig.
    traced = bool(options.pop("trace", False))
    trace_capacity = int(options.pop("trace_capacity", DEFAULT_TRACE_CAPACITY))
    trace = None  # (events, recorded, evicted, workers) when traced
    if request.stage == "pdes-hybrid":
        # Sharded hybrid: the model travels to workers as a
        # registry reference (path + fingerprint), never pickled.
        from repro.pdes import HybridShardConfig, ModelRef, run_hybrid_sharded

        inject_crash = options.pop("inject_crash", None)
        shard_config = HybridShardConfig(
            workers=int(options.pop("workers", 2)),
            window_s=options.pop("window_s", None),
            worker_timeout_s=float(options.pop("worker_timeout_s", 300.0)),
            inject_crash=None if inject_crash is None else int(inject_crash),
            trace=traced,
            trace_capacity=trace_capacity,
        )
        pdes_result = run_hybrid_sharded(
            experiment,
            ModelRef(path=str(lookup.path), fingerprint=lookup.fingerprint),
            shard=shard_config,
            hybrid=HybridConfig(**options),
        )
        wallclock = pdes_result.wallclock_seconds
        counters = pdes_result.merged_hot_path_counters(wallclock)
        result_dict = {
            "sim_seconds": pdes_result.sim_seconds,
            "wallclock_seconds": wallclock,
            "sim_seconds_per_second": pdes_result.sim_seconds_per_second,
            "events_executed": pdes_result.events_executed,
            "events_per_second": per_wallclock_second(
                pdes_result.events_executed, wallclock
            ),
            "flows_completed": pdes_result.flows_completed,
            "drops": pdes_result.drops,
            "model_packets": pdes_result.model_packets,
            "model_drops": pdes_result.model_drops,
            "rtt": _sample_summary(pdes_result.rtt_samples),
            "fct": _sample_summary(pdes_result.fcts),
            "pdes": pdes_result.merged_counters(),
        }
        if traced:
            recorded, evicted = pdes_result.trace_recorded, pdes_result.trace_evicted
            result_dict["pdes"]["trace"] = {"recorded": recorded, "evicted": evicted}
            trace = (pdes_result.merged_trace(), recorded, evicted, pdes_result.workers)
    else:
        tracer = None
        if traced:
            tracer = FlightRecorder(seed=experiment.seed, capacity=trace_capacity)
        extras: dict[str, Any] = {}
        if request.stage == "hybrid":
            result, hybrid_sim = run_hybrid_simulation(
                experiment, lookup.model, hybrid=HybridConfig(**options),
                metrics=metrics, tracer=tracer,
            )
        else:
            # Multi-fidelity cascade: the manifest carries the tier
            # residency, promotion counts, and per-tier packet split,
            # and the auditable decision log lands next to it.
            from repro.cascade import CascadeConfig, run_cascade_simulation
            from repro.validate.invariants import InvariantChecker

            checker = InvariantChecker(metrics=metrics)
            cascade_result, cascade_sim = run_cascade_simulation(
                experiment, lookup.model, cascade=CascadeConfig.from_dict(options),
                metrics=metrics, tracer=tracer, invariants=checker,
            )
            result, hybrid_sim = cascade_result.result, cascade_sim.hybrid
            extras = {
                "cascade": cascade_sim.cascade_summary(),
                "invariants": checker.summary(),
                "fluid_fct": _sample_summary(cascade_result.fluid_fcts),
            }
            decisions_path = run_dir / "decisions.json"
            cascade_sim.decision_log.save(decisions_path)
            artifacts["decisions"] = str(decisions_path)
        counters = hybrid_sim.hot_path_counters(result.wallclock_seconds)
        result_dict = {**_summarize_result(result), **extras}
        if tracer is not None:
            trace = (tracer.records(), tracer.recorded, tracer.evicted, 1)
    if trace is not None:
        events, recorded, evicted, workers = trace
        meta = {
            "stage": request.stage,
            "seed": experiment.seed,
            "workers": workers,
            "recorded": recorded,
            "evicted": evicted,
        }
        artifacts.update(_write_trace_artifact(run_dir, events, meta))
    return result_dict, counters, model_info, artifacts


def execute_run(
    request: RunRequest,
    out_dir: str,
    registry_root: Optional[str],
    attempt: int,
) -> dict[str, Any]:
    """Run one attempt end-to-end; always returns a manifest dict."""
    run_dir = Path(out_dir) / request.run_id
    started = time.time()
    manifest = RunManifest(
        run_id=request.run_id,
        spec_name=request.spec_name,
        stage=request.stage,
        status="running",
        attempts=attempt,
        axes=dict(request.axes),
        seed_master=request.seed_master,
        seed_derived=request.seed_derived,
        config=experiment_payload(request.experiment),
        config_hash=experiment_hash(request.experiment),
        started_at=started,
    )
    manifest.save(run_dir)
    metrics = MetricsRegistry(enabled=True)
    try:
        _apply_injections(request, attempt)
        result, counters, model_info, stage_artifacts = _run_stage(
            request, registry_root, run_dir, metrics=metrics
        )
        manifest.status = "completed"
        manifest.result = result
        manifest.hot_path_counters = counters
        manifest.model = model_info
        manifest.artifacts.update(stage_artifacts)
        if model_info is not None:
            manifest.artifacts["model"] = model_info["path"]
    except Exception as error:  # noqa: BLE001 — failure capture is the contract
        manifest.status = "failed"
        manifest.hot_path_counters = dict(_ZERO_COUNTERS)
        manifest.error = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
        # Structured simulation errors (an unroutable packet after a
        # link failure, say) carry machine-readable context for triage.
        details = getattr(error, "details", None)
        if callable(details):
            manifest.error["details"] = details()
        # A crashed PDES worker's flight recorder survives in its error
        # report; carry the last window of spans into the manifest.
        trace_tail = getattr(error, "trace_tail", None)
        if trace_tail:
            manifest.error["trace_tail"] = trace_tail
    # The observability snapshot rides in the manifest either way — on
    # failure it is the flight recorder (how far did the span tree get).
    manifest.metrics = metrics.snapshot()
    try:
        metrics_path = run_dir / "metrics.jsonl"
        metrics.write_jsonl(metrics_path)
        manifest.artifacts["metrics"] = str(metrics_path)
    except OSError:
        pass  # a full disk must not turn a completed run into a failed one
    manifest.finished_at = time.time()
    manifest.wallclock_seconds = manifest.finished_at - started
    manifest.save(run_dir)
    return manifest.to_dict()
