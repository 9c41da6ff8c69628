"""The stage runner, and the worker-side body of one scheduled run.

:func:`run_stage` is the one driver of a pipeline stage: experiment +
options dict (a spec's ``hybrid`` block) + model → the stage's configs
→ its entrypoint → a :class:`StageRun`.  ``repro <stage> --flags``
and ``repro runs submit`` both end here, and :func:`stage_configs` is
the only place a stage's options become config objects, so a flag and
the spec key it sets cannot drift apart.

:func:`execute_run` is the function the sweep scheduler submits to its
process pool (top-level, so it pickles).  It owns the run directory's
manifest through the attempt's lifecycle:

1. write a ``running`` manifest immediately (durable even if the
   worker is later killed by a timeout),
2. resolve a model stage's trained bundle through the
   :class:`~repro.runs.registry.ModelRegistry` (cache hit or
   train-and-store), then :func:`run_stage`,
3. overwrite the manifest with ``completed`` (result summary, hot-path
   counters, model provenance) or ``failed`` (exception type, message,
   full traceback) and return it as a plain dict.

Failures never propagate: a crashing run yields a failed manifest for
the scheduler's retry logic, not a dead sweep.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.analysis.stats import percentile_summary
from repro.core.hybrid import HybridConfig, hot_path_summary
from repro.core.pipeline import ExperimentConfig, RunResult, run_hybrid_simulation
from repro.core.world import build_world, per_wallclock_second
from repro.obs import MetricsRegistry
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, FlightRecorder, write_trace_jsonl
from repro.runs.fingerprint import experiment_hash, experiment_payload
from repro.runs.manifest import RunManifest
from repro.runs.registry import ModelRegistry, RegistryLookup

if TYPE_CHECKING:
    from repro.runs.spec import RunRequest

#: The hot-path block of a stage that runs no model.
_ZERO_COUNTERS = hot_path_summary({})

#: Flight-recorder keys of the in-process traced stages (the sharded
#: stage has them as :class:`~repro.pdes.HybridShardConfig` fields).
TRACE_KEYS = ("trace", "trace_capacity")
_TRACED_STAGES = ("hybrid", "cascade")


def _stage_config_types(stage: str) -> dict[str, type]:
    """Config name -> dataclass, for the stages that take options."""
    from repro.cascade import CascadeConfig
    from repro.pdes import HybridShardConfig
    from repro.validate import ValidateConfig

    return {
        "hybrid": {"hybrid": HybridConfig},
        "pdes-hybrid": {"hybrid": HybridConfig, "shard": HybridShardConfig},
        "cascade": {"cascade": CascadeConfig},
        "validate": {"validate": ValidateConfig},
    }.get(stage, {})


def stage_option_keys(stage: str) -> frozenset[str]:
    """The keys ``stage``'s options (a spec's ``hybrid`` block) accept:
    its config fields, plus the trace keys of a traced stage."""
    keys = {
        f.name for cls in _stage_config_types(stage).values() for f in fields(cls)
    }
    if stage in _TRACED_STAGES:
        keys.update(TRACE_KEYS)
    return frozenset(keys)


def stage_configs(stage: str, options: Mapping[str, Any]) -> dict[str, Any]:
    """Build ``stage``'s configs from its options, split by field name.

    Returns config name -> object (``"hybrid"``, ``"shard"``,
    ``"cascade"``, ``"validate"``); a traced in-process stage also gets
    ``"trace"``: the flight-recorder capacity, or ``None`` untraced.
    Unknown keys fail here, naming the stage and the allowed keys.
    """
    allowed = stage_option_keys(stage)
    unknown = set(options) - allowed
    if unknown:
        raise ValueError(
            f"stage {stage!r}: unknown 'hybrid' keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or 'none (this stage takes no hybrid block)'}"
        )
    configs: dict[str, Any] = {}
    for name, cls in _stage_config_types(stage).items():
        names = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in options.items() if key in names}
        build = getattr(cls, "from_dict", None)
        try:
            configs[name] = build(kwargs) if build else cls(**kwargs)
        except TypeError as error:
            raise ValueError(f"stage {stage!r}: bad 'hybrid' options: {error}") from None
    if stage in _TRACED_STAGES:
        configs["trace"] = (
            int(options.get("trace_capacity", DEFAULT_TRACE_CAPACITY))
            if options.get("trace")
            else None
        )
    return configs


@dataclass
class StageRun:
    """What one stage produced, before a manifest or a table renders it.

    ``result`` is the entrypoint's result: a :class:`RunResult`
    (simulate, hybrid), ``CascadeResult``, ``DifferentialResult``
    (validate), ``PdesHybridResult`` (pdes-hybrid), the per-direction
    evaluations (evaluate) or the model itself (train).  ``detail`` is
    the entrypoint's second output: the ``HybridSimulation`` /
    ``CascadeSimulation``, or evaluate's held-out ``FullRunOutput``.
    """

    result: Any
    detail: Any = None
    #: The cascade's InvariantChecker.
    invariants: Any = None
    #: ``{"stage", "seed", "workers", "recorded", "evicted"}`` when traced.
    trace: Optional[dict[str, Any]] = None
    #: Trace records written to ``trace_path`` (None: nothing written).
    trace_written: Optional[int] = None


def run_stage(
    stage: str,
    experiment: ExperimentConfig,
    options: Mapping[str, Any],
    model: Any = None,
    *,
    metrics: Optional[MetricsRegistry] = None,
    trace_path: Optional[str | Path] = None,
    region_cluster: int = 1,
    tap: Optional[Callable[[Any], None]] = None,
) -> StageRun:
    """Run one pipeline stage.

    ``model`` is a model stage's trained bundle (a
    :class:`~repro.pdes.ModelRef` also works for ``pdes-hybrid``).  A
    traced run writes its trace to ``trace_path`` when one is given
    (best-effort: a full disk must not fail the run it traced).
    ``region_cluster`` is the boundary ``evaluate`` scores; ``tap`` is
    called with ``simulate``'s built world before it runs.
    """
    configs = stage_configs(stage, options)
    if stage == "simulate":
        world = build_world(experiment, metrics=metrics)
        if tap is not None:
            tap(world)
        world.run()
        return StageRun(world.result())
    if stage == "train":
        return StageRun(model)
    if stage == "evaluate":
        from repro.core.evaluation import evaluate_on_fresh_trace

        return StageRun(*evaluate_on_fresh_trace(
            model, experiment, region_cluster, metrics=metrics
        ))
    if stage == "validate":
        from repro.validate import run_differential_pair

        return StageRun(run_differential_pair(
            experiment, model, validate=configs["validate"], metrics=metrics
        ))

    trace = None  # (events, recorded, evicted, workers) when traced
    if stage == "pdes-hybrid":
        from repro.pdes import run_hybrid_sharded

        result = run_hybrid_sharded(
            experiment, model, shard=configs["shard"], hybrid=configs["hybrid"]
        )
        run = StageRun(result)
        if configs["shard"].trace:
            trace = (
                result.merged_trace(), result.trace_recorded,
                result.trace_evicted, result.workers,
            )
    else:
        tracer = None
        if configs["trace"] is not None:
            tracer = FlightRecorder(seed=experiment.seed, capacity=configs["trace"])
        if stage == "hybrid":
            run = StageRun(*run_hybrid_simulation(
                experiment, model, hybrid=configs["hybrid"],
                metrics=metrics, tracer=tracer,
            ))
        else:
            from repro.cascade import run_cascade_simulation
            from repro.validate.invariants import InvariantChecker

            checker = InvariantChecker(metrics=metrics)
            run = StageRun(
                *run_cascade_simulation(
                    experiment, model, cascade=configs["cascade"],
                    metrics=metrics, tracer=tracer, invariants=checker,
                ),
                invariants=checker,
            )
        if tracer is not None:
            trace = (tracer.records(), tracer.recorded, tracer.evicted, 1)
    if trace is not None:
        events, recorded, evicted, workers = trace
        run.trace = {
            "stage": stage,
            "seed": experiment.seed,
            "workers": workers,
            "recorded": recorded,
            "evicted": evicted,
        }
        if trace_path is not None:
            try:
                run.trace_written = write_trace_jsonl(trace_path, events, meta=run.trace)
            except OSError:
                pass
    return run


# ----------------------------------------------------------------------
# Manifest-sized summaries
# ----------------------------------------------------------------------
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


def _summarize_run(stage: str, run: StageRun) -> tuple[dict[str, Any], dict[str, float]]:
    """``(result, hot_path_counters)`` of a finished stage's manifest."""
    if stage == "simulate":
        return _summarize_result(run.result), dict(_ZERO_COUNTERS)
    if stage == "train":
        return {"training_summary": run.result.training_summary}, dict(_ZERO_COUNTERS)
    if stage == "evaluate":
        scored = (
            "samples", "drop_rate_true", "drop_rate_predicted", "drop_auc",
            "latency_log_mae", "latency_median_relative_error",
        )
        result = {
            "trace": _summarize_result(run.detail.result),
            "directions": {
                direction.value: {field: getattr(ev, field) for field in scored}
                for direction, ev in run.result.items()
            },
        }
        return result, dict(_ZERO_COUNTERS)
    if stage == "validate":
        # The fidelity report rides in the manifest so sweeps gate on
        # agreement, not just completion.
        diff = run.result
        result = {
            "full": _summarize_result(diff.full),
            "hybrid": _summarize_result(diff.hybrid),
            "fidelity": diff.report.to_dict(),
        }
        return result, diff.hybrid_sim.hot_path_counters(diff.hybrid.wallclock_seconds)
    if stage == "pdes-hybrid":
        sharded = run.result
        wallclock = sharded.wallclock_seconds
        result = {
            "sim_seconds": sharded.sim_seconds,
            "wallclock_seconds": wallclock,
            "sim_seconds_per_second": sharded.sim_seconds_per_second,
            "events_executed": sharded.events_executed,
            "events_per_second": per_wallclock_second(sharded.events_executed, wallclock),
            "flows_completed": sharded.flows_completed,
            "drops": sharded.drops,
            "model_packets": sharded.model_packets,
            "model_drops": sharded.model_drops,
            "rtt": _sample_summary(sharded.rtt_samples),
            "fct": _sample_summary(sharded.fcts),
            "pdes": sharded.merged_counters(),
        }
        if run.trace is not None:
            result["pdes"]["trace"] = {
                key: run.trace[key] for key in ("recorded", "evicted")
            }
        return result, sharded.merged_hot_path_counters(wallclock)
    if stage == "hybrid":
        result, hybrid_sim = run.result, run.detail
        return _summarize_result(result), hybrid_sim.hot_path_counters(
            result.wallclock_seconds
        )
    # Cascade: tier residency, promotion counts and the per-tier packet
    # split ride beside the packet side's summary.
    result, cascade_sim = run.result.result, run.detail
    summary = {
        **_summarize_result(result),
        "cascade": cascade_sim.cascade_summary(),
        "invariants": run.invariants.summary(),
        "fluid_fct": _sample_summary(run.result.fluid_fcts),
    }
    return summary, cascade_sim.hybrid.hot_path_counters(result.wallclock_seconds)


# ----------------------------------------------------------------------
# One scheduled run
# ----------------------------------------------------------------------
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


def _run_request(
    request: RunRequest,
    registry_root: Optional[str],
    run_dir: Path,
    metrics: Optional[MetricsRegistry] = None,
) -> tuple[
    dict[str, Any], dict[str, float], Optional[dict[str, Any]], dict[str, str]
]:
    """Resolve the model, run the stage.

    Returns ``(result, hot_path_counters, model_info, artifacts)`` —
    ``artifacts`` maps artifact names to files the stage wrote under
    ``run_dir`` (the cascade stage's decision log, a trace).
    """
    model = model_info = None
    if request.needs_model:
        lookup = _resolve_model(request, registry_root)
        model_info = {
            "fingerprint": lookup.fingerprint,
            "cache_hit": lookup.cache_hit,
            "path": str(lookup.path),
            "train_wallclock_s": lookup.train_wallclock_s,
        }
        model = lookup.model
        if request.stage == "pdes-hybrid":
            # Workers load the model from its registry path; it is
            # never pickled into their payloads.
            from repro.pdes import ModelRef

            model = ModelRef(path=str(lookup.path), fingerprint=lookup.fingerprint)
    trace_path = run_dir / "trace.jsonl"
    run = run_stage(
        request.stage, request.experiment, request.hybrid, model,
        metrics=metrics, trace_path=trace_path,
    )
    result, counters = _summarize_run(request.stage, run)
    artifacts: dict[str, str] = {}
    if run.trace_written is not None:
        artifacts["trace"] = str(trace_path)
    if request.stage == "cascade":
        decisions_path = run_dir / "decisions.json"
        run.detail.decision_log.save(decisions_path)
        artifacts["decisions"] = str(decisions_path)
    return result, counters, model_info, artifacts


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
        result, counters, model_info, stage_artifacts = _run_request(
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
