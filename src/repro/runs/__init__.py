"""Experiment orchestration: scenario specs, model registry, manifests.

The run-management layer over :mod:`repro.core`'s pipeline (Figure 3's
train-once / evaluate-many workflow made durable):

``repro.runs.spec``
    :class:`ScenarioSpec` — declarative JSON/TOML sweeps that expand
    into deterministic :class:`RunRequest` lists with derived seeds.
``repro.runs.fingerprint``
    Content addresses for experiment configs and trained models.
``repro.runs.registry``
    :class:`ModelRegistry` — fingerprint-keyed store of trained
    cluster models; sweeps get cache hits instead of retraining.
``repro.runs.scheduler``
    :class:`SweepScheduler` — multiprocess dispatch with per-run
    timeouts, bounded retry with backoff, and failure capture.
``repro.runs.manifest``
    :class:`RunManifest` / :class:`RunStore` — one durable JSON per
    run (config hash, seeds, versions, wall-clock, hot-path counters,
    model provenance), plus list/filter/compare over a sweep.
``repro.runs.executor``
    The worker-side stage runner the scheduler dispatches.
``repro.runs.report``
    Paper tables and their shape checks from a finished sweep.

CLI: ``repro runs submit|status|show|report`` and ``repro models ls|gc``.
"""

from repro.runs.fingerprint import (
    experiment_hash,
    model_fingerprint,
    model_fingerprint_payload,
)
from repro.runs.manifest import RunManifest, RunStore, summarize_statuses
from repro.runs.registry import ModelRegistry, RegistryEntry, RegistryLookup
from repro.runs.scheduler import SchedulerConfig, SweepScheduler
from repro.runs.spec import (
    MODEL_STAGES,
    STAGES,
    RunRequest,
    ScenarioSpec,
    derive_seed,
    load_spec,
    sweep_axes,
)
from repro.runs.executor import execute_run

__all__ = [
    "MODEL_STAGES",
    "STAGES",
    "ModelRegistry",
    "RegistryEntry",
    "RegistryLookup",
    "RunManifest",
    "RunRequest",
    "RunStore",
    "ScenarioSpec",
    "SchedulerConfig",
    "SweepScheduler",
    "derive_seed",
    "execute_run",
    "experiment_hash",
    "load_spec",
    "model_fingerprint",
    "model_fingerprint_payload",
    "summarize_statuses",
    "sweep_axes",
]
