"""The one module that touches ``repro``'s run entrypoints and results.

Everything else in the ledger sees a workload (data) go in and an
:class:`Outcome` (flat counters, samples, a signature hash) come out,
so when the four run paths are collapsed this is the only file of the
benchmark that has to be re-pointed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.analysis.stats import ks_distance
from repro.cascade import CascadeConfig, run_cascade_simulation
from repro.core.hybrid import HybridConfig
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import (
    ExperimentConfig,
    run_full_simulation,
    run_hybrid_simulation,
    train_reusable_model,
)
from repro.core.training import TrainedClusterModel
from repro.pdes import (
    HybridShardConfig,
    ModelRef,
    outcome_signature,
    run_hybrid_sharded,
)
from repro.topology.clos import ClosParams

from benchmarks.ledger.metrics import COUNTERS
from benchmarks.ledger.workloads import Workload

#: Directory of the package under test; the tracer maps code to layers
#: by path relative to it.
PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Stage 1+2 of the paper's pipeline, fixed: the model is program
#: state, not workload, so the training seed never follows ``--seed``.
TRAIN_SCENARIO = {"clusters": 2, "load": 0.25, "duration_s": 0.01}
TRAIN_SEED = 101
TRAIN_BATCHES = 300


@dataclass
class Outcome:
    """What one run produced, in the ledger's own vocabulary."""

    sim_s: float
    loop_s: float  # event-loop seconds the result itself reports
    events: int
    fcts: list
    rtts: list
    #: sha256 of everything seeded in the result (wall-clock excluded).
    signature: str
    #: sha256 of the partition-independent outcome (sharded == hybrid).
    outcome_signature: str
    counters: dict
    #: Engine- and scenario-specific output checks, name -> passed.
    checks: dict


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _experiment(scenario: dict, seed: int) -> ExperimentConfig:
    fields = dict(scenario)
    clos = ClosParams(clusters=fields.pop("clusters"))
    return ExperimentConfig(clos=clos, seed=seed, **fields)


# ----------------------------------------------------------------------
# Shared preparation: the trained model
# ----------------------------------------------------------------------
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        digest.update(str(path.relative_to(PACKAGE_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_model(cache_dir: Path, train_batches: int = TRAIN_BATCHES) -> tuple[Path, dict]:
    """Train the reusable cluster model once per source tree.

    This is the benchmark's build step: the bundle is keyed by the
    training profile and a digest of ``repro``'s sources, so a checkout
    trains on its first run and every later run loads the same files.
    Returns the bundle directory and ``{"train_s", "built"}``.
    """
    key = _sha256(f"{_source_digest()}:{TRAIN_SEED}:{train_batches}")[:16]
    model_dir = cache_dir / f"model-{key}"
    info_path = model_dir / "ledger.json"
    if info_path.exists():
        return model_dir, {**json.loads(info_path.read_text()), "built": False}
    micro = MicroModelConfig(
        hidden_size=32,
        num_layers=1,
        window=16,
        train_batches=train_batches,
        learning_rate=3e-3,
    )
    start = time.perf_counter()
    trained, _ = train_reusable_model(_experiment(TRAIN_SCENARIO, TRAIN_SEED), micro)
    info = {"train_s": time.perf_counter() - start}
    staging = cache_dir / f"model-{key}.{os.getpid()}.tmp"
    trained.save(staging)
    (staging / "ledger.json").write_text(json.dumps(info))
    try:
        staging.rename(model_dir)
    except OSError:
        # Another run finished the same build first; its copy is identical.
        for leftover in staging.iterdir():
            leftover.unlink()
        staging.rmdir()
    return model_dir, {**info, "built": True}


# ----------------------------------------------------------------------
# The four run paths
# ----------------------------------------------------------------------
def execute(workload: Workload, seed: int, model_dir: Path):
    """The one public run call of ``workload``; callers time this.

    Where the engine uses a model, loading it from disk is part of the
    call.  Returns the engine's raw result for :func:`summarize`.
    """
    config = _experiment(workload.scenario, seed)
    options = workload.options
    if workload.engine == "des":
        return run_full_simulation(config).result
    if workload.engine == "hybrid":
        return run_hybrid_simulation(
            config,
            TrainedClusterModel.load(model_dir),
            hybrid=HybridConfig(**options["hybrid"]),
        )
    if workload.engine == "cascade":
        return run_cascade_simulation(
            config,
            TrainedClusterModel.load(model_dir),
            cascade=CascadeConfig.from_dict(options["cascade"]),
        )
    if workload.engine == "sharded":
        return run_hybrid_sharded(
            config,
            ModelRef(str(model_dir)),
            shard=HybridShardConfig(**options["shard"]),
            hybrid=HybridConfig(**options["hybrid"]),
        )
    raise ValueError(f"unknown engine {workload.engine!r}")


def summarize(workload: Workload, raw) -> Outcome:
    """Flatten an engine's result into an :class:`Outcome` (untimed)."""
    counters = {metric.name: 0.0 for metric in COUNTERS}
    checks: dict[str, bool] = {}
    if workload.engine == "sharded":
        result, fcts, events = raw, raw.fcts, raw.events_executed
        signature = raw.determinism_signature()
        hot = raw.merged_hot_path_counters(raw.wallclock_seconds)
        counters.update(
            {
                "pdes.windows": raw.windows,
                "pdes.exchanges": raw.exchanges,
                "pdes.messages": raw.messages,
                "pdes.cut_links": raw.cut_links,
                "pdes.stall_s": raw.stall_seconds,
                "pdes.max_worker_cpu_s": raw.max_worker_cpu_seconds,
                "validate.invariant_violations": raw.invariant_violations,
            }
        )
        checks["no_invariant_or_lookahead_violations"] = (
            raw.invariant_violations == 0 and raw.lookahead_violations == 0
        )
    else:
        if workload.engine == "des":
            result, hybrid_sim = raw, None
        elif workload.engine == "hybrid":
            result, hybrid_sim = raw
        else:
            cascade, cascade_sim = raw
            result, hybrid_sim = cascade.result, cascade_sim.hybrid
        fcts, events = result.fcts, result.events_executed
        signature = result.determinism_signature()
        hot = (
            hybrid_sim.hot_path_counters(result.wallclock_seconds)
            if hybrid_sim is not None
            else None
        )
        if workload.engine == "cascade":
            fcts, events = cascade.all_fcts, cascade.total_events
            summary = cascade.summary
            signature = json.dumps(
                [signature, cascade.fluid_fcts, summary], sort_keys=True
            )
            packets = summary["per_tier_packets"]
            counters.update(
                {
                    "cascade.epochs": summary["epochs"],
                    "cascade.promotions": summary["promotions"],
                    "cascade.demotions": summary["demotions"],
                    "cascade.flows_diverted": summary["flows_diverted"],
                    "cascade.packets_flowsim": packets["flowsim"],
                    "cascade.packets_hybrid": packets["hybrid"],
                    "cascade.packets_des": packets["des"],
                    "flowsim.flows_completed": summary["fluid"]["flows_completed"],
                    "flowsim.rate_recomputes": summary["fluid"]["rate_recomputes"],
                }
            )
            checks["diverted_a_flow"] = summary["flows_diverted"] >= 1
        collective = result.collective or {}
        counters.update(
            {
                "traffic.flows_started": result.flows_started,
                "traffic.flows_elided": result.flows_elided,
                "traffic.collective.chunks_completed": collective.get(
                    "chunks_completed", 0
                ),
                "traffic.collective.rounds_completed": collective.get(
                    "rounds_completed", 0
                ),
                "net.failure_events": len(result.failure_events),
            }
        )
        if "failures" in workload.scenario:
            checks["applied_every_failure_event"] = len(
                result.failure_events
            ) == len(workload.scenario["failures"])
        if "collective" in workload.scenario:
            checks["completed_a_chunk"] = collective.get("chunks_completed", 0) >= 1

    if hot is not None:
        counters.update(
            {
                "core.model_packets": hot["model_packets"],
                "core.model_drops": hot["model_drops"],
                "core.batcher.rounds": hot["batched_rounds"],
                "core.batcher.packets": hot["batched_packets"],
                "core.batcher.flushes": hot["batch_flushes"],
                "core.batcher.scalar_fallbacks": hot["scalar_fallbacks"],
                "nn.inference_s": hot["inference_seconds"],
                "nn.inference_share": hot["inference_share"],
                "nn.us_per_model_packet": hot["inference_seconds_per_packet"] * 1e6,
                "nn.batch.memo_hit_rate": hot["memo_hit_rate"],
            }
        )
    loop_s = result.wallclock_seconds
    counters.update(
        {
            "des.events_executed": events,
            "des.loop_s": loop_s,
            "des.us_per_event": loop_s / events * 1e6 if events else 0.0,
            "traffic.flows_completed": result.flows_completed,
            "net.drops": result.drops,
        }
    )
    checks["completed_a_flow"] = result.flows_completed > 0
    rtts = result.rtt_samples
    return Outcome(
        sim_s=result.sim_seconds,
        loop_s=loop_s,
        events=events,
        fcts=list(fcts),
        rtts=list(rtts),
        signature=_sha256(signature),
        outcome_signature=_sha256(
            outcome_signature(result.fcts, rtts, result.drops, result.flows_completed)
        ),
        counters={name: float(value) for name, value in counters.items()},
        checks=checks,
    )


def ks(a: list, b: list) -> float:
    """Two-sample K-S distance; 1.0 when either side has no samples."""
    if not a or not b:
        return 1.0
    return ks_distance(a, b)
