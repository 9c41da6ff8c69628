"""Hybrid × PDES fusion: shard the full-fidelity region across workers.

The hybrid simulator (one full cluster + N-1 cluster models) and the
PDES engine (partitioned full-fidelity world) each attack a different
axis of the paper's Figure 1.  This module fuses them: the
full-fidelity cluster and the core layer are partitioned across worker
processes (:func:`~repro.topology.partition.partition_hybrid`), while
every approximated cluster runs as a *model shard* colocated with the
worker that owns its attachment point — hosts, fabric names, and the
:class:`~repro.core.cluster_model.ApproximatedCluster` standing in for
the fabric all live on one worker, so the host↔model path never pays
synchronization.

Determinism contract (the test pack's foundation):

* Every worker builds its :class:`~repro.core.hybrid.HybridSimulation`
  with ``Simulator(seed=config.seed)`` — the *same* seed, not
  ``seed + worker_index``.  Named RNG streams
  (``sim.rng.stream(name)``) are derived per-name, so each cluster
  model's drop stream draws the same values it would draw in the
  single-process hybrid regardless of which worker hosts it.
* The flow schedule is extracted once, up front, by running the real
  :class:`~repro.traffic.apps.TrafficGenerator` with a
  ``flow_dispatch`` hook that claims every flow after all randomness
  is drawn (:func:`~repro.traffic.apps.draw_flow_schedule`).
  Ephemeral source ports are numbered in schedule order per source
  host, exactly as :meth:`~repro.net.host.Host.open_flow` allocates
  them.
* Cross-worker packets keep their exact single-process timestamps: the
  sending port's propagation delay is zeroed and the
  :class:`~repro.pdes.stub.RemoteStub` re-adds the real link delay, so
  ``deliver_at`` is the same float the local port would have produced.
* Model egress into a remote worker is captured at **decision time**
  through :class:`~repro.pdes.stub.RemoteEntityProxy`, and the window
  is bounded by the model-egress lookahead
  (:func:`model_egress_lookahead`): ``MIN_REGION_LATENCY_S`` minus the
  inference batching window, because a batched packet's outcome can be
  decided up to ``batch_window_s`` after its arrival.

With those four properties, same-seed reruns at one worker count are
byte-identical, and one worker reproduces the single-process hybrid
under float64 inference.  More workers match it on the scenarios the
tests pin, but not on every seed: on the 16-cluster ``sharded_clos16``
scenario, traffic seeds 3 and 9 diverge at 2 and 4 workers (FCTs off
by ~1e-11 s; 52 flows completing instead of 55), most likely a
same-time event order a window barrier cannot reproduce (DESIGN.md
§11).

Each worker reports its ``world.result()``; :func:`run_hybrid_sharded`
combines them with :meth:`~repro.core.world.RunResult.merge` into a
:class:`PdesHybridResult`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.cluster_model import MIN_REGION_LATENCY_S
from repro.core.hybrid import HybridConfig, check_model_width, hot_path_summary
from repro.core.training import TrainedClusterModel
from repro.core.world import ExperimentConfig, RunResult, make_generator
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, merge_traces
from repro.pdes.engine import PdesConfig, pdes_counters, resolve_window, run_workers
from repro.pdes.worker import ShardPlan, ShardStats
from repro.topology.clos import build_clos
from repro.topology.graph import Topology
from repro.topology.partition import partition_hybrid
from repro.traffic.apps import FlowSchedule, draw_flow_schedule


# ----------------------------------------------------------------------
# Configuration and payload types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelRef:
    """A trained model by artifact path, not by pickled engine.

    Worker payloads carry one of these; each worker loads the bundle
    from disk (:meth:`TrainedClusterModel.load`) instead of inheriting
    multi-megabyte weight arrays through the process-spawn payload.
    ``fingerprint`` is provenance (the
    :class:`~repro.runs.registry.ModelRegistry` key when the artifact
    came from the registry); loading goes through ``path``.
    """

    path: str
    fingerprint: Optional[str] = None

    def load(self) -> TrainedClusterModel:
        """Materialize the model in this process."""
        return TrainedClusterModel.load(self.path)


@dataclass(frozen=True)
class HybridShardConfig:
    """Options of a sharded hybrid run.

    Attributes
    ----------
    workers:
        Worker processes.  ``1`` exercises the identical machinery
        (process, pipes, windowed loop) with no exchanges.
    window_s:
        Synchronization window; ``None`` selects the maximum safe
        lookahead (min cut-link delay, further bounded by the
        model-egress lookahead).  Larger values are **rejected**.
    worker_timeout_s:
        Wall-clock budget for any single parent-side wait (setup or
        run); a worker silent past this raises
        :class:`WorkerCrashError` instead of hanging.
    metrics:
        Build a per-worker :class:`~repro.obs.MetricsRegistry` and
        include its snapshot in each worker's stats.  Metrics never
        schedule events, so outcomes are identical on and off.
    trace:
        Build a per-worker :class:`~repro.obs.trace.FlightRecorder`
        and include its events in each worker's stats (merged by the
        coordinator).  The recorder stamps sim time only and draws no
        randomness, so outcomes are identical on and off.
    trace_capacity:
        Flight-recorder ring size per worker; oldest records evict
        first when a run outgrows it.
    inject_crash:
        Test hook: worker index that raises mid-window (``None`` off).
    """

    workers: int = 2
    window_s: Optional[float] = None
    worker_timeout_s: float = 300.0
    metrics: bool = False
    trace: bool = False
    trace_capacity: int = DEFAULT_TRACE_CAPACITY
    inject_crash: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # NaN passes a plain ``<= 0`` test, and a NaN window never
        # reaches its horizon: the window loop would spin forever.
        if self.window_s is not None and not (
            math.isfinite(self.window_s) and self.window_s > 0
        ):
            raise ValueError(f"window_s must be positive and finite, got {self.window_s}")
        if not (math.isfinite(self.worker_timeout_s) and self.worker_timeout_s > 0):
            raise ValueError(
                "worker_timeout_s must be positive and finite, "
                f"got {self.worker_timeout_s}"
            )
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )


# ----------------------------------------------------------------------
# Flow-schedule extraction
# ----------------------------------------------------------------------
def extract_flow_schedule(
    topology: Topology,
    config: ExperimentConfig,
    hybrid: HybridConfig,
) -> FlowSchedule:
    """Pre-draw the exact flow schedule of a hybrid experiment.

    :func:`~repro.traffic.apps.draw_flow_schedule` of the generator
    :func:`make_generator` builds for ``config``, with the hybrid's
    elision filter: the flows, ports and ``elided`` count the
    single-process hybrid would launch.
    """
    cluster_of = {node.name: node.cluster for node in topology.servers()}
    full = hybrid.full_cluster

    def flow_filter(src: str, dst: str) -> bool:
        if not hybrid.elide_remote_traffic:
            return True
        return cluster_of[src] == full or cluster_of[dst] == full

    if config.collective is not None:
        # Collective chunk launches are gated on flow completions the
        # shim cannot produce; sharded runs reject collectives up front
        # (see run_hybrid_sharded) and extraction ignores them.
        config = dataclasses.replace(config, collective=None)
    return draw_flow_schedule(
        topology,
        config.seed,
        config.duration_s,
        lambda sim, network: make_generator(
            sim, network, config, flow_filter=flow_filter
        ),
    )


# ----------------------------------------------------------------------
# Lookahead
# ----------------------------------------------------------------------
def model_egress_lookahead(hybrid: HybridConfig) -> float:
    """Safe lookahead of model egress crossing a shard boundary.

    A cluster model's delivery timestamp is ``arrival + latency`` with
    ``latency >= MIN_REGION_LATENCY_S``, but with inference batching
    the drop/latency *decision* — the moment the packet can first be
    captured for a remote worker — happens up to ``batch_window_s``
    after the arrival (the batcher clamps its window to
    ``MIN_REGION_LATENCY_S``).  The remaining guaranteed slack between
    decision and delivery is the usable lookahead.  Non-positive means
    batching ate the entire causality margin; :func:`resolve_window`
    rejects that configuration outright.
    """
    batch_eff = 0.0
    if hybrid.batch_window_s > 0:
        batch_eff = min(hybrid.batch_window_s, MIN_REGION_LATENCY_S)
    return MIN_REGION_LATENCY_S - batch_eff


def resolve_hybrid_window(
    topology: Topology,
    partitions: list[set[str]],
    config: PdesConfig,
    hybrid: HybridConfig,
) -> float:
    """Window for a sharded hybrid: cut-link delay AND model lookahead.

    The model-egress bound only binds when there is a shard boundary
    for egress to cross (more than one worker and at least one
    approximated cluster); a 1-worker shard is windowed like a plain
    single-partition run.
    """
    lookahead: Optional[float] = None
    if len(partitions) > 1 and len(topology.cluster_ids()) > 1:
        lookahead = model_egress_lookahead(hybrid)
    return resolve_window(topology, partitions, config, model_lookahead_s=lookahead)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _pdes_key(key: str) -> property:
    return property(lambda self: self.pdes[key], doc=f"``pdes[{key!r}]``")


@dataclass
class PdesHybridResult(RunResult):
    """A sharded hybrid run: the merged :class:`RunResult` plus the
    workers' own reports.

    Its other names are one-line reads of ``pdes`` or ``worker_stats``:
    what the ledger adapter, the goldens and the shard tests read."""

    worker_stats: list[ShardStats] = field(default_factory=list)

    window_s = _pdes_key("window_s")
    windows = _pdes_key("windows")
    cut_links = _pdes_key("cut_links")
    exchanges = _pdes_key("exchanges")
    messages = _pdes_key("messages")
    stall_seconds = _pdes_key("stall_seconds")
    lookahead_violations = _pdes_key("lookahead_violations")
    invariant_violations = _pdes_key("invariant_violations")

    @property
    def trace_recorded(self) -> int:
        return self.pdes["trace"]["recorded"]

    @property
    def trace_evicted(self) -> int:
        return self.pdes["trace"]["evicted"]

    @property
    def max_worker_cpu_seconds(self) -> float:
        """CPU seconds of the busiest worker (the parallel critical path).

        Core-count independent: on a host with fewer cores than
        workers, wall-clock cannot show the split, but the busiest
        worker's CPU time bounds the wall-clock achievable with enough
        cores."""
        return max(s.cpu_seconds for s in self.worker_stats)

    def merged_hot_path_counters(self, wallclock_s: Optional[float] = None) -> dict:
        """``hot_path`` with its ratios taken at ``wallclock_s``."""
        return hot_path_summary(self.hot_path, wallclock_s)

    def determinism_signature(self) -> str:
        """Byte-comparable per-worker state (wall-clock excluded)."""
        return json.dumps(
            [s.deterministic_view() for s in self.worker_stats], sort_keys=True
        )

    def merged_trace(self) -> list[dict]:
        """All workers' flight-recorder events in causal merge order.

        Sorted by (sim time, worker, per-worker sequence) — see
        :func:`repro.obs.trace.merge_traces`.  Empty when the run was
        not traced.
        """
        return merge_traces(
            [s.trace_events for s in self.worker_stats if s.trace_events]
        )


# ----------------------------------------------------------------------
# Parent orchestration
# ----------------------------------------------------------------------
def _ensure_model_ref(
    model: Union[TrainedClusterModel, ModelRef], scratch_dir: Optional[str]
) -> ModelRef:
    """Turn an in-memory model into an on-disk reference if needed."""
    if isinstance(model, ModelRef):
        return model
    directory = tempfile.mkdtemp(prefix="pdes-model-", dir=scratch_dir)
    model.save(directory)
    return ModelRef(path=str(directory))


def run_hybrid_sharded(
    config: ExperimentConfig,
    model: Union[TrainedClusterModel, ModelRef],
    shard: Optional[HybridShardConfig] = None,
    hybrid: Optional[HybridConfig] = None,
    scratch_dir: Optional[str] = None,
) -> PdesHybridResult:
    """Run one hybrid experiment sharded across PDES workers.

    Parameters
    ----------
    config:
        The experiment (topology, load, duration, seed) — identical
        meaning to :func:`~repro.core.pipeline.run_hybrid_simulation`.
    model:
        The reusable trained cluster model, either in memory (saved to
        a scratch directory automatically) or as a :class:`ModelRef`
        pointing at a stored artifact (e.g. a registry entry).
    shard:
        Worker count / window / crash-safety options.
    hybrid:
        Hybrid assembly options; ``single_black_box`` is rejected (one
        rest-of-network model cannot be split) and per-cluster model
        mappings are not supported through the process boundary.
    scratch_dir:
        Where to save an in-memory model (default: system temp).

    Wall-clock is measured from the moment all workers are released to
    the moment the last reports done — setup (process spawn, topology
    build, model load) is excluded, matching the plain PDES engine and
    the paper's Figure 1 methodology.
    """
    shard = shard or HybridShardConfig()
    hybrid = hybrid or HybridConfig()
    if hybrid.single_black_box:
        raise ValueError(
            "single_black_box mode cannot be sharded: the one "
            "rest-of-network model has nowhere to split"
        )
    if config.collective is not None:
        raise ValueError(
            "collective workloads cannot be sharded: gated chunk sends "
            "depend on cross-worker flow completions; run them under the "
            "hybrid or cascade engines"
        )
    check_model_width(model)
    topology = build_clos(config.clos)
    partitions = partition_hybrid(topology, hybrid.full_cluster, shard.workers)
    pdes_config = PdesConfig(
        workers=shard.workers,
        duration_s=config.duration_s,
        window_s=shard.window_s,
        seed=config.seed,
    )
    window = resolve_hybrid_window(topology, partitions, pdes_config, hybrid)
    flows = extract_flow_schedule(topology, config, hybrid)
    model_ref = _ensure_model_ref(model, scratch_dir)

    plan = ShardPlan(
        config,
        topology,
        partitions,
        flows,
        window,
        model_ref=model_ref,
        hybrid_config=hybrid,
        metrics=shard.metrics,
        trace_capacity=shard.trace_capacity if shard.trace else None,
        inject_crash=shard.inject_crash,
    )
    stats, elapsed = run_workers(plan, shard.worker_timeout_s)
    return PdesHybridResult.merge(
        [s.result for s in stats],
        wallclock_seconds=elapsed,
        pdes=pdes_counters(plan, stats),
        flows_elided=flows.elided,
        worker_stats=stats,
    )
