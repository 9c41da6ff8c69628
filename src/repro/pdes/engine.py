"""PDES coordination and the one front door of both parallel engines.

:func:`run_workers` is the one coordinator: it spawns the worker
processes over a full pipe mesh, waits for all of them to finish setup
(world build, flow registration), then measures wall-clock time from
the moment it releases them to the moment the last reports done — so
the reported simulated-seconds-per-second covers the event processing
and synchronization, not Python process startup (the paper's Figure 1
likewise excludes model setup).  Every wait is crash-safe and bounded
by ``worker_timeout_s``: a worker that dies, reports an error or falls
silent raises :class:`WorkerCrashError` naming it.

Both parallel runs speak ``(ExperimentConfig, HybridShardConfig)`` and
share one body (:func:`_run_sharded`: window, :class:`ShardPlan`,
:func:`run_workers`, merge into a :class:`PdesHybridResult`).
:func:`run_parallel_simulation` is the plain (Figure 1) engine — the
shared worker with no model, over a pre-drawn flow schedule — and
:func:`~repro.pdes.hybrid_shard.run_hybrid_sharded` differs from it
only in its partitioner, its model-egress lookahead and the model it
hands the workers.  :func:`run_single_threaded` runs the same workload
on one in-process world for the baseline series.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing as mp
import time as _wallclock
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Optional

from repro.core.hybrid import HybridConfig, hot_path_summary, matched_load
from repro.core.world import ExperimentConfig, RunResult, build_world, make_generator
from repro.flowsim.simulator import FlowSpec
from repro.obs import MetricsRegistry
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, merge_traces
from repro.pdes.worker import ShardPlan, ShardStats, shard_worker_main
from repro.topology.clos import build_clos
from repro.topology.graph import Topology
from repro.topology.partition import (
    cross_partition_links,
    owner_map,
    partition_for_workers,
)
from repro.traffic.apps import FlowSchedule, draw_flow_schedule


@dataclass(frozen=True)
class HybridShardConfig:
    """Options of a parallel run, plain or hybrid.

    Attributes
    ----------
    workers:
        Worker processes.  ``1`` exercises the identical machinery
        (process, pipes, windowed loop) with no exchanges.
    window_s:
        Synchronization window; ``None`` selects the maximum safe
        lookahead (min cut-link delay, in a hybrid further bounded by
        the model-egress lookahead).  Larger values are **rejected**.
    worker_timeout_s:
        Wall-clock budget for any single parent-side wait (setup or
        run); a worker silent past this raises
        :class:`WorkerCrashError` instead of hanging.
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


def resolve_window(
    topology: Topology,
    partitions: list[set[str]],
    window_s: Optional[float],
    duration_s: float,
    model_lookahead_s: Optional[float] = None,
) -> float:
    """Pick/validate the synchronization window (the lookahead).

    The safe window is the minimum delay over all cut links.  A hybrid
    sharding changes the effective cut twice over: approximated fabric
    switches are owned by their model's worker (their links count with
    the physical delay, which the remote stub re-adds), and model
    *egress* into a remote worker has its own lookahead —
    ``MIN_REGION_LATENCY_S`` shrunk by the inference batching window,
    because a batched packet's drop/latency decision can happen up to
    ``batch_window_s`` after its arrival.  Callers with such a cut pass
    that bound as ``model_lookahead_s`` and it participates in both the
    default window choice and the rejection check.

    A ``window_s`` above the safe bound is **rejected**, never clamped:
    silently shrinking it would change the run the user asked for, and
    silently keeping it would let an exchange violate causality.
    """
    owner = owner_map(partitions)
    cut_delays = [
        link.delay_s for link in topology.links if owner[link.a] != owner[link.b]
    ]
    bounds: list[tuple[float, str]] = []
    if cut_delays:
        bounds.append((min(cut_delays), "minimum cut-link delay"))
    if model_lookahead_s is not None:
        if model_lookahead_s <= 0:
            raise ValueError(
                f"model egress lookahead is {model_lookahead_s}; the inference "
                "batching window leaves no safe synchronization window "
                "(shrink batch_window_s below MIN_REGION_LATENCY_S)"
            )
        bounds.append(
            (model_lookahead_s, "hybrid model-egress lookahead")
        )
    if not bounds:
        bounds.append((duration_s, "run duration (no cut links)"))
    max_safe, limiter = min(bounds)
    if window_s is None:
        return max_safe
    if window_s > max_safe + 1e-18:
        raise ValueError(
            f"window_s={window_s} exceeds {limiter} {max_safe}; "
            "conservative causality would be violated"
        )
    return window_s


class WorkerCrashError(RuntimeError):
    """A worker died (or reported a structured error) mid-run.

    Carries the failing worker's index and the original exception's
    type/message/traceback so manifests can record *what* failed
    instead of a bare hang or timeout.  When the worker ran with
    tracing enabled, ``trace_tail`` holds the last window of its
    flight recorder — the events leading up to the crash.
    """

    def __init__(
        self,
        worker_index: int,
        error_type: str,
        message: str,
        traceback_str: str = "",
        trace_tail: Optional[list] = None,
    ) -> None:
        super().__init__(
            f"PDES worker {worker_index} failed: {error_type}: {message}"
        )
        self.worker_index = worker_index
        self.error_type = error_type
        self.message = message
        self.traceback_str = traceback_str
        self.trace_tail = trace_tail or []


def _collect(
    parent_ends: list,
    processes: list,
    expected_tag: str,
    timeout_s: float,
) -> list:
    """Receive one ``(expected_tag, payload)`` from every worker.

    Crash-safe: multiplexes the parent pipes against the process
    sentinels, so a worker that dies without reporting (SIGKILL, OOM)
    or reports a structured error raises :class:`WorkerCrashError`
    immediately instead of blocking forever in ``recv``; silence past
    ``timeout_s`` raises too.
    """
    deadline = _wallclock.monotonic() + timeout_s
    payloads: dict[int, object] = {}
    pending = set(range(len(parent_ends)))
    while pending:
        remaining = deadline - _wallclock.monotonic()
        if remaining <= 0:
            raise WorkerCrashError(
                min(pending),
                "Timeout",
                f"workers {sorted(pending)} sent no {expected_tag!r} "
                f"within {timeout_s}s",
            )
        poll_s = min(remaining, 1.0)
        waitables = [parent_ends[i] for i in pending]
        waitables.extend(processes[i].sentinel for i in pending)
        _connection_wait(waitables, timeout=poll_s)
        for index in sorted(pending):
            conn = parent_ends[index]
            if conn.poll():
                tag, payload = conn.recv()
                if tag == "error":
                    raise WorkerCrashError(
                        payload["worker_index"],
                        payload["type"],
                        payload["message"],
                        payload.get("traceback", ""),
                        trace_tail=payload.get("trace_tail"),
                    )
                if tag != expected_tag:
                    raise WorkerCrashError(
                        index,
                        "ProtocolError",
                        f"expected {expected_tag!r}, got {tag!r}",
                    )
                payloads[index] = payload
                pending.discard(index)
            elif not processes[index].is_alive():
                raise WorkerCrashError(
                    index,
                    "WorkerDied",
                    f"worker {index} exited with code "
                    f"{processes[index].exitcode} without reporting",
                )
    return [payloads[i] for i in range(len(parent_ends))]


def run_workers(plan: ShardPlan, timeout_s: float) -> tuple[list[ShardStats], float]:
    """Run one worker process per partition of ``plan`` to completion.

    Returns the per-worker stats and the wall-clock seconds between
    releasing the workers and the last one reporting done.
    """
    workers = len(plan.partitions)
    ctx = mp.get_context("fork")
    parent_ends: list = []
    worker_ends: list = []
    for _ in range(workers):
        parent_end, worker_end = ctx.Pipe(duplex=True)
        parent_ends.append(parent_end)
        worker_ends.append(worker_end)
    # Full mesh between workers.
    peer_conns: list[dict[int, object]] = [dict() for _ in range(workers)]
    for i in range(workers):
        for j in range(i + 1, workers):
            peer_conns[i][j], peer_conns[j][i] = ctx.Pipe(duplex=True)

    processes = []
    for index in range(workers):
        process = ctx.Process(
            target=shard_worker_main,
            args=(index, plan, worker_ends[index], peer_conns[index]),
            daemon=True,
        )
        process.start()
        processes.append(process)

    try:
        _collect(parent_ends, processes, "ready", timeout_s)
        started = _wallclock.perf_counter()
        for conn in parent_ends:
            conn.send("go")
        stats = _collect(parent_ends, processes, "done", timeout_s)
        elapsed = _wallclock.perf_counter() - started
        for conn in parent_ends:
            conn.send("exit")
    except WorkerCrashError:
        for process in processes:
            if process.is_alive():
                process.terminate()
        raise
    finally:
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
    return stats, elapsed


def pdes_counters(plan: ShardPlan, stats: list[ShardStats]) -> dict:
    """The ``pdes`` block of a merged result: the window loop's
    counters, summed over workers, and one row per worker."""
    per_worker = [s.summary() for s in stats]
    block = {
        "workers": len(stats),
        "window_s": plan.window_s,
        "windows": max((s.windows for s in stats), default=0),
        "cut_links": cross_partition_links(plan.topology, plan.partitions),
        "exchanges": sum(s.exchanges for s in stats),
        "messages": sum(s.messages_sent for s in stats),
        "stall_seconds": sum(s.stall_seconds for s in stats),
        "lookahead_violations": sum(s.lookahead_violations for s in stats),
        "invariant_violations": sum(row["invariant_violations"] for row in per_worker),
        "per_worker": per_worker,
    }
    if plan.trace_capacity is not None:
        block["trace"] = {
            "recorded": sum(s.trace_recorded for s in stats),
            "evicted": sum(s.trace_evicted for s in stats),
        }
    return block


def extract_flow_schedule(
    topology: Topology,
    config: ExperimentConfig,
    hybrid: Optional[HybridConfig] = None,
) -> FlowSchedule:
    """Pre-draw the exact flow schedule of an experiment.

    :func:`~repro.traffic.apps.draw_flow_schedule` of the generator
    :func:`make_generator` builds for ``config``, with ``hybrid``'s
    elision filter: the flows, ports and ``elided`` count the
    single-process run would launch.  ``None`` keeps every flow (the
    schedule ``repro simulate`` launches).
    """
    hybrid = hybrid or matched_load()
    cluster_of = {node.name: node.cluster for node in topology.servers()}
    full = hybrid.full_cluster

    def flow_filter(src: str, dst: str) -> bool:
        if not hybrid.elide_remote_traffic:
            return True
        return cluster_of[src] == full or cluster_of[dst] == full

    if config.collective is not None:
        # Collective chunk launches are gated on flow completions the
        # shim cannot produce; parallel runs reject collectives up front
        # (see _run_sharded) and extraction ignores them.
        config = dataclasses.replace(config, collective=None)
    return draw_flow_schedule(
        topology,
        config.seed,
        config.duration_s,
        lambda sim, network: make_generator(
            sim, network, config, flow_filter=flow_filter
        ),
    )


def _pdes_key(key: str) -> property:
    return property(lambda self: self.pdes[key], doc=f"``pdes[{key!r}]``")


@dataclass
class PdesHybridResult(RunResult):
    """A parallel run: the merged :class:`RunResult` plus the workers'
    own reports.

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


def _run_sharded(
    config: ExperimentConfig,
    shard: HybridShardConfig,
    topology: Topology,
    partitions: list[set[str]],
    flows: list[FlowSpec],
    *,
    model_lookahead_s: Optional[float] = None,
    model_ref: Optional[object] = None,
    hybrid: HybridConfig = HybridConfig(),
    metrics: Optional[MetricsRegistry] = None,
) -> PdesHybridResult:
    """The body of both parallel runs: window, plan, workers, merge.

    ``model_ref`` and ``hybrid`` are the hybrid's (see
    :class:`ShardPlan`); without them this is the plain engine.  With
    ``metrics``, every worker keeps a registry whose counters and
    gauges are merged into ``metrics`` under the worker's label.
    """
    if config.collective is not None:
        raise ValueError(
            "collective workloads cannot be sharded: gated chunk sends "
            "depend on cross-worker flow completions; run them under the "
            "hybrid or cascade engines"
        )
    window = resolve_window(
        topology, partitions, shard.window_s, config.duration_s, model_lookahead_s
    )
    plan = ShardPlan(
        config,
        topology,
        partitions,
        flows,
        window,
        model_ref=model_ref,
        hybrid_config=hybrid,
        metrics=metrics is not None,
        trace_capacity=shard.trace_capacity if shard.trace else None,
        inject_crash=shard.inject_crash,
    )
    stats, elapsed = run_workers(plan, shard.worker_timeout_s)
    if metrics is not None:
        for worker in stats:
            metrics.merge_snapshot(worker.metrics_snapshot, worker=worker.worker_index)
    return PdesHybridResult.merge(
        [s.result for s in stats],
        wallclock_seconds=elapsed,
        pdes=pdes_counters(plan, stats),
        flows_elided=getattr(flows, "elided", 0),
        worker_stats=stats,
    )


def run_parallel_simulation(
    config: ExperimentConfig,
    shard: Optional[HybridShardConfig] = None,
    *,
    topology: Optional[Topology] = None,
    flows: Optional[list[FlowSpec]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> PdesHybridResult:
    """Run ``config`` at full fidelity across ``shard.workers`` processes.

    As in :func:`~repro.core.world.build_world`, ``topology`` replaces
    ``build_clos(config.clos)`` (the Figure 1 engine runs arbitrary
    graphs), ``flows`` replaces the experiment's drawn schedule
    (:func:`extract_flow_schedule`: the flows ``repro simulate``
    launches) and ``metrics`` collects every worker's counters and
    gauges.
    """
    shard = shard or HybridShardConfig()
    if topology is None:
        topology = build_clos(config.clos)
    if flows is None:
        flows = extract_flow_schedule(topology, config)
    partitions = partition_for_workers(topology, shard.workers)
    return _run_sharded(config, shard, topology, partitions, flows, metrics=metrics)


def run_single_threaded(
    config: ExperimentConfig,
    *,
    topology: Optional[Topology] = None,
    flows: Optional[list[FlowSpec]] = None,
) -> RunResult:
    """Run the same workload on one in-process world.

    ``topology`` and ``flows`` override as in
    :func:`run_parallel_simulation`; without ``flows`` the live
    generator launches the flows that run draws up front."""
    world = build_world(config, topology=topology, flows=flows)
    world.run()
    return world.result()
