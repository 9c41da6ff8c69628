"""PDES coordination and the plain (Figure 1) engine.

:func:`run_workers` is the one coordinator both parallel engines use:
it spawns the worker processes over a full pipe mesh, waits for all of
them to finish setup (world build, flow registration), then measures
wall-clock time from the moment it releases them to the moment the
last reports done — so the reported simulated-seconds-per-second
covers the event processing and synchronization, not Python process
startup (the paper's Figure 1 likewise excludes model setup).  Every
wait is crash-safe: a worker that dies or reports an error raises
:class:`WorkerCrashError` naming it.

:func:`run_parallel_simulation` is the plain engine — the shared
worker with no model and a :class:`~repro.flowsim.simulator.FlowSpec`
list — and :func:`run_single_threaded` runs the identical workload on
one in-process world for the baseline series.  Both return a
:class:`~repro.core.world.RunResult`; a parallel one is the workers'
results combined by :meth:`~repro.core.world.RunResult.merge`, with
the :func:`pdes_counters` block.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time as _wallclock
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Optional

from repro.core.world import ExperimentConfig, RunResult, build_world
from repro.flowsim.simulator import FlowSpec
from repro.net.network import NetworkConfig
from repro.pdes.worker import ShardPlan, ShardStats, shard_worker_main
from repro.topology.graph import Topology
from repro.topology.partition import (
    cross_partition_links,
    owner_map,
    partition_for_workers,
)


@dataclass(frozen=True)
class PdesConfig:
    """Parameters of one PDES run.

    Attributes
    ----------
    workers:
        Number of worker processes (1 = windowed loop, no exchanges).
    duration_s:
        Simulated time to cover.
    window_s:
        Synchronization window; must not exceed the minimum cut-link
        propagation delay (checked against the topology at run time —
        ``None`` selects exactly that minimum, the maximum safe
        lookahead).
    seed:
        Workload / simulator seed.
    """

    workers: int = 2
    duration_s: float = 0.01
    window_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # NaN passes a plain ``<= 0`` test, and a NaN window never
        # reaches its horizon: the window loop would spin forever.
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if self.window_s is not None and not (
            math.isfinite(self.window_s) and self.window_s > 0
        ):
            raise ValueError(f"window_s must be positive and finite, got {self.window_s}")


def resolve_window(
    topology: Topology,
    partitions: list[set[str]],
    config: PdesConfig,
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
        bounds.append((config.duration_s, "run duration (no cut links)"))
    max_safe, limiter = min(bounds)
    if config.window_s is None:
        return max_safe
    if config.window_s > max_safe + 1e-18:
        raise ValueError(
            f"window_s={config.window_s} exceeds {limiter} {max_safe}; "
            "conservative causality would be violated"
        )
    return config.window_s


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
    timeout_s: Optional[float],
) -> list:
    """Receive one ``(expected_tag, payload)`` from every worker.

    Crash-safe: multiplexes the parent pipes against the process
    sentinels, so a worker that dies without reporting (SIGKILL, OOM)
    or reports a structured error raises :class:`WorkerCrashError`
    immediately instead of blocking forever in ``recv``.  With a
    ``timeout_s``, silence past it raises too.
    """
    deadline = None if timeout_s is None else _wallclock.monotonic() + timeout_s
    payloads: dict[int, object] = {}
    pending = set(range(len(parent_ends)))
    while pending:
        poll_s = 1.0
        if deadline is not None:
            remaining = deadline - _wallclock.monotonic()
            if remaining <= 0:
                raise WorkerCrashError(
                    min(pending),
                    "Timeout",
                    f"workers {sorted(pending)} sent no {expected_tag!r} "
                    f"within {timeout_s}s",
                )
            poll_s = min(remaining, poll_s)
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


def run_workers(
    plan: ShardPlan, timeout_s: Optional[float]
) -> tuple[list[ShardStats], float]:
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


def run_parallel_simulation(
    topology: Topology,
    flows: list[FlowSpec],
    config: PdesConfig,
    net_config: Optional[NetworkConfig] = None,
) -> RunResult:
    """Execute the workload across ``config.workers`` processes."""
    partitions = partition_for_workers(topology, config.workers)
    window = resolve_window(topology, partitions, config)
    # The caller supplies topology and flows; only duration, seed and
    # queue/TCP parameters come from the scenario.
    scenario = ExperimentConfig(
        duration_s=config.duration_s, seed=config.seed, net=net_config or NetworkConfig()
    )
    plan = ShardPlan(scenario, topology, partitions, flows, window)
    stats, elapsed = run_workers(plan, timeout_s=None)
    return RunResult.merge(
        [s.result for s in stats], wallclock_seconds=elapsed, pdes=pdes_counters(plan, stats)
    )


def run_single_threaded(
    topology: Topology,
    flows: list[FlowSpec],
    duration_s: float,
    seed: int = 0,
    net_config: Optional[NetworkConfig] = None,
) -> RunResult:
    """Run the identical workload on one in-process world."""
    scenario = ExperimentConfig(
        duration_s=duration_s, seed=seed, net=net_config or NetworkConfig()
    )
    world = build_world(scenario, topology=topology, flows=flows)
    world.run()
    return world.result()
