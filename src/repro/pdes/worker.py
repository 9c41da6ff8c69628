"""The PDES worker: one process, one shard of one world.

Both parallel engines run this worker.  It builds its shard through
:func:`repro.core.world.build_world` — the same assembly as the
single-process run, with a partial ownership seam: remote nodes are
excluded, ports toward them deliver to
:class:`~repro.pdes.stub.RemoteStub`, and model egress into a remote
worker is captured by :class:`~repro.pdes.stub.RemoteEntityProxy` —
registers the TCP endpoints of the flows it owns, and then executes
the synchronous-window protocol:

    run events in (T, T + window] -> exchange cross-worker messages
    with every peer -> schedule arrivals -> repeat.

The window never exceeds the lookahead (minimum cut-link delay, and
the model-egress bound in a hybrid), so every exchanged message is
deliverable at or after the barrier — conservative causality with no
rollbacks.

The plain engine (Figure 1) is this worker with no model: every
exchange then carries one entry per directed cut link even when it
carried nothing (OMNeT++'s null-message economics).  The sharded hybrid
sends only real messages: the barrier itself advances the pair's clock,
and its tiny cut traffic is exactly what makes sharding worth it.
"""

from __future__ import annotations

import time as _wallclock
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Optional

from repro.core.hybrid import HybridConfig, ShardableHybrid
from repro.core.world import ExperimentConfig, RunResult, build_world
from repro.des.kernel import Simulator
from repro.flowsim.simulator import FlowSpec
from repro.obs.trace import FlightRecorder
from repro.pdes.stub import RemoteEntityProxy, RemoteMessage, RemoteStub
from repro.topology.graph import Topology
from repro.topology.partition import owner_map
from repro.validate.invariants import InvariantChecker

__all__ = [
    "ShardPlan",
    "ShardStats",
    "shard_worker_main",
]


#: The window loop's seeded counters (in the deterministic view).
_LOOP_COUNTERS = (
    "worker_index", "windows", "exchanges", "messages_sent",
    "messages_received", "lookahead_violations",
)


@dataclass
class ShardStats:
    """One worker's report: its world's result plus the window loop's
    counters and taps."""

    worker_index: int
    result: RunResult
    windows: int
    exchanges: int
    messages_sent: int
    messages_received: int
    lookahead_violations: int
    stall_seconds: float
    invariants: dict
    cpu_seconds: float = 0.0
    metrics_snapshot: Optional[dict] = None
    trace_events: Optional[list] = None
    trace_recorded: int = 0
    trace_evicted: int = 0

    def deterministic_view(self) -> dict:
        """The wall-clock-free projection used by determinism tests.

        Excludes stall, CPU and inference seconds, the metrics
        snapshot, trace events, and hot-path wall-clock ratios —
        everything else must be byte-identical across same-seed
        same-worker-count runs (trace events are themselves
        deterministic, but are excluded so the signature is comparable
        across tracing on/off/capacity)."""
        result = self.result
        return {
            **{key: getattr(self, key) for key in _LOOP_COUNTERS},
            "invariants": self.invariants,
            "events_executed": result.events_executed,
            "flows_completed": result.flows_completed,
            "fcts": result.fcts,
            "rtt_samples": result.rtt_samples,
            "net_drops": result.drops - result.model_drops,
            "model_packets": result.model_packets,
            "model_drops": result.model_drops,
            "hot_path": {
                key: value
                for key, value in result.hot_path.items()
                if "seconds" not in key and "share" not in key and "per_sec" not in key
            },
        }

    def summary(self) -> dict:
        """This worker's row of the manifest's ``pdes.per_worker``."""
        return {
            **{key: getattr(self, key) for key in _LOOP_COUNTERS},
            "stall_seconds": self.stall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "events_executed": self.result.events_executed,
            "flows_completed": self.result.flows_completed,
            "model_packets": self.result.model_packets,
            "invariant_violations": int(self.invariants.get("total", 0)),
        }


@dataclass(frozen=True)
class ShardPlan:
    """What every worker of one run is handed.

    ``model_ref`` is anything with a ``load()`` returning the trained
    bundle (each worker loads it from disk instead of inheriting
    multi-megabyte weight arrays through the spawn payload); ``None``
    is the plain engine.  ``metrics`` gives each worker a registry
    whose snapshot rides in its stats.  ``trace_capacity`` (not
    ``None``) gives each worker a flight recorder of that ring size;
    ``inject_crash`` is a test hook naming the worker that raises
    mid-window.
    """

    config: ExperimentConfig
    topology: Topology
    partitions: list[set[str]]
    flows: list[FlowSpec]
    window_s: float
    model_ref: Optional[object] = None
    hybrid_config: HybridConfig = HybridConfig()
    metrics: bool = False
    trace_capacity: Optional[int] = None
    inject_crash: Optional[int] = None


def _schedule_incoming(
    sim: Simulator,
    entities: dict[str, object],
    incoming: dict[tuple[str, str], list[RemoteMessage]],
    window_end: float,
    tracer: Optional[FlightRecorder],
    peer: int,
    window_seq: int,
) -> tuple[int, int]:
    """Schedule barrier-received messages; returns (count, violations).

    A message timestamped at or before the barrier would have needed to
    execute inside the window that just closed — a lookahead violation.
    The conservative window bound makes this impossible by
    construction; the counter exists so the property tests (and every
    merged manifest) can assert it stayed zero.

    With a ``tracer``, each message lands an ``exchange.recv`` event
    stamped at its *effective* delivery time — at or after the barrier,
    hence at or after the sender's ``exchange.send`` stamp, so the
    merged trace shows send before receive in sim time.
    """
    count = 0
    violations = 0
    for messages in incoming.values():
        for message in messages:
            count += 1
            if message.deliver_at <= window_end - 1e-18:
                violations += 1
            entity = entities[message.target_node]
            deliver_at = max(message.deliver_at, window_end)
            if tracer is not None:
                tracer.event(
                    "exchange.recv",
                    trace=tracer.trace_for_packet(message.packet),
                    t=deliver_at,
                    peer=peer,
                    window=window_seq,
                    target=message.target_node,
                )
            sim.schedule_at(
                deliver_at,
                entity.receive,
                message.packet,
                message.from_node,
                cause=message.cause,
            )
    return count, violations


def _crash(worker_index: int) -> None:
    raise RuntimeError(f"injected crash in worker {worker_index} (test hook)")


def _run_shard(
    worker_index: int,
    plan: ShardPlan,
    tracer: Optional[FlightRecorder],
    parent_conn: Connection,
    peer_conns: dict[int, Connection],
) -> ShardStats:
    config, topology, window_s = plan.config, plan.topology, plan.window_s
    owner_of = owner_map(plan.partitions)
    outbox: dict[int, dict[tuple[str, str], list[RemoteMessage]]] = {}
    seam = ShardableHybrid(
        owned_nodes=plan.partitions[worker_index],
        remote_receiver=lambda sim, name: RemoteStub(
            sim, name, owner_of[name], topology, outbox
        ),
        remote_entity=lambda name: RemoteEntityProxy(name, owner_of[name], outbox),
    )
    metrics = None
    if plan.metrics:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(enabled=True)
    # No model is the Figure 1 engine: nothing for a checker to watch
    # (and its kernel wrappers would tax the series it is measured
    # against), null-padded exchanges; its world pools RTTs over every
    # cluster (World.result).
    trained = plan.model_ref.load() if plan.model_ref is not None else None
    invariants = None
    if trained is not None:
        invariants = InvariantChecker(metrics=metrics, tracer=tracer)
    # Same seed in every worker: named RNG streams are derived per
    # stream name, so each cluster model draws the exact values it
    # would draw in the single-process hybrid.  Every worker also
    # applies the same failure schedule at the same sim times against
    # its own copy of the routing tables, so the shards stay
    # route-consistent without any cross-worker coordination.
    world = build_world(
        config,
        trained,
        hybrid=plan.hybrid_config,
        shard=seam,
        metrics=metrics,
        tracer=tracer,
        invariants=invariants,
        topology=topology,
        flows=plan.flows,
    )
    sim, network = world.sim, world.network

    # Cut ports: zero the port-side propagation delay (the stub re-adds
    # the real link delay when timestamping the remote delivery).
    null_padding: dict[int, list[tuple[str, str]]] = {}
    for (owner, peer), port in network.ports().items():
        if owner_of[peer] != worker_index:
            port.delay_s = 0.0
            if trained is None:
                null_padding.setdefault(owner_of[peer], []).append((owner, peer))

    # Incoming-message routing table.  Fabric switch names of locally
    # owned approximated clusters alias to the cluster model: a remote
    # core's packet targeted at e.g. ``agg-c3-0`` must reach the model
    # standing in for that switch.
    entities: dict[str, object] = {
        **network.hosts,
        **network.switches,
        **world.hybrid.fabric_models,
    }

    # Ports come from the schedule, so the demux keys of a flow agree
    # even when its endpoints live in different workers.
    world.traffic.start()

    if plan.inject_crash == worker_index:
        sim.schedule_at(min(window_s, config.duration_s) / 2, _crash, worker_index)
    if trained is None:
        # Same-time ties run in the order one process gives them.
        sim.order_ties_by_cause()

    parent_conn.send(("ready", worker_index))
    go = parent_conn.recv()
    assert go == "go", f"unexpected parent message {go!r}"
    cpu_started = _wallclock.process_time()

    # ------------------------------------------------------------------
    # Synchronous-window main loop.
    # ------------------------------------------------------------------
    duration_s = config.duration_s
    peers = sorted(peer_conns)
    windows = exchanges = messages_sent = messages_received = 0
    lookahead_violations = 0
    stall_seconds = 0.0
    now = 0.0
    while now < duration_s - 1e-15:
        window_end = min(now + window_s, duration_s)
        sim.run(until=window_end)
        windows += 1
        for peer in peers:
            pending = outbox.get(peer, {})
            # Null entries first (in port order), then everything else
            # queued for this peer — including model-egress link pairs
            # that have no physical port on this worker.  Quiet windows
            # of a hybrid exchange an empty payload.
            payload: dict[tuple[str, str], list[RemoteMessage]] = {
                link: pending.pop(link, []) for link in null_padding.get(peer, ())
            }
            payload.update(pending)
            pending.clear()
            if tracer is not None:
                # Stamped at the barrier (sim.now == window_end), which
                # is at or before every message's effective delivery on
                # the peer — send precedes receive in the merged trace.
                for messages in payload.values():
                    for message in messages:
                        tracer.event(
                            "exchange.send",
                            trace=tracer.trace_for_packet(message.packet),
                            peer=peer,
                            window=windows,
                            target=message.target_node,
                            deliver_at=message.deliver_at,
                        )
            conn = peer_conns[peer]
            stall_started = _wallclock.perf_counter()
            # Pairwise ordered exchange (lower index sends first) —
            # deadlock-free without threads.
            if worker_index < peer:
                conn.send(payload)
                incoming = conn.recv()
            else:
                incoming = conn.recv()
                conn.send(payload)
            stall_seconds += _wallclock.perf_counter() - stall_started
            exchanges += 1
            messages_sent += sum(len(msgs) for msgs in payload.values())
            received, violated = _schedule_incoming(
                sim, entities, incoming, window_end, tracer, peer, windows
            )
            messages_received += received
            lookahead_violations += violated
        now = window_end

    # The single-process epilogue: drain the batching window after the
    # final run, then check conservation.
    world.finish()
    cpu_seconds = _wallclock.process_time() - cpu_started

    if metrics is not None:
        for name, value in (
            ("windows", windows),
            ("exchanges", exchanges),
            ("messages_sent", messages_sent),
            ("messages_received", messages_received),
            ("lookahead_violations", lookahead_violations),
        ):
            metrics.counter(f"pdes.{name}", worker=worker_index).inc(value)
        metrics.gauge("pdes.stall_seconds", worker=worker_index).set(stall_seconds)

    return ShardStats(
        worker_index=worker_index,
        result=world.result(),
        windows=windows,
        exchanges=exchanges,
        messages_sent=messages_sent,
        messages_received=messages_received,
        lookahead_violations=lookahead_violations,
        stall_seconds=stall_seconds,
        invariants=invariants.summary() if invariants is not None else {},
        cpu_seconds=cpu_seconds,
        metrics_snapshot=metrics.snapshot() if metrics is not None else None,
        trace_events=tracer.records() if tracer is not None else None,
        trace_recorded=tracer.recorded if tracer is not None else 0,
        trace_evicted=tracer.evicted if tracer is not None else 0,
    )


def shard_worker_main(
    worker_index: int,
    plan: ShardPlan,
    parent_conn: Connection,
    peer_conns: dict[int, Connection],
) -> None:
    """Entry point executed inside each worker process.

    Every failure — setup or mid-window — is reported to the parent as
    a structured ``("error", ...)`` message before the process exits,
    so the parent can surface *what* broke instead of timing out.  The
    flight recorder is created here, outside :func:`_run_shard`, so a
    crash report can carry its tail — the last window of spans before
    the worker died.
    """
    tracer = None
    if plan.trace_capacity is not None:
        tracer = FlightRecorder(
            seed=plan.config.seed, capacity=plan.trace_capacity, worker=worker_index
        )
    try:
        stats = _run_shard(worker_index, plan, tracer, parent_conn, peer_conns)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            parent_conn.send(
                (
                    "error",
                    {
                        "worker_index": worker_index,
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": _traceback.format_exc(),
                        "trace_tail": (
                            tracer.tail() if tracer is not None else []
                        ),
                    },
                )
            )
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
        return
    parent_conn.send(("done", stats))
    try:
        parent_conn.recv()  # final release before exiting
    except EOFError:  # pragma: no cover - parent already gone
        pass
