"""Deterministic distributed tracing: follow one flow across tiers and workers.

The tracing layer answers the question the per-process aggregates in
:mod:`repro.obs.registry` cannot: *what happened to this one flow* as it
crossed the traffic generator, a cascade tier handoff, the batched
inference hot path, and a PDES cut-link exchange.  Its contract is the
same one the metrics layer set:

- **RNG-free and sim-time-stamped.**  A recorder never draws random
  numbers, never schedules simulator events, and stamps records with
  simulation time (plus a deterministic per-recorder sequence number) —
  so seeded outcomes are byte-identical with tracing on or off.
- **Stable ids.**  A flow's trace id is derived from ``(seed, flow id)``
  by :func:`trace_id` — no wall-clock or PID entropy — so the same flow
  gets the same id in a single-process run, on every PDES worker that
  touches it, and across re-runs.
- **Bounded.**  Records land in a per-process ring buffer (the "flight
  recorder"); overflow evicts the oldest record and counts it.  The tail
  survives worker crashes: a dying shard attaches its last window of
  records to the structured crash payload.
- **One branch when disabled.**  There is no null recorder: hot paths
  hold an optional tracer and pay a single ``is not None`` check per
  packet when tracing is off.

Span taxonomy (the ``name`` field):

====================  ==========================================================
``flow.admit``        traffic-generator admission (or shard-local flow launch)
``flow.complete``     flow completion with its FCT
``tier.dispatch``     cascade admission routed to a fidelity tier
``tier.handoff``      cascade promote/demote handoff through a ``TierAdapter``
``model.decide``      approximated-cluster delivery (span: arrival → delivery)
``model.drop``        approximated-cluster drop decision
``batch.round``       one ``InferenceBatcher`` flush round (memo hit/miss deltas)
``exchange.send``     PDES windowed exchange, sender side (worker, window seq)
``exchange.recv``     PDES exchange delivery on the receiving worker
``invariant.violation``  ``InvariantChecker`` finding, annotated with trace id
====================  ==========================================================

Merged traces (:func:`merge_traces`) sort by ``(t0, worker, seq)`` and
export losslessly to JSONL (:func:`write_trace_jsonl`) or to the Chrome
trace-event / Perfetto JSON format (:func:`to_chrome_trace`), where each
PDES worker becomes a process track and each flow a named thread track.

The raw packet trace of Section 2.1 ("users ... can print raw
packet/event traces") is the unsampled, unbounded counterpart:
:func:`record_packets` appends one row per port delivery or queue drop
of every packet, and :func:`write_packet_csv` exports the rows as CSV
(``repro simulate --trace-csv``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.net.port import chain_hook

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "TRACE_SCHEMA_VERSION",
    "CHROME_REQUIRED_KEYS",
    "FlightRecorder",
    "trace_id",
    "merge_traces",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "to_chrome_trace",
    "flow_events",
    "top_spans",
    "PACKET_TRACE_FIELDS",
    "record_packets",
    "write_packet_csv",
]

#: Default ring-buffer capacity of one flight recorder.
DEFAULT_TRACE_CAPACITY = 4096

#: Bump when the record schema changes (recorded in JSONL meta lines).
TRACE_SCHEMA_VERSION = 1

#: Keys every exported Chrome trace event carries (CI asserts these).
CHROME_REQUIRED_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")


def trace_id(seed: int, flow_id: int) -> str:
    """Stable 64-bit hex trace id for one flow of a seeded run.

    Derived purely from ``(seed, flow id)``; the flow id is the traffic
    generator's arrival index, which every engine and tier shares, so a
    flow keeps its trace id in DES, the elided hybrid and the cascade.
    """
    payload = f"{int(seed)}:flow:{int(flow_id)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class FlightRecorder:
    """Bounded, deterministic per-process trace ring buffer.

    ``clock`` is a zero-argument callable returning the current
    simulation time (normally ``lambda: sim.now``); it can be bound
    after construction with :meth:`bind_clock` when the recorder is
    created before the simulator.  ``worker`` stamps every record with
    the owning PDES worker index (``None`` single-process).
    """

    __slots__ = (
        "seed",
        "worker",
        "capacity",
        "_ring",
        "_clock",
        "_count",
        "_sid",
        "_stack",
        "_flow_keys",
        "_flow_ids",
    )

    def __init__(
        self,
        seed: int,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        worker: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.seed = int(seed)
        self.worker = worker
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._count = 0  # total records appended (evicted = _count - len(ring))
        self._sid = 0  # span/event id counter (assigned at begin time)
        self._stack: list[dict] = []  # open begin() frames, innermost last
        self._flow_keys: dict[Any, str] = {}  # e.g. (src, src_port) -> trace id
        self._flow_ids: dict[int, str] = {}  # flow_id -> trace id

    # -- identity ------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the sim-time clock (for recorders built before the sim)."""
        self._clock = clock

    def trace_for_flow(self, flow_id: int) -> str:
        """The flow's stable trace id (memoized)."""
        tid = self._flow_ids.get(flow_id)
        if tid is None:
            tid = self._flow_ids[flow_id] = trace_id(self.seed, flow_id)
        return tid

    def register_flow(self, flow_id: int, key: Any) -> str:
        """Bind a runtime lookup ``key`` (e.g. ``(src, src_port)``) to a flow.

        Hot paths that only see packets resolve the trace id through
        :meth:`trace_for_key` with the packet's flow identity.
        """
        tid = self._flow_keys[key] = self.trace_for_flow(flow_id)
        return tid

    def trace_for_key(self, key: Any) -> Optional[str]:
        """Trace id registered for ``key``, or ``None`` if unknown."""
        return self._flow_keys.get(key)

    def trace_for_packet(self, packet: Any) -> Optional[str]:
        """Resolve a packet to its flow's trace id.

        Flows register under ``(sender host, sender port)``; data
        segments match directly and pure ACKs (which travel the reverse
        direction, ports mirrored) match on the fallback lookup.
        """
        tid = self._flow_keys.get((packet.src, packet.src_port))
        if tid is None:
            tid = self._flow_keys.get((packet.dst, packet.dst_port))
        return tid

    # -- recording -----------------------------------------------------
    # Hot-path records (event/span) live in the ring as flat 9-tuples —
    # about half the cost of building the dict form per packet — and
    # are normalized to dicts on export.  begin()/end() frames need
    # in-place mutation (t1 lands at close time) so they stay dicts;
    # records() accepts both shapes.
    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by overflow."""
        return self._count - len(self._ring)

    @property
    def recorded(self) -> int:
        """Total records ever appended (including evicted ones)."""
        return self._count

    def event(
        self,
        name: str,
        trace: Optional[str] = None,
        t: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Record an instantaneous event at sim time ``t`` (default: now)."""
        at = self._clock() if t is None else float(t)
        self._sid += 1
        self._count += 1
        self._ring.append(
            (
                "event",
                name,
                trace,
                at,
                at,
                self.worker,
                self._sid,
                self._stack[-1]["seq"] if self._stack else None,
                args,
            )
        )

    def packet_span(
        self,
        name: str,
        t0: float,
        t1: float,
        packet: Any,
        cluster: str,
        target: str,
        batched: bool,
    ) -> Optional[str]:
        """One-call packet attribution + span for the model hot path.

        Equivalent to ``span(name, t0, t1, trace=trace_for_packet(p),
        cluster=..., target=..., batched=...)`` but a single call with
        positional arguments, no ``float()`` coercion (sim times are
        already floats), and the args stored as a bare 3-tuple that
        :meth:`_as_dict` expands on export — after every inference step
        the recorder runs cache-cold, so every allocation saved here is
        a cache miss saved per packet.  Returns the resolved trace id
        (for the invariant checker).
        """
        keys = self._flow_keys
        trace = keys.get((packet.src, packet.src_port))
        if trace is None:
            trace = keys.get((packet.dst, packet.dst_port))
        self._sid += 1
        self._count += 1
        self._ring.append(
            (
                "span",
                name,
                trace,
                t0,
                t1,
                self.worker,
                self._sid,
                self._stack[-1]["seq"] if self._stack else None,
                (cluster, target, batched),
            )
        )
        return trace

    def span(
        self,
        name: str,
        t0: float,
        t1: float,
        trace: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span with explicit sim-time endpoints."""
        self._sid += 1
        self._count += 1
        self._ring.append(
            (
                "span",
                name,
                trace,
                float(t0),
                float(t1),
                self.worker,
                self._sid,
                self._stack[-1]["seq"] if self._stack else None,
                args,
            )
        )

    def begin(
        self, name: str, trace: Optional[str] = None, **args: Any
    ) -> dict:
        """Open a nested span at the current sim time; close with :meth:`end`.

        Frames obey strict stack discipline: :meth:`end` must close the
        innermost open frame.  The completed record's ``parent`` points
        at the enclosing frame's ``seq``, so offline consumers can
        rebuild the nesting tree.
        """
        self._sid += 1
        frame = {
            "kind": "span",
            "name": name,
            "trace": trace,
            "t0": self._clock(),
            "t1": None,
            "worker": self.worker,
            "seq": self._sid,
            "parent": self._stack[-1]["seq"] if self._stack else None,
            "args": args,
        }
        self._stack.append(frame)
        return frame

    def end(self, frame: dict, **extra: Any) -> dict:
        """Close the innermost open frame and append it to the ring."""
        if not self._stack or self._stack[-1] is not frame:
            raise ValueError(
                f"trace span {frame.get('name')!r} closed out of order"
            )
        self._stack.pop()
        frame["t1"] = self._clock()
        if extra:
            frame["args"] = {**frame["args"], **extra}
        self._count += 1
        self._ring.append(frame)
        return frame

    # -- export --------------------------------------------------------
    @staticmethod
    def _as_dict(record) -> dict:
        if type(record) is dict:
            return record
        args = record[8]
        if type(args) is not dict:
            # packet_span stores its fixed arg triple as a bare tuple.
            args = {"cluster": args[0], "target": args[1], "batched": args[2]}
        return {
            "kind": record[0],
            "name": record[1],
            "trace": record[2],
            "t0": record[3],
            "t1": record[4],
            "worker": record[5],
            "seq": record[6],
            "parent": record[7],
            "args": args,
        }

    def records(self) -> list[dict]:
        """The ring's surviving records as dicts, oldest first."""
        return [self._as_dict(record) for record in self._ring]

    def tail(self, limit: int = 64) -> list[dict]:
        """The newest ``limit`` records (the crash-payload window)."""
        window = list(self._ring) if limit >= len(self._ring) else list(
            self._ring
        )[-limit:]
        return [self._as_dict(record) for record in window]

    def snapshot(self) -> dict:
        """JSON-ready summary: identity, pressure counters, and records."""
        return {
            "seed": self.seed,
            "worker": self.worker,
            "capacity": self.capacity,
            "recorded": self._count,
            "evicted": self.evicted,
            "events": self.records(),
        }


# ----------------------------------------------------------------------
# Merging and export
# ----------------------------------------------------------------------
def _merge_key(record: dict) -> tuple:
    worker = record.get("worker")
    return (
        record["t0"],
        -1 if worker is None else worker,
        record["seq"],
    )


def merge_traces(event_lists: Iterable[Iterable[dict]]) -> list[dict]:
    """Merge per-worker record lists into one sim-time-ordered timeline.

    Records are ordered by ``(t0, worker, seq)`` — deterministic for a
    seeded run because every component is itself deterministic.
    """
    merged = [record for records in event_lists for record in records]
    merged.sort(key=_merge_key)
    return merged


def write_trace_jsonl(
    path: str | Path, events: Iterable[dict], meta: Optional[dict] = None
) -> int:
    """Write a merged trace as JSONL: one meta header line, then records.

    Returns the number of trace records written (excluding the header).
    """
    path = Path(path)
    header = {"type": "meta", "schema": TRACE_SCHEMA_VERSION}
    if meta:
        header.update(meta)
    rows = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in events:
            handle.write(
                json.dumps({"type": "trace", **record}, sort_keys=True) + "\n"
            )
            rows += 1
    return rows


def read_trace_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a trace JSONL file back as ``(meta, records)``."""
    meta: dict = {}
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            kind = row.pop("type", "trace")
            if kind == "meta":
                meta = row
            else:
                records.append(row)
    return meta, records


def to_chrome_trace(events: Iterable[dict]) -> dict:
    """Export merged records to Chrome trace-event / Perfetto JSON.

    Each PDES worker becomes a process (``pid``); each flow's trace id
    becomes a named thread (``tid``) within it, so one flow's spans show
    up on every worker track it crossed.  Spans map to complete events
    (``ph: "X"``), instantaneous records to thread-scoped instants
    (``ph: "i"``).  Timestamps are sim time in microseconds.
    """
    events = list(events)
    # Deterministic small-int thread ids per trace id (0 = untraced).
    trace_ids = sorted({e["trace"] for e in events if e.get("trace")})
    tid_of = {trace: index + 1 for index, trace in enumerate(trace_ids)}
    out: list[dict] = []
    seen_tracks: set = set()
    for record in events:
        worker = record.get("worker")
        pid = 0 if worker is None else int(worker)
        tid = tid_of.get(record.get("trace"), 0)
        if pid not in {track[0] for track in seen_tracks}:
            out.append(
                {
                    "name": "process_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": "single-process" if worker is None else f"worker-{pid}"
                    },
                }
            )
        if (pid, tid) not in seen_tracks:
            seen_tracks.add((pid, tid))
            out.append(
                {
                    "name": "thread_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": record.get("trace") or "untraced"},
                }
            )
        ts = record["t0"] * 1e6
        base = {
            "name": record["name"],
            "cat": record["name"].split(".", 1)[0],
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "args": {**record.get("args", {}), "trace": record.get("trace")},
        }
        if record.get("kind") == "span":
            base["ph"] = "X"
            base["dur"] = max(0.0, (record["t1"] - record["t0"]) * 1e6)
        else:
            base["ph"] = "i"
            base["s"] = "t"
        out.append(base)
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace",
            "schema": TRACE_SCHEMA_VERSION,
        },
    }


# ----------------------------------------------------------------------
# Offline analysis (the `repro trace` CLI backend)
# ----------------------------------------------------------------------
def flow_events(events: Iterable[dict], trace: str) -> list[dict]:
    """All records of one flow, matched by full trace id or unique prefix."""
    trace = str(trace)
    exact = [e for e in events if e.get("trace") == trace]
    if exact:
        return exact
    matches = {
        e["trace"] for e in events if e.get("trace") and e["trace"].startswith(trace)
    }
    if len(matches) > 1:
        raise ValueError(
            f"trace id prefix {trace!r} is ambiguous ({len(matches)} matches)"
        )
    if not matches:
        return []
    (full,) = matches
    return [e for e in events if e.get("trace") == full]


def top_spans(
    events: Iterable[dict], by: str = "span-duration", limit: int = 10
) -> list[dict]:
    """Rank records for ``repro trace top``.

    ``span-duration`` ranks individual spans by sim-time duration;
    ``count`` ranks record names by how often they fired.
    """
    events = list(events)
    if by == "span-duration":
        spans = [e for e in events if e.get("kind") == "span"]
        spans.sort(key=lambda e: (-(e["t1"] - e["t0"]), _merge_key(e)))
        return [
            {
                "name": span["name"],
                "trace": span.get("trace"),
                "worker": span.get("worker"),
                "t0": span["t0"],
                "duration_s": span["t1"] - span["t0"],
            }
            for span in spans[:limit]
        ]
    if by == "count":
        counts: dict[str, int] = {}
        for record in events:
            counts[record["name"]] = counts.get(record["name"], 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return [{"name": name, "count": count} for name, count in ranked[:limit]]
    raise ValueError(f"unknown ranking {by!r}; use 'span-duration' or 'count'")


# ----------------------------------------------------------------------
# Raw packet trace (`repro simulate --trace-csv`)
# ----------------------------------------------------------------------
#: Columns of a :func:`record_packets` row.  ``link_from``/``link_to``
#: name the directed port; ``time`` is the delivery instant, or for a
#: drop the instant the queue rejected the packet.
PACKET_TRACE_FIELDS = (
    "time", "kind", "link_from", "link_to", "src", "dst", "src_port",
    "dst_port", "seq", "ack", "payload_bytes", "size_bytes", "ecn_marked",
    "retransmission", "packet_id",
)


def record_packets(network) -> list[tuple]:
    """Chain onto the delivery and drop hooks of every port of
    ``network`` and return the list that each event then appends one
    :data:`PACKET_TRACE_FIELDS` row to.  Costs one call per event, so
    keep it to short runs."""
    rows: list[tuple] = []
    sim = network.sim

    def row(time, kind, owner, peer, p) -> None:
        rows.append((
            time, kind, owner, peer, p.src, p.dst, p.src_port, p.dst_port,
            p.seq, p.ack, p.payload_bytes, p.size_bytes, p.ecn_marked,
            p.retransmission, p.packet_id,
        ))

    for (owner, peer), port in network.ports().items():
        port.on_deliver = chain_hook(
            port.on_deliver,
            lambda p, time, o=owner, q=peer: row(time, "deliver", o, q, p),
        )
        port.on_drop = chain_hook(
            port.on_drop, lambda p, o=owner, q=peer: row(sim.now, "drop", o, q, p)
        )
    return rows


def write_packet_csv(path: str | Path, rows: list[tuple]) -> int:
    """Write :func:`record_packets` rows as CSV under a header line (an
    empty trace writes an empty file); returns the row count."""
    with Path(path).open("w", newline="") as handle:
        if rows:
            writer = csv.writer(handle)
            writer.writerow(PACKET_TRACE_FIELDS)
            writer.writerows(rows)
    return len(rows)
