"""Unit and property tests for the flight-recorder tracing layer.

The tracing contract mirrors the metrics layer's: RNG-free, sim-time
stamped, bounded, and byte-stable for a seeded run.  Pinned here:

1. trace ids are pure functions of ``(seed, flow id)``;
2. the ring evicts oldest-first with an exact eviction count
   (property-tested over arbitrary capacity/record-count pairs);
3. ``begin``/``end`` obey strict stack discipline — nesting is
   reconstructible from ``parent`` pointers, out-of-order closes raise
   (property-tested over random nesting trees);
4. JSONL round-trips losslessly and the Chrome export always carries
   the keys CI asserts on;
5. the offline helpers (merge order, flow lookup, top-span ranking)
   behave deterministically.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    CHROME_REQUIRED_KEYS,
    DEFAULT_TRACE_CAPACITY,
    FlightRecorder,
    flow_events,
    merge_traces,
    read_trace_jsonl,
    to_chrome_trace,
    top_spans,
    trace_id,
    write_trace_jsonl,
)


# ----------------------------------------------------------------------
# Trace ids
# ----------------------------------------------------------------------
def test_trace_id_is_stable_and_seed_scoped():
    assert trace_id(7, 3) == trace_id(7, 3)
    assert len(trace_id(7, 3)) == 16
    int(trace_id(7, 3), 16)  # hex
    assert trace_id(7, 3) != trace_id(8, 3)
    assert trace_id(7, 3) != trace_id(7, 4)


def test_recorder_memoizes_flow_ids():
    rec = FlightRecorder(seed=7)
    assert rec.trace_for_flow(3) == trace_id(7, 3)
    assert rec.trace_for_flow(3) is rec.trace_for_flow(3)


# ----------------------------------------------------------------------
# Flow-key attribution (how hot paths resolve packets)
# ----------------------------------------------------------------------
class _FakePacket:
    def __init__(self, src, dst, src_port, dst_port):
        self.src, self.dst = src, dst
        self.src_port, self.dst_port = src_port, dst_port


def test_packet_attribution_matches_sender_and_reverse_ack():
    rec = FlightRecorder(seed=7)
    tid = rec.register_flow(0, key=("h1", 40001))
    data = _FakePacket("h1", "h2", 40001, 80)
    ack = _FakePacket("h2", "h1", 80, 40001)
    stranger = _FakePacket("h9", "h2", 40009, 80)
    assert rec.trace_for_packet(data) == tid
    assert rec.trace_for_packet(ack) == tid
    assert rec.trace_for_packet(stranger) is None
    assert rec.trace_for_key(("h1", 40001)) == tid
    assert rec.trace_for_key(("nope", 1)) is None


# ----------------------------------------------------------------------
# Ring buffer: bounded, oldest-first eviction
# ----------------------------------------------------------------------
def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(seed=1, capacity=0)


def test_default_capacity():
    assert FlightRecorder(seed=1).capacity == DEFAULT_TRACE_CAPACITY


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=64),
    total=st.integers(min_value=0, max_value=200),
)
def test_ring_keeps_newest_and_counts_evictions(capacity, total):
    """Survivors are exactly the last ``capacity`` records, in insertion
    order, and ``evicted + len(records) == recorded`` always holds."""
    rec = FlightRecorder(seed=1, capacity=capacity)
    for index in range(total):
        rec.event("tick", t=float(index), index=index)
    survivors = rec.records()
    assert rec.recorded == total
    assert rec.evicted == max(0, total - capacity)
    assert rec.evicted + len(survivors) == rec.recorded
    expected = list(range(max(0, total - capacity), total))
    assert [r["args"]["index"] for r in survivors] == expected
    # tail() is a suffix of the survivors
    assert rec.tail(limit=5) == survivors[-5:] if survivors else rec.tail() == []


def test_tail_caps_at_ring_length():
    rec = FlightRecorder(seed=1, capacity=8)
    for index in range(3):
        rec.event("tick", t=float(index))
    assert len(rec.tail(limit=64)) == 3


# ----------------------------------------------------------------------
# Span nesting: strict stack discipline
# ----------------------------------------------------------------------
def test_end_out_of_order_raises():
    rec = FlightRecorder(seed=1)
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(ValueError, match="out of order"):
        rec.end(outer)


def test_end_without_begin_raises():
    rec = FlightRecorder(seed=1)
    frame = rec.begin("only")
    rec.end(frame)
    with pytest.raises(ValueError):
        rec.end(frame)


@settings(max_examples=100, deadline=None)
@given(
    # A random nesting script: True opens a frame, False closes the
    # innermost open one (ignored when nothing is open).
    script=st.lists(st.booleans(), min_size=1, max_size=60)
)
def test_nesting_tree_reconstructible_from_parents(script):
    rec = FlightRecorder(seed=1, capacity=256)
    clock = [0.0]
    rec.bind_clock(lambda: clock[0])
    open_frames: list[dict] = []
    expected_parent: dict[int, object] = {}
    for opens in script:
        clock[0] += 1.0
        if opens:
            frame = rec.begin("op")
            expected_parent[frame["seq"]] = (
                open_frames[-1]["seq"] if open_frames else None
            )
            open_frames.append(frame)
        elif open_frames:
            rec.end(open_frames.pop())
    while open_frames:
        clock[0] += 1.0
        rec.end(open_frames.pop())
    for record in rec.records():
        assert record["parent"] == expected_parent[record["seq"]]
        assert record["t1"] >= record["t0"]  # monotonic fake clock


def test_nested_records_land_innermost_first_with_extra_args():
    rec = FlightRecorder(seed=1)
    clock = [1.0]
    rec.bind_clock(lambda: clock[0])
    outer = rec.begin("outer", trace="aa")
    inner = rec.begin("inner")
    clock[0] = 2.0
    rec.end(inner)
    rec.end(outer, verdict="deliver")
    records = rec.records()
    assert [r["name"] for r in records] == ["inner", "outer"]
    assert records[0]["parent"] == outer["seq"]
    assert records[1]["parent"] is None
    assert records[1]["args"]["verdict"] == "deliver"
    assert records[1] == outer  # end() returns/append the same frame dict


# ----------------------------------------------------------------------
# Merge order, JSONL round-trip, Chrome export
# ----------------------------------------------------------------------
def _worker_records(worker: int, times: list[float]) -> list[dict]:
    rec = FlightRecorder(seed=7, worker=worker)
    for t in times:
        rec.event("tick", t=t)
    return rec.records()


def test_merge_orders_by_time_then_worker_then_seq():
    merged = merge_traces(
        [_worker_records(1, [0.2, 0.1]), _worker_records(0, [0.1, 0.3])]
    )
    keys = [(r["t0"], r["worker"]) for r in merged]
    assert keys == [(0.1, 0), (0.1, 1), (0.2, 1), (0.3, 0)]


def test_jsonl_round_trip(tmp_path):
    rec = FlightRecorder(seed=7, worker=0)
    tid = rec.register_flow(0, key=("h1", 40001))
    rec.event("flow.admit", trace=tid, t=0.0, src="h1")
    rec.span("model.decide", 0.1, 0.2, trace=tid, verdict="deliver")
    path = tmp_path / "trace.jsonl"
    written = write_trace_jsonl(path, rec.records(), meta={"seed": 7, "workers": 1})
    assert written == 2
    meta, records = read_trace_jsonl(path)
    assert meta["seed"] == 7 and meta["schema"] == 1
    assert records == rec.records()


def test_chrome_export_carries_required_keys_and_microseconds():
    rec = FlightRecorder(seed=7, worker=2)
    tid = rec.trace_for_flow(0)
    rec.event("flow.admit", trace=tid, t=0.001)
    rec.span("model.decide", 0.001, 0.0015, trace=tid)
    doc = to_chrome_trace(rec.records())
    events = doc["traceEvents"]
    assert events, "export produced no events"
    for event in events:
        for key in CHROME_REQUIRED_KEYS:
            assert key in event, f"missing {key} in {event}"
    json.loads(json.dumps(doc))  # must serialize cleanly
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and spans[0]["ts"] == pytest.approx(1000.0)  # 1 ms -> us
    assert spans[0]["dur"] == pytest.approx(500.0)
    instants = [e for e in events if e["ph"] == "i"]
    assert instants and all(e["pid"] == 2 for e in instants)


def test_chrome_export_is_deterministic():
    a = to_chrome_trace(_worker_records(0, [0.1, 0.2]))
    b = to_chrome_trace(_worker_records(0, [0.1, 0.2]))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ----------------------------------------------------------------------
# Offline analysis helpers
# ----------------------------------------------------------------------
def _two_flow_records() -> list[dict]:
    rec = FlightRecorder(seed=7)
    a = rec.trace_for_flow(0)
    b = rec.trace_for_flow(1)
    rec.event("flow.admit", trace=a, t=0.0)
    rec.span("model.decide", 0.0, 0.5, trace=a)
    rec.span("model.decide", 0.0, 0.1, trace=b)
    rec.event("flow.complete", trace=b, t=0.1)
    return rec.records()


def test_flow_events_exact_prefix_and_ambiguity():
    records = _two_flow_records()
    a = trace_id(7, 0)
    assert {r["trace"] for r in flow_events(records, a)} == {a}
    assert flow_events(records, a[:6]) == flow_events(records, a)
    assert flow_events(records, "zzzz") == []
    with pytest.raises(ValueError, match="ambiguous"):
        flow_events(records, "")  # empty prefix matches both flows


def test_top_spans_by_duration_and_count():
    records = _two_flow_records()
    by_duration = top_spans(records, by="span-duration", limit=1)
    assert by_duration[0]["duration_s"] == pytest.approx(0.5)
    assert by_duration[0]["trace"] == trace_id(7, 0)
    by_count = top_spans(records, by="count")
    assert by_count[0] == {"name": "model.decide", "count": 2}
    with pytest.raises(ValueError, match="unknown ranking"):
        top_spans(records, by="latency")


def test_snapshot_shape():
    rec = FlightRecorder(seed=7, worker=1, capacity=2)
    for t in (0.0, 0.1, 0.2):
        rec.event("tick", t=t)
    snap = rec.snapshot()
    assert snap["seed"] == 7 and snap["worker"] == 1
    assert snap["capacity"] == 2
    assert snap["recorded"] == 3 and snap["evicted"] == 1
    assert len(snap["events"]) == 2
