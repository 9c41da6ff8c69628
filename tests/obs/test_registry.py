"""Unit tests for the metrics registry and its instruments."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, read_jsonl
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SPAN,
)


class TestInstrumentIdentity:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("a") is reg.gauge("a")
        assert reg.histogram("a") is reg.histogram("a")
        assert reg.span("a") is reg.span("a")

    def test_labels_separate_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("drops", cluster="c1") is not reg.counter(
            "drops", cluster="c2"
        )
        assert reg.counter("drops", cluster="c1") is not reg.counter("drops")

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        # int and str label values that print the same are the same key.
        assert reg.counter("x", cluster=3) is reg.counter("x", cluster="3")

    def test_kinds_are_independent_namespaces(self):
        reg = MetricsRegistry()
        reg.counter("same").inc()
        reg.gauge("same").set(5)
        reg.histogram("same").observe(1.0)
        snap = reg.snapshot()
        assert len(snap["counters"]) == 1
        assert len(snap["gauges"]) == 1
        assert len(snap["histograms"]) == 1


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_bound_counter_reads_its_producers_when_asked(self):
        reg = MetricsRegistry()
        reg.counter("first").inc()
        box = {"a": 0, "b": 0}
        reg.bind_counter("bound", lambda: box["a"], cluster=1)
        reg.bind_counter("bound", lambda: box["b"], cluster=1)  # same key: adds up
        box["a"], box["b"] = 3, 4
        assert reg.counter("bound", cluster=1).value == 7.0
        box["a"] = 5
        snap = reg.snapshot()
        # Read at snapshot time, in the order the counters were made.
        assert [c["name"] for c in snap["counters"]] == ["first", "bound"]
        assert snap["counters"][1]["value"] == 9.0

    def test_disabled_registry_ignores_bindings(self):
        reg = MetricsRegistry(enabled=False)
        reg.bind_counter("bound", lambda: 1 / 0)
        assert reg.snapshot() == {"enabled": False}

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1)
        gauge.set(7.5)
        assert gauge.value == 7.5


class TestSpan:
    def test_records_count_and_time(self):
        span = MetricsRegistry().span("s")
        for _ in range(3):
            with span:
                pass
        assert span.count == 3
        assert span.errors == 0
        assert span.total_s >= 0.0
        summary = span.summary()
        assert summary["count"] == 3
        assert summary["seconds_max"] >= summary["seconds_min"] >= 0.0

    def test_exception_safe(self):
        span = MetricsRegistry().span("s")
        with pytest.raises(RuntimeError):
            with span:
                raise RuntimeError("boom")
        assert span.count == 1
        assert span.errors == 1
        assert span.depth == 0  # the start stack was popped

    def test_nesting(self):
        span = MetricsRegistry().span("s")

        def recurse(depth: int) -> None:
            with span:
                assert span.depth == depth + 1
                if depth < 2:
                    recurse(depth + 1)

        recurse(0)
        assert span.depth == 0
        assert span.count == 3  # one exit per level

    def test_labeled_spans_are_distinct(self):
        reg = MetricsRegistry()
        with reg.span("train.batch", direction="ingress"):
            pass
        assert reg.span("train.batch", direction="ingress").count == 1
        assert reg.span("train.batch", direction="egress").count == 0


class TestDisabledRegistry:
    def test_hands_out_shared_null_singletons(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.counter("b", any="label") is NULL_COUNTER
        assert reg.gauge("a") is NULL_GAUGE
        assert reg.histogram("a") is NULL_HISTOGRAM
        assert reg.span("a") is NULL_SPAN
        assert reg.handles_enabled() is False

    def test_null_instruments_are_inert(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc(5)
        reg.gauge("a").set(5)
        reg.histogram("a").observe(5)
        with reg.span("a"):
            pass
        reg.record_probe(0.1, "q", 3.0)
        assert reg.probe_samples == []
        assert reg.snapshot() == {"enabled": False}

    def test_disabled_jsonl_is_header_only(self, tmp_path):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc()
        path = tmp_path / "m.jsonl"
        assert reg.write_jsonl(path) == 1
        records = read_jsonl(path)
        assert records == [
            {"type": "meta", "enabled": False, "probe_samples_dropped": 0}
        ]


class TestProbeSamples:
    def test_recorded_in_order_with_labels(self):
        reg = MetricsRegistry()
        reg.record_probe(0.1, "q", 1.0, cluster="c1")
        reg.record_probe(0.2, "q", 2.0, cluster="c1")
        samples = reg.probe_samples
        assert [s.t_sim for s in samples] == [0.1, 0.2]
        assert samples[0].to_dict() == {
            "t_sim": 0.1,
            "name": "q",
            "labels": {"cluster": "c1"},
            "value": 1.0,
        }

    def test_bounded_with_drop_counter(self):
        reg = MetricsRegistry(max_probe_samples=3)
        for i in range(10):
            reg.record_probe(i * 0.1, "q", float(i))
        assert len(reg.probe_samples) == 3
        assert reg.probe_samples_dropped == 7
        assert reg.snapshot()["probes"]["dropped"] == 7


class TestExport:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("events", kind="drop").inc(4)
        reg.gauge("sim_time").set(0.25)
        hist = reg.histogram("latency")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        with reg.span("loop"):
            pass
        reg.record_probe(0.01, "queue", 100.0, cluster="c1")
        reg.record_probe(0.02, "queue", 200.0, cluster="c1")
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["enabled"] is True
        [counter] = snap["counters"]
        assert counter == {"name": "events", "labels": {"kind": "drop"}, "value": 4.0}
        [hist] = snap["histograms"]
        assert hist["summary"]["count"] == 3
        assert hist["summary"]["min"] == 1.0 and hist["summary"]["max"] == 3.0
        [span] = snap["spans"]
        assert span["summary"]["count"] == 1
        assert [s["t_sim"] for s in snap["probes"]["samples"]] == [0.01, 0.02]

    def test_snapshot_is_json_serializable_and_idempotent(self):
        reg = self._populated()
        first = reg.snapshot()
        json.dumps(first)  # must not raise
        assert reg.snapshot() == first  # snapshotting mutates nothing

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "metrics.jsonl"
        rows = reg.write_jsonl(path)
        records = read_jsonl(path)
        assert len(records) == rows
        assert records[0]["type"] == "meta" and records[0]["enabled"] is True
        # Probe records come first, in recording order.
        probes = [r for r in records if r["type"] == "probe"]
        assert records[1 : 1 + len(probes)] == probes
        assert [p["t_sim"] for p in probes] == [0.01, 0.02]
        by_type = {r["type"] for r in records}
        assert by_type == {"meta", "probe", "counter", "gauge", "histogram", "span"}
        [counter] = [r for r in records if r["type"] == "counter"]
        assert counter["value"] == 4.0
