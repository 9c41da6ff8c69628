"""The metrics registry: labeled counters, gauges, histograms, spans.

Every subsystem that measures something — the DES event loop, the
trainer, the hybrid hot path, the sweep scheduler — measures it through
one :class:`MetricsRegistry`, so a run's telemetry shares a single
schema and lands in one place (the run manifest and, optionally, a
JSONL stream).

Every count and sample lives in one place: a plain field or list on
the object that produces it (``RunResult`` and ``hot_path_counters``
are built from those fields).  The registry publishes such a count by
reading the field (:meth:`MetricsRegistry.bind_counter`), never by
keeping a copy of its own.  Handles that a producer updates itself
remain only for distributions (histograms, spans) and for counters
created when their first event happens (link failures, invariant
violations, macro transitions).

Design constraints, in order:

1. **Free when disabled.**  A disabled registry hands out shared
   singleton no-op instruments, allocates nothing per observation, and
   snapshots to a one-key dict.  Hot paths that want literally zero
   cost can ask :meth:`MetricsRegistry.handles_enabled` and keep
   ``None`` handles behind a single ``is not None`` branch.
2. **Allocation-free when enabled.**  Instruments are created once
   (get-or-create keyed by name + sorted labels) and cached; observing
   is attribute arithmetic or a :class:`~repro.analysis.streaming.
   StreamingStats` update — both O(1) and allocation-free in steady
   state.
3. **Bounded.**  Histograms use the bounded streaming backend; probe
   samples (see :mod:`repro.obs.probes`) are capped with an explicit
   drop counter, so a million-packet run cannot blow up a manifest.

Wall-clock profiling uses :meth:`MetricsRegistry.span` — a nestable,
exception-safe, *reusable* context manager::

    span = registry.span("train.batch")
    for batch in batches:
        with span:
            step(batch)

Spans record every entry/exit pair into a histogram of seconds, keep a
running total, and survive exceptions (the timing is recorded in
``finally``); recursive re-entry is handled with a start-time stack.
"""

from __future__ import annotations

import json
import time as _wallclock
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.analysis.streaming import StreamingStats

#: Label sets are stored canonically as sorted (key, value) tuples.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> dict[str, str]:
    return dict(key)


class Counter:
    """A labeled, monotonically non-decreasing count.

    Its value is what :meth:`inc` added plus what its readers return:
    a count its producer already keeps as a plain field is bound with
    :meth:`MetricsRegistry.bind_counter` and read when ``value`` is
    asked for, so it lives in one place.
    """

    __slots__ = ("name", "labels", "_added", "_reads")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._added = 0.0
        self._reads: list[Callable[[], float]] = []

    def inc(self, by: float = 1.0) -> None:
        """Add ``by`` (must be non-negative)."""
        if by < 0:
            raise ValueError(f"counter {self.name!r} increment must be >= 0, got {by}")
        self._added += by

    @property
    def value(self) -> float:
        value = self._added
        for read in self._reads:
            value += read()
        return value


class Gauge:
    """A labeled point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A labeled distribution over a bounded streaming backend.

    Thin wrapper over :class:`StreamingStats`: Welford moments plus a
    deterministic bounded systematic sample for quantiles — O(1) per
    observation, O(max_samples) memory, no RNG draws (so instrumenting
    a hot path never perturbs the simulation's random streams).
    """

    __slots__ = ("name", "labels", "stats")

    def __init__(self, name: str, labels: LabelKey = (), max_samples: int = 1024) -> None:
        self.name = name
        self.labels = labels
        self.stats = StreamingStats(max_samples=max_samples)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.stats.add(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one."""
        self.stats.merge(other.stats)
        return self

    @property
    def count(self) -> int:
        return self.stats.count

    def summary(self) -> dict[str, float]:
        """Plain-dict snapshot (count/mean/std/min/max/percentiles)."""
        return self.stats.summary()


class Span:
    """Reusable wall-clock profiling scope.

    ``with span:`` times the enclosed block and records the elapsed
    seconds into a bounded histogram.  Properties:

    * **reusable** — one span object times many entries (the common
      per-batch / per-event-loop pattern);
    * **nestable** — recursive re-entry pushes onto a start stack, so
      a span used inside itself still times each level correctly;
    * **exception-safe** — the exit arm runs under ``finally``
      semantics of the context protocol: an exception inside the block
      still records its duration (and bumps ``errors``).
    """

    __slots__ = ("name", "labels", "count", "errors", "total_s", "_times", "_starts")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.errors = 0
        self.total_s = 0.0
        self._times = StreamingStats(max_samples=512)
        self._starts: list[float] = []

    def __enter__(self) -> "Span":
        self._starts.append(_wallclock.perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = _wallclock.perf_counter() - self._starts.pop()
        self.count += 1
        self.total_s += elapsed
        self._times.add(elapsed)
        if exc_type is not None:
            self.errors += 1
        return False  # never swallow exceptions

    @property
    def depth(self) -> int:
        """Current nesting depth (0 when not inside the span)."""
        return len(self._starts)

    def summary(self) -> dict[str, float]:
        """Count, error count, total seconds, and per-entry stats."""
        out = {"count": self.count, "errors": self.errors, "total_s": self.total_s}
        out.update({f"seconds_{k}": v for k, v in self._times.summary().items() if k != "count"})
        return out


# ----------------------------------------------------------------------
# Disabled-mode singletons
# ----------------------------------------------------------------------
class _NullCounter:
    __slots__ = ()

    def inc(self, by: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass

    def merge(self, other) -> "_NullHistogram":
        return self

    def summary(self) -> dict[str, float]:
        return {"count": 0}


class _NullSpan:
    __slots__ = ()
    count = 0
    errors = 0
    total_s = 0.0
    depth = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def summary(self) -> dict[str, float]:
        return {"count": 0, "errors": 0, "total_s": 0.0}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Probe samples (recorded by repro.obs.probes, stored here so one
# object owns the whole telemetry of a run)
# ----------------------------------------------------------------------
class ProbeSample:
    """One sim-time-stamped observation from a periodic probe."""

    __slots__ = ("t_sim", "name", "labels", "value")

    def __init__(self, t_sim: float, name: str, labels: LabelKey, value: float) -> None:
        self.t_sim = t_sim
        self.name = name
        self.labels = labels
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "t_sim": self.t_sim,
            "name": self.name,
            "labels": _labels_dict(self.labels),
            "value": self.value,
        }


class MetricsRegistry:
    """One run's worth of named, labeled instruments.

    Parameters
    ----------
    enabled:
        When False every accessor returns a shared no-op singleton and
        the registry records nothing — the whole layer costs a handful
        of attribute reads at setup time and nothing afterwards.
    max_probe_samples:
        Cap on retained probe samples; later samples are counted in
        ``probe_samples_dropped`` but not stored.
    """

    def __init__(self, enabled: bool = True, max_probe_samples: int = 4096) -> None:
        self.enabled = enabled
        self.max_probe_samples = max_probe_samples
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._spans: dict[tuple[str, LabelKey], Span] = {}
        self._probe_samples: list[ProbeSample] = []
        self.probe_samples_dropped = 0

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create; stable identity per key)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)`` (created on first use)."""
        if not self.enabled:
            return NULL_COUNTER
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def bind_counter(self, name: str, read: Callable[[], float], **labels: Any) -> None:
        """Publish a count its producer keeps as a plain field.

        The counter for ``(name, labels)`` (created here, so it takes
        this place in the snapshot order) calls ``read`` whenever its
        value is asked for; producers bound to one key add up.  A
        disabled registry ignores the binding.
        """
        if self.enabled:
            self.counter(name, **labels)._reads.append(read)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``."""
        if not self.enabled:
            return NULL_GAUGE
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, max_samples: int = 1024, **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``."""
        if not self.enabled:
            return NULL_HISTOGRAM
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], max_samples)
        return instrument

    def span(self, name: str, **labels: Any) -> Span:
        """The profiling span for ``(name, labels)``."""
        if not self.enabled:
            return NULL_SPAN
        key = (name, _label_key(labels))
        instrument = self._spans.get(key)
        if instrument is None:
            instrument = self._spans[key] = Span(name, key[1])
        return instrument

    # ------------------------------------------------------------------
    def handles_enabled(self) -> bool:
        """True when callers should create (and pay for) handles.

        The pattern for per-packet hot paths::

            self._m_infer = metrics.histogram(...) if metrics is not None \\
                and metrics.handles_enabled() else None
            ...
            if self._m_infer is not None:   # one branch per packet
                self._m_infer.observe(dt)
        """
        return self.enabled

    def merge_snapshot(self, snapshot: dict[str, Any], **labels: Any) -> None:
        """Fold another registry's :meth:`snapshot` (a PDES worker's) in,
        each counter and gauge under its own labels plus ``labels``.
        Histograms and spans arrive as summaries, which do not add up;
        they stay in the snapshot."""
        for entry in snapshot.get("counters", ()):
            merged = {**entry.get("labels", {}), **labels}
            self.counter(entry["name"], **merged).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            merged = {**entry.get("labels", {}), **labels}
            self.gauge(entry["name"], **merged).set(entry["value"])

    # ------------------------------------------------------------------
    # Probe sample stream
    # ------------------------------------------------------------------
    def record_probe(self, t_sim: float, name: str, value: float, **labels: Any) -> None:
        """Append one sim-time-stamped probe observation (bounded)."""
        if not self.enabled:
            return
        if len(self._probe_samples) >= self.max_probe_samples:
            self.probe_samples_dropped += 1
            return
        self._probe_samples.append(
            ProbeSample(t_sim, name, _label_key(labels), float(value))
        )

    @property
    def probe_samples(self) -> list[ProbeSample]:
        """Retained probe samples, in recording (event) order."""
        return list(self._probe_samples)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every instrument (embedded in manifests)."""
        if not self.enabled:
            return {"enabled": False}

        def entry(instrument, payload) -> dict[str, Any]:
            out: dict[str, Any] = {"name": instrument.name}
            if instrument.labels:
                out["labels"] = _labels_dict(instrument.labels)
            out.update(payload)
            return out

        return {
            "enabled": True,
            "counters": [
                entry(c, {"value": c.value}) for c in self._counters.values()
            ],
            "gauges": [entry(g, {"value": g.value}) for g in self._gauges.values()],
            "histograms": [
                entry(h, {"summary": h.summary()}) for h in self._histograms.values()
            ],
            "spans": [entry(s, {"summary": s.summary()}) for s in self._spans.values()],
            "probes": {
                "samples": [sample.to_dict() for sample in self._probe_samples],
                "dropped": self.probe_samples_dropped,
            },
        }

    def iter_jsonl_records(self) -> Iterator[dict[str, Any]]:
        """The JSONL export stream, one record dict at a time.

        Probe samples come first (they carry sim-time ordering); final
        instrument states follow.
        """
        for sample in self._probe_samples:
            yield {"type": "probe", **sample.to_dict()}
        snapshot = self.snapshot()
        for kind, singular in (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
            ("spans", "span"),
        ):
            for record in snapshot.get(kind, []):
                yield {"type": singular, **record}

    def write_jsonl(self, path: str | Path) -> int:
        """Write the full metrics stream as JSON Lines; returns rows.

        The first line is a ``meta`` header (enabled flag, dropped
        probe count) so consumers can sanity-check completeness.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = 0
        with path.open("w") as handle:
            header = {
                "type": "meta",
                "enabled": self.enabled,
                "probe_samples_dropped": self.probe_samples_dropped,
            }
            handle.write(json.dumps(header) + "\n")
            rows += 1
            for record in self.iter_jsonl_records():
                handle.write(json.dumps(record) + "\n")
                rows += 1
        return rows


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a metrics JSONL file back into record dicts."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
