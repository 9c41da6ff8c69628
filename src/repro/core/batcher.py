"""Event-horizon inference batching across approximated clusters.

The hybrid hot path spends its time in micro-model steps, one GEMV
chain per packet (see ``BENCH_hotpath.json``).  Packets arriving at
*different* approximated clusters are causally independent until their
deliveries re-enter the shared network, and a delivery can never land
earlier than ``MIN_REGION_LATENCY_S`` after its packet's arrival —
which opens a window: hold packets arriving anywhere in the black-box
layer for up to that long, then advance every cluster's recurrent
state together with one stacked GEMM per layer
(:class:`~repro.nn.batch.BatchedFusedEngine`) instead of per-packet
GEMV chains.

Causality is preserved by construction:

* the effective window is ``min(window_s, MIN_REGION_LATENCY_S)``, so
  the flush event at ``t0 + W`` (``t0`` = first enqueue) fires at or
  before the earliest time any held packet's delivery could occur —
  nothing is ever scheduled into the past, and no event that could
  *observe* a held packet's outcome runs before the flush;
* the flush event carries :data:`FLUSH_PRIORITY` (< the kernel
  default), so at an equal timestamp the flush executes first;
* any code that reads model state mid-run (observability probes, the
  conservation check, end-of-run accounting) calls :meth:`flush`
  explicitly — flushing early is always safe, it only shrinks the
  batch.

Event-identity with the unbatched path (float64) holds because within
a cluster packets are processed strictly in arrival order — feature
extraction, macro observation, the drop Bernoulli, and conflict
resolution all happen per cluster in the same sequence with the same
(arrival-time) clock — while *across* clusters every per-packet state
is disjoint, so interleaving is value-free.  Each flush therefore runs
in FIFO *rounds*: round ``r`` takes the ``r``-th held packet of every
cluster, and a packet's features are extracted only after its
predecessor in the same cluster has been finalized.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

#: Scheduling priority of the flush event — below the kernel default
#: (0), so a flush at time ``t`` runs before any same-time deliveries
#: or arrivals could observe model state.
FLUSH_PRIORITY = -1


class InferenceBatcher:
    """Shared packet-holding area for all approximated clusters.

    Parameters
    ----------
    sim:
        The simulator (flush events are scheduled on it).
    window_s:
        Requested batching window; clamped to
        ``MIN_REGION_LATENCY_S`` (holding longer could not be causal).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; resolves the
        ``hybrid.batch_size`` histogram and the
        ``hybrid.scalar_fallbacks`` / ``hybrid.batch_flushes``
        counters once, here.
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`; each
        stacked inference round then records a ``batch.round`` event
        with its lane count and the memoization hit/miss delta of the
        engine that served it (the per-flush view of cache health).

    Attributes
    ----------
    batched_packets, batched_rounds, flushes, scalar_fallbacks:
        Plain counters (mirrored to obs when a registry is given).
        ``scalar_fallbacks`` counts engine calls that degenerated to a
        single lane — the causality fallback path.
    """

    def __init__(self, sim, window_s: float, metrics=None, tracer=None) -> None:
        from repro.core.cluster_model import MIN_REGION_LATENCY_S

        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.sim = sim
        self._tracer = tracer
        self.window_s = min(window_s, MIN_REGION_LATENCY_S)
        self._clusters: list = []  # registration order == round order
        self._lanes: dict = {}  # cluster name -> deque of (seq, arrival, packet)
        self._seq = 0
        self._flush_event = None
        self._flush = self.flush  # prebound for schedule_at
        self.batched_packets = 0
        self.batched_rounds = 0
        self.flushes = 0
        self.scalar_fallbacks = 0
        self._m_batch_size = None
        self._m_fallbacks = None
        self._m_flushes = None
        if metrics is not None and metrics.handles_enabled():
            self._m_batch_size = metrics.histogram("hybrid.batch_size")
            self._m_fallbacks = metrics.counter("hybrid.scalar_fallbacks")
            self._m_flushes = metrics.counter("hybrid.batch_flushes")

    # ------------------------------------------------------------------
    def register(self, cluster) -> None:
        """Add a cluster to the round rotation (registration order is
        the deterministic round order)."""
        self._clusters.append(cluster)
        self._lanes[cluster.name] = deque()

    # ------------------------------------------------------------------
    def enqueue(self, cluster, packet) -> None:
        """Hold one packet; arm the window flush on the first one."""
        self._lanes[cluster.name].append((self._seq, self.sim.now, packet))
        self._seq += 1
        if self._flush_event is None:
            self._flush_event = self.sim.schedule(
                self.window_s, self._flush, priority=FLUSH_PRIORITY
            )

    @property
    def pending(self) -> int:
        """Held packets not yet flushed."""
        return sum(len(lane) for lane in self._lanes.values())

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Run all held packets through stacked inference rounds.

        Safe to call at any time (early flushes only shrink batches);
        called by the armed window event, by observability probes
        before they read model state, and at end of run.
        """
        if self._flush_event is not None:
            # A no-op when the flush is that event running.
            self.sim.cancel(self._flush_event)
            self._flush_event = None
        lanes = [
            (cluster, self._lanes[cluster.name])
            for cluster in self._clusters
            if self._lanes[cluster.name]
        ]
        if not lanes:
            return
        self.flushes += 1
        if self._m_flushes is not None:
            self._m_flushes.inc()
        while lanes:
            # One round: the oldest held packet of every cluster.  The
            # per-engine groups preserve enqueue (seq) order because
            # clusters are iterated in registration order and a round
            # holds at most one packet per cluster.
            jobs = []
            for cluster, lane in lanes:
                seq, arrival, packet = lane.popleft()
                direction, bundle, features, macro_index, engine, row = (
                    cluster.batch_prepare(packet, arrival)
                )
                jobs.append(
                    (seq, arrival, packet, cluster, direction, bundle,
                     features, macro_index, engine, row)
                )
            groups: dict = {}
            for job in jobs:
                groups.setdefault(id(job[8]), []).append(job)
            for group in groups.values():
                engine = group[0][8]
                hits_before = misses_before = 0
                if self._tracer is not None:
                    hits_before = getattr(engine, "memo_hits", 0)
                    misses_before = getattr(engine, "memo_misses", 0)
                start = perf_counter()
                outcomes = engine.predict_rows(
                    [job[6] for job in group],
                    [job[7] for job in group],
                    [job[9] for job in group],
                )
                share = (perf_counter() - start) / len(group)
                self.batched_rounds += 1
                self.batched_packets += len(group)
                if len(group) == 1:
                    self.scalar_fallbacks += 1
                    if self._m_fallbacks is not None:
                        self._m_fallbacks.inc()
                if self._m_batch_size is not None:
                    self._m_batch_size.observe(float(len(group)))
                if self._tracer is not None:
                    self._tracer.event(
                        "batch.round",
                        size=len(group),
                        memo_hits=getattr(engine, "memo_hits", 0) - hits_before,
                        memo_misses=getattr(engine, "memo_misses", 0)
                        - misses_before,
                    )
                for job, outcome in zip(group, outcomes):
                    job[3].add_inference_time(share)
                    job[3].batch_finalize(
                        job[2], job[1], job[4], job[5], outcome[0], outcome[1]
                    )
            lanes = [(cluster, lane) for cluster, lane in lanes if lane]
