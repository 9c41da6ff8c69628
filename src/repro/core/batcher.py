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
GEMV chains.  Only rounds of at least
:data:`~repro.nn.batch.STACKED_MIN_WIDTH` packets stack; a narrower
round is each packet's lane step, the inline path's arithmetic.

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
  batch;
* a link failure or recovery first decides the held packets
  (:meth:`drain`), because deciding a packet reads routing (its flow's
  path features and egress node), which must be as of its arrival.

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
        inference round then records a ``batch.round`` event
        with its lane count and the memoization hit/miss delta of the
        engine that served it (the per-flush view of cache health).

    Attributes
    ----------
    batched_packets, batched_rounds, flushes, scalar_fallbacks:
        Plain counters (mirrored to obs when a registry is given).
        A round is one engine's packets of one flush round.
        ``scalar_fallbacks`` counts the rounds that ran as lane steps
        (each lane's own scalar engine) instead of a stacked product:
        every round narrower than the engine's ``stacked_from``
        (:data:`~repro.nn.batch.STACKED_MIN_WIDTH`), so every float64
        round too.
    """

    def __init__(self, sim, window_s: float, metrics=None, tracer=None) -> None:
        from repro.core.cluster_model import MIN_REGION_LATENCY_S

        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.sim = sim
        self._tracer = tracer
        self.window_s = min(window_s, MIN_REGION_LATENCY_S)
        #: (cluster, deque of (arrival, packet)); registration order ==
        #: round order.
        self._queues: list = []
        self._lanes: dict = {}  # cluster name -> its deque
        self._flush_event = None
        self._flush = self.flush  # prebound for schedule_at
        self.batched_packets = 0
        self.batched_rounds = 0
        self.flushes = 0
        self.scalar_fallbacks = 0
        #: Engine -> its (memo_hits, memo_misses) after its last round.
        self._memo_seen: dict = {}
        self._m_batch_size = None
        if metrics is not None and metrics.handles_enabled():
            self._m_batch_size = metrics.histogram("hybrid.batch_size")
            metrics.bind_counter(
                "hybrid.scalar_fallbacks", lambda: self.scalar_fallbacks
            )
            metrics.bind_counter("hybrid.batch_flushes", lambda: self.flushes)

    # ------------------------------------------------------------------
    def register(self, cluster) -> None:
        """Add a cluster to the round rotation (registration order is
        the deterministic round order)."""
        queue = self._lanes[cluster.name] = deque()
        self._queues.append((cluster, queue))

    # ------------------------------------------------------------------
    def enqueue(self, cluster, packet) -> None:
        """Hold one packet; arm the window flush on the first one."""
        self._lanes[cluster.name].append((self.sim.now, packet))
        if self._flush_event is None:
            self._flush_event = self.sim.schedule(
                self.window_s, self._flush, priority=FLUSH_PRIORITY
            )

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Run all held packets through inference rounds.

        Safe to call at any time (early flushes only shrink batches);
        called by the armed window event, by observability probes
        before they read model state, and at end of run.
        """
        if self._flush_event is not None:
            # A no-op when the flush is that event running.
            self.sim.cancel(self._flush_event)
            self._flush_event = None
        self.drain()

    def drain(self) -> None:
        """Decide every held packet now, leaving the window's flush
        event armed: it then flushes what arrives after, so the kernel
        runs the same events as without the drain.  Called before a
        link failure or recovery changes routing, which held packets
        read (path features, egress) when they are decided."""
        lanes = [entry for entry in self._queues if entry[1]]
        if not lanes:
            return
        self.flushes += 1
        tracer = self._tracer
        while lanes:
            # One round: the oldest held packet of every cluster, in
            # registration order.  A cluster whose engines cannot stack
            # (below the crossover, or float64) decides its packet on
            # the spot; the others wait for the whole round, so their
            # engine knows the round's width.
            widths: dict = {}  # engine -> packets this round
            groups: dict = {}  # stacking engine -> (macros, rows, jobs)
            for cluster, queue in lanes:
                arrival, packet = queue.popleft()
                if not cluster.batch_stacks:
                    engine = cluster.decide(packet, arrival)
                else:
                    engine, row, macro_index, bundle, flow = cluster.batch_prepare(
                        packet, arrival
                    )
                    job = (cluster, packet, arrival, bundle, flow)
                    group = groups.get(engine)
                    if group is None:
                        groups[engine] = ([macro_index], [row], [job])
                    else:
                        group[0].append(macro_index)
                        group[1].append(row)
                        group[2].append(job)
                widths[engine] = widths.get(engine, 0) + 1
            for engine, (macros, rows, jobs) in groups.items():
                start = perf_counter()
                outcomes = engine.step_rows(macros, rows)
                share = (perf_counter() - start) / len(rows)
                for (cluster, packet, arrival, bundle, flow), (drop, latency) in zip(
                    jobs, outcomes
                ):
                    cluster.batch_finalize(
                        packet, arrival, bundle, flow, drop, latency, share
                    )
            self.batched_rounds += len(widths)
            for engine, width in widths.items():
                self.batched_packets += width
                if width < engine.stacked_from:
                    self.scalar_fallbacks += 1
                if self._m_batch_size is not None:
                    self._m_batch_size.observe(float(width))
                if tracer is not None:
                    # Engines step only in rounds, so the counters an
                    # engine left at its last round are where this one
                    # started.
                    hits, misses = self._memo_seen.get(engine, (0, 0))
                    self._memo_seen[engine] = (engine.memo_hits, engine.memo_misses)
                    tracer.event(
                        "batch.round",
                        size=width,
                        memo_hits=engine.memo_hits - hits,
                        memo_misses=engine.memo_misses - misses,
                    )
            lanes = [entry for entry in lanes if entry[1]]
