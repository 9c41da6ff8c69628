"""The discrete event simulation kernel.

The kernel is intentionally small: a binary heap of events keyed by
``(time, priority, sequence)`` and a run loop.  The sequence number makes
event ordering *total* and therefore deterministic: two events scheduled
for the same instant with the same priority execute in the order they
were scheduled, on every run, on every platform.

Each event is one mutable heap entry ``[time, priority, seq, fn, args]``
and is its own handle: :meth:`Simulator.cancel` blanks its ``fn`` and
the run loop skips blank entries when they surface; the loop blanks an
entry's ``fn`` as it runs it, so ``entry[3] is None`` reads "no longer
pending" (executed or cancelled).  The unique seq means the heap never
compares past it — and that pop order does not depend on the heap's
layout, so once blank entries outnumber live ones :meth:`cancel` drops
them and re-heapifies in place without changing what runs when.

A PDES worker needs one more thing: a packet from another worker is
scheduled at a window barrier, so its seq is later than the one it had
in one process, and a tie it meets runs in another order.
:meth:`Simulator.order_ties_by_cause` makes the seq slot
``(cause, seq)``, where an event's *cause* is ``(time, priority,
cause)`` of the event that scheduled it (``()`` for one scheduled
before the run), so ties compare their parents, then grandparents, and
so on.  In one process this order *is* the seq order (an event scheduled
earlier was scheduled by an event that ran earlier), so it changes
nothing there — provided no event schedules one for its own instant at
a lower priority value than its own, which would run after its parent
yet sort before it.  A message carries a detached copy of its cause
(:meth:`Simulator.running_cause`), so across workers the one-process
order holds wherever two tied events' ancestries differ within the
generations it carries.

Determinism matters for this reproduction in two ways.  First, the
paper's training pipeline (Section 4) records packet traces from a full
simulation and replays the same workload against the hybrid simulator;
without a deterministic kernel the "same workload" would not be the same.
Second, the event *count* is itself a measured quantity (our ablation A1
counts the events elided by approximation), so the kernel keeps exact
accounting of scheduled, executed, and cancelled events.
"""

from __future__ import annotations

import math
import time as _wallclock
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from repro.des.errors import SchedulingError, SimulationError
from repro.des.rng import RandomStreams

#: Default priority for events; lower values execute first at equal times.
DEFAULT_PRIORITY = 0

#: Cancelled entries tolerated in the heap before :meth:`Simulator.cancel`
#: considers compacting it (it does once they are also over half of it).
COMPACT_FLOOR = 64

_INF = math.inf


def _detach(cause: tuple, generations: int) -> tuple:
    """``cause`` cut to its first ``generations`` levels."""
    if not cause or generations == 0:
        return ()
    return (cause[0], cause[1], _detach(cause[2], generations - 1))


class Simulator:
    """The DES event loop.

    Parameters
    ----------
    seed:
        Master seed for the simulator's named random streams.  Every
        stochastic component draws from ``sim.rng.stream(name)`` so that
        adding a new source of randomness never perturbs existing ones.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "tick")
    >>> sim.run()
    >>> fired, sim.now
    (['tick'], 2.5)
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = RandomStreams(seed)
        self._heap: list[list] = []
        self._dead = 0  # cancelled entries still in the heap
        # Tie order by cause (order_ties_by_cause): the cause events
        # scheduled now receive; None when off.
        self._cause: Optional[tuple] = None
        self._running = False
        self._stopped = False
        # Event accounting (used by ablation A1 and the Figure 5 bench).
        # ``events_scheduled`` doubles as the next entry's sequence number.
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        self.wallclock_elapsed: float = 0.0
        #: Optional observability registry (``repro.obs``).  When set,
        #: each :meth:`run` is timed under a ``des.run`` span and event
        #: totals are published as gauges on exit.  Duck-typed (any
        #: object with ``span``/``gauge``) so the kernel stays free of
        #: upward imports; ``None`` costs one branch per run, not per
        #: event.
        self.metrics = None
        #: Optional hook ``(message) -> None`` called right before a
        #: :class:`SchedulingError` is raised — the invariant checker
        #: records causality violations through it even when an outer
        #: ``except`` swallows the error.
        self.on_scheduling_error: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., None], *args, priority: int = DEFAULT_PRIORITY
    ) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the heap entry, which is the event's cancellation handle.

        Raises
        ------
        SchedulingError
            If ``delay`` is negative or not finite.
        """
        if not 0.0 <= delay < _INF:
            self._reject(
                f"event delay must be finite, got {delay!r}"
                if not math.isfinite(delay)
                else f"cannot schedule into the past (delay={delay!r})"
            )
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        cause = self._cause
        key = seq if cause is None else (cause, seq)
        entry = [self.now + delay, priority, key, fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args,
        priority: int = DEFAULT_PRIORITY,
        cause: Optional[tuple] = None,
    ) -> list:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``.

        ``cause`` overrides the cause the event would get from the
        running one (a PDES message's, see :meth:`running_cause`).
        """
        if not self.now <= time < _INF:
            self._reject(
                f"event time must be finite, got {time!r}"
                if not math.isfinite(time)
                else f"cannot schedule into the past (time={time!r} < now={self.now!r})"
            )
        seq = self.events_scheduled
        self.events_scheduled = seq + 1
        if cause is None:
            cause = self._cause
        entry = [time, priority, seq if cause is None else (cause, seq), fn, args]
        heappush(self._heap, entry)
        return entry

    def _reject(self, message: str) -> None:
        if self.on_scheduling_error is not None:
            self.on_scheduling_error(message)
        raise SchedulingError(message)

    def order_ties_by_cause(self) -> None:
        """Order same-time, same-priority events by their causes, then
        by seq (module docstring).  Pending events become roots, which
        precede every event scheduled by a running one."""
        for entry in self._heap:
            entry[2] = ((), entry[2])
        heapify(self._heap)
        self._cause = ()

    def running_cause(self, generations: int) -> Optional[tuple]:
        """A picklable copy of the running event's cause, ``generations``
        deep (``None`` unless ties are ordered by cause).

        What a PDES message sent from a zero-delay hop carries: its
        delivery then ties as the hop's own event would have.
        """
        if self._cause is None:
            return None
        return _detach(self._cause[2] if self._cause else (), generations)

    def cancel(self, entry: list) -> None:
        """Cancel a pending event (no-op if already executed or cancelled)."""
        if entry[3] is not None:
            entry[3] = None
            self.events_cancelled += 1
            self._dead += 1
            heap = self._heap
            if self._dead > COMPACT_FLOOR and 2 * self._dead > len(heap):
                # In place, so run()'s local alias stays the heap.
                heap[:] = [live for live in heap if live[3] is not None]
                heapify(heap)
                self._dead = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            ``sim.now`` is advanced to ``until`` when the horizon is hit.
        max_events:
            Execute at most this many events (safety valve for tests).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until != until:
            # Every ``time > nan`` is False: the horizon would never hit.
            raise ValueError("Simulator.run(until=nan): the horizon must be a number")
        self._running = True
        self._stopped = False
        started = _wallclock.perf_counter()
        heap = self._heap
        pop = heappop
        horizon = _INF if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        by_cause = self._cause is not None
        executed = 0
        span = self.metrics.span("des.run") if self.metrics is not None else None
        if span is not None:
            span.__enter__()
        try:
            while heap and executed != budget:
                entry = pop(heap)
                fn = entry[3]
                if fn is None:
                    self._dead -= 1
                    continue  # cancelled
                time = entry[0]
                if time > horizon:
                    heappush(heap, entry)
                    self.now = until
                    break
                entry[3] = None
                self.now = time
                executed += 1
                if by_cause:
                    self._cause = (time, entry[1], entry[2][0])
                fn(*entry[4])
                if self._stopped:
                    break
            if until is not None and not self._stopped:
                while heap and heap[0][3] is None:
                    pop(heap)
                    self._dead -= 1
                if not heap:
                    # Ran dry before the horizon: advance to it anyway, so
                    # that rate computations (bytes / elapsed) use the
                    # full window.
                    self.now = max(self.now, until)
        finally:
            self.events_executed += executed
            self.wallclock_elapsed += _wallclock.perf_counter() - started
            self._running = False
            if span is not None:
                span.__exit__(None, None, None)
                metrics = self.metrics
                metrics.counter("des.events_executed_in_runs").inc(executed)
                metrics.gauge("des.events_executed").set(self.events_executed)
                metrics.gauge("des.events_scheduled").set(self.events_scheduled)
                metrics.gauge("des.events_cancelled").set(self.events_cancelled)
                metrics.gauge("des.sim_time_s").set(self.now)

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of entries currently in the heap (including cancelled
        ones not yet popped or compacted away)."""
        return len(self._heap)

    def sim_seconds_per_second(self) -> float:
        """Simulated seconds processed per wall-clock second so far.

        This is exactly the y-axis of the paper's Figure 1.
        """
        if self.wallclock_elapsed <= 0:
            return float("inf") if self.now > 0 else 0.0
        return self.now / self.wallclock_elapsed
