"""Runtime invariant checking for full and hybrid simulations.

The approximation can be wrong in two ways: *statistically* (its
distributions diverge from ground truth — measured by
:mod:`repro.validate.fidelity`) and *structurally* (it does something
no network could: delivers into the past, un-orders an egress link,
loses packets from its own accounting).  Structural violations are
bugs, not model error, so they are checked at runtime by an
:class:`InvariantChecker` cheap enough to leave on in tier-1 tests.

Four invariants are covered:

``causality``
    Nothing is scheduled in the past — neither through the kernel hook
    installed by :meth:`InvariantChecker.attach_simulator` nor by an
    :class:`~repro.core.cluster_model.ApproximatedCluster` delivery.
``conservation``
    Per watched region, ``handled == dropped + delivered``; a packet
    that crossed into the black box either died or came out.
``fcfs``
    Per egress node, model deliveries are monotone in time — the
    paper's conflict-resolution rule ("the one processed first is
    given priority") must never reorder a link.
``latency_bounds``
    Predicted region latencies stay within the physical floor and the
    extrapolation ceiling of :mod:`repro.core.cluster_model`.
``routability``
    No switch strands a packet without a live route — reachable once
    link failures partition the fabric; recorded via
    :meth:`InvariantChecker.watch_network` before the structured
    :class:`~repro.net.switch.UnroutablePacketError` propagates.

The checker follows the ``metrics`` contract: entities hold it as an
optional reference and pay one ``is not None`` branch per packet when
absent.  Violations are counted per invariant, the first
``max_recorded`` are kept with full detail, and — when a
:class:`~repro.obs.MetricsRegistry` is supplied — each one increments
a ``validate.invariant_violations`` counter labeled by invariant name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.cluster_model import MAX_REGION_LATENCY_S, MIN_REGION_LATENCY_S

#: The invariant names a checker can report (stable; used as labels).
INVARIANTS = ("causality", "conservation", "fcfs", "latency_bounds", "routability")


@dataclass(frozen=True)
class InvariantViolation:
    """One recorded violation.

    Attributes
    ----------
    invariant:
        One of :data:`INVARIANTS`.
    time:
        Simulated time at which the violation was detected.
    detail:
        Human-readable description with the offending values.
    trace:
        Trace id of the offending flow when the call site could
        attribute one (``None`` otherwise) — the hook that lets
        ``repro trace show`` jump from a violation to the flow.
    """

    invariant: str
    time: float
    detail: str
    trace: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (manifests, reports)."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "detail": self.detail,
            "trace": self.trace,
        }


class InvariantChecker:
    """Accumulates structural-invariant violations across a simulation.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; violations then
        increment ``validate.invariant_violations`` counters labeled
        by invariant name.
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`; every
        violation then also lands in the flight recorder as an
        ``invariant.violation`` event carrying the offending flow's
        trace id (when the call site supplied one).
    max_recorded:
        Detailed :class:`InvariantViolation` records kept (counts are
        always exact); bounded so a badly broken run cannot OOM the
        checker that is diagnosing it.

    Attributes
    ----------
    counts:
        invariant name -> exact violation count.
    violations:
        First ``max_recorded`` violations with full detail.
    """

    def __init__(self, metrics=None, max_recorded: int = 64, tracer=None) -> None:
        self.counts: dict[str, int] = {name: 0 for name in INVARIANTS}
        self.violations: list[InvariantViolation] = []
        self.max_recorded = max_recorded
        self._clusters: list[Any] = []
        self._fcfs_last: dict[tuple[str, str], float] = {}
        self._handles: dict[str, Any] = {}
        self._metrics = (
            metrics if metrics is not None and metrics.handles_enabled() else None
        )
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, invariant: str, time: float, detail: str, trace: Optional[str] = None
    ) -> None:
        """Count one violation (and keep its detail if under the cap)."""
        if invariant not in self.counts:
            raise ValueError(
                f"unknown invariant {invariant!r}; expected one of {INVARIANTS}"
            )
        self.counts[invariant] += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(InvariantViolation(invariant, time, detail, trace))
        if self._metrics is not None:
            handle = self._handles.get(invariant)
            if handle is None:
                handle = self._handles[invariant] = self._metrics.counter(
                    "validate.invariant_violations", invariant=invariant
                )
            handle.inc()
        if self._tracer is not None:
            self._tracer.event(
                "invariant.violation",
                trace=trace,
                t=time,
                invariant=invariant,
                detail=detail,
            )

    @property
    def total(self) -> int:
        """Total violations across all invariants."""
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Attachment points
    # ------------------------------------------------------------------
    def attach_simulator(self, sim) -> "InvariantChecker":
        """Observe every scheduling call on ``sim`` for causality.

        Installs the kernel's ``on_scheduling_error`` hook, so a
        past-scheduling attempt is *recorded* before the kernel raises
        its :class:`~repro.des.errors.SchedulingError` — the checker
        sees the violation even when an outer ``except`` swallows the
        error.  Returns ``self`` for chaining.
        """
        sim.on_scheduling_error = lambda message: self.record(
            "causality", sim.now, message
        )
        return self

    def watch_cluster(self, cluster) -> None:
        """Register an approximated cluster for conservation checking.

        :class:`~repro.core.cluster_model.ApproximatedCluster` calls
        this from its constructor when handed a checker.
        """
        self._clusters.append(cluster)

    def watch_network(self, network) -> None:
        """Record a routability violation for every unroutable packet.

        Installs an ``on_unroutable`` hook on each switch so that a
        stranded packet is counted before the structured
        :class:`~repro.net.switch.UnroutablePacketError` propagates —
        the failed manifest then shows both the error and the
        violation.
        """

        def on_unroutable(error, packet) -> None:
            self.record(
                "routability",
                error.time,
                f"{error.switch}: {error.src}->{error.dst} under "
                f"{error.policy!r}: {error.reason}",
            )

        for switch in network.switches.values():
            switch.on_unroutable = on_unroutable

    # ------------------------------------------------------------------
    # Hot-path checks (called per packet by ApproximatedCluster)
    # ------------------------------------------------------------------
    def check_latency(
        self,
        cluster: str,
        now: float,
        latency_s: float,
        trace: Optional[str] = None,
    ) -> None:
        """Predicted latency must respect the model's physical bounds."""
        if not MIN_REGION_LATENCY_S <= latency_s <= MAX_REGION_LATENCY_S:
            self.record(
                "latency_bounds",
                now,
                f"{cluster}: predicted latency {latency_s!r}s outside "
                f"[{MIN_REGION_LATENCY_S}, {MAX_REGION_LATENCY_S}]",
                trace=trace,
            )

    def check_delivery(
        self,
        cluster: str,
        target: str,
        now: float,
        deliver_at: float,
        trace: Optional[str] = None,
    ) -> None:
        """A delivery must be causal and FCFS-monotone per egress node."""
        if deliver_at < now:
            self.record(
                "causality",
                now,
                f"{cluster}: delivery to {target} at {deliver_at!r} < now={now!r}",
                trace=trace,
            )
        key = (cluster, target)
        last = self._fcfs_last.get(key)
        if last is not None and deliver_at < last:
            self.record(
                "fcfs",
                now,
                f"{cluster}: delivery to {target} at {deliver_at!r} precedes "
                f"earlier delivery at {last!r}",
                trace=trace,
            )
        self._fcfs_last[key] = deliver_at

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def check_conservation(self, now: float = 0.0) -> None:
        """Packets in == packets dropped + packets delivered, per region.

        Call after ``sim.run`` returns: deliveries scheduled but not
        yet executed still count as delivered (the decision is made at
        ``receive`` time), so the identity must hold exactly.
        """
        for cluster in self._clusters:
            accounted = cluster.packets_dropped + cluster.packets_delivered
            if cluster.packets_handled != accounted:
                self.record(
                    "conservation",
                    now,
                    f"{cluster.name}: handled={cluster.packets_handled} != "
                    f"dropped={cluster.packets_dropped} + "
                    f"delivered={cluster.packets_delivered}",
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable checker state (embedded in fidelity reports)."""
        return {
            "total": self.total,
            "counts": dict(self.counts),
            "violations": [v.to_dict() for v in self.violations],
        }

    def assert_clean(self) -> None:
        """Raise :class:`AssertionError` if any invariant was violated."""
        if self.total:
            lines = [f"{self.total} invariant violation(s):"]
            lines.extend(
                f"  [{v.invariant}] t={v.time:.6f}: {v.detail}"
                for v in self.violations
            )
            if self.total > len(self.violations):
                lines.append(f"  ... and {self.total - len(self.violations)} more")
            raise AssertionError("\n".join(lines))
