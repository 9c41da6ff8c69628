"""Sim-time probes: periodic samplers driven by the DES kernel itself.

Wall-clock spans answer "where does the *time* go"; probes answer
"where does the *approximation* go" — they sample simulation state
(queue depths, macro regimes, per-cluster drop rates and latency) on a
configurable *simulated*-time period, so the samples line up with the
event timeline rather than with the host's scheduler.  That is exactly
the view the paper's fidelity argument needs (Section 3.3's macro-state
regimes and drop/latency accuracy are all functions of simulated time).

A probe tick is an ordinary kernel event: samples are emitted in event
order, interleaved deterministically with the traffic they observe, and
a probe never draws from any random stream — adding one cannot perturb
a seeded run's packet schedule (the same invariant ``StreamingStats``
keeps for the hot path).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.registry import MetricsRegistry

#: Default number of probe ticks across a run when no period is given.
DEFAULT_TICKS = 50


class SimTimeProbes:
    """A set of named samplers fired on a fixed simulated-time period.

    Parameters
    ----------
    registry:
        Destination for samples (each also feeds a ``probe.<name>``
        histogram, so manifests get distribution summaries even when
        the bounded raw-sample stream overflows).
    sim:
        The simulator whose clock drives the ticks.
    period_s:
        Simulated seconds between ticks.

    Samplers are zero-argument callables returning a float; register
    them with :meth:`add` before :meth:`start`.  Ticks self-reschedule
    until :meth:`stop` (or until the simulator runs dry).
    """

    def __init__(
        self, registry: MetricsRegistry, sim, period_s: float
    ) -> None:
        if period_s <= 0:
            raise ValueError(f"probe period_s must be positive, got {period_s}")
        self.registry = registry
        self.sim = sim
        self.period_s = period_s
        self.ticks = 0
        self._samplers: list[tuple[str, Callable[[], float], dict[str, Any]]] = []
        self._event = None
        self._stopped = False
        #: Optional zero-argument callable invoked at the top of every
        #: tick, *before* any sampler runs.  The hybrid probe set uses
        #: it to flush held inference batches so samplers never read
        #: model state that excludes packets already inside the
        #: batching window.
        self.before_tick: Optional[Callable[[], None]] = None

    def add(self, name: str, fn: Callable[[], float], **labels: Any) -> "SimTimeProbes":
        """Register one sampler under ``probe.<name>`` (chainable)."""
        self._samplers.append((name, fn, labels))
        return self

    # ------------------------------------------------------------------
    def start(self) -> "SimTimeProbes":
        """Schedule the first tick one period from now."""
        if self.registry.enabled and self._samplers:
            self._event = self.sim.schedule(self.period_s, self._tick)
        return self

    def stop(self) -> None:
        """Cancel future ticks (already-recorded samples are kept)."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)  # no-op once the tick has run
        self._event = None

    def _tick(self) -> None:
        if self.before_tick is not None:
            self.before_tick()
        now = self.sim.now
        self.ticks += 1
        registry = self.registry
        for name, fn, labels in self._samplers:
            value = float(fn())
            registry.record_probe(now, name, value, **labels)
            registry.histogram(f"probe.{name}", **labels).observe(value)
        if not self._stopped:
            self._event = self.sim.schedule(self.period_s, self._tick)


# ----------------------------------------------------------------------
# Standard probe sets
# ----------------------------------------------------------------------
def default_period(duration_s: float, ticks: int = DEFAULT_TICKS) -> float:
    """A probe period giving ~``ticks`` samples over ``duration_s``."""
    return max(duration_s / ticks, 1e-9)


def attach_network_probes(
    registry: MetricsRegistry,
    sim,
    network,
    period_s: float,
) -> Optional[SimTimeProbes]:
    """Queue-depth probes for any (full or hybrid) network.

    Samples total queued bytes across all ports plus the single
    deepest port — the congestion picture at simulated-time
    resolution.  Returns the started probe set (None when disabled).
    """
    if not registry.enabled:
        return None
    ports = list(network.ports().values())
    probes = SimTimeProbes(registry, sim, period_s)
    probes.add("queue_depth_bytes", network.total_queued_bytes)
    probes.add(
        "queue_depth_max_bytes",
        lambda: max((port.queued_bytes for port in ports), default=0),
    )
    return probes.start()


def attach_hybrid_probes(
    registry: MetricsRegistry,
    sim,
    hybrid_sim,
    period_s: float,
) -> Optional[SimTimeProbes]:
    """The hybrid observability set: queues + per-cluster model health.

    Per approximated cluster, samples the macro state, the cumulative
    drop rate of model decisions, and the mean predicted region
    latency — the quantities a fidelity postmortem localizes error
    with (which cluster, which regime, drops or latency).
    """
    probes = attach_network_probes(registry, sim, hybrid_sim.network, period_s)
    if probes is None:
        return None
    # With event-horizon batching on, packets can be held when a tick
    # fires; flush first so the sampled counters/macro states include
    # everything that arrived before the tick (flushing early is always
    # causally safe — see repro.core.batcher).
    probes.before_tick = hybrid_sim.flush_inference
    for cluster, model in hybrid_sim.models.items():
        labels = {"cluster": cluster}
        probes.add("macro_state", lambda m=model: m.macro.state.value, **labels)
        probes.add(
            "model_drop_rate",
            lambda m=model: (m.packets_dropped / m.packets_handled)
            if m.packets_handled
            else 0.0,
            **labels,
        )
        probes.add(
            "model_latency_mean_s",
            lambda m=model: m.latency_stats.mean if m.latency_stats.count else 0.0,
            **labels,
        )
    return probes.start()


def attach_cascade_probes(
    registry: MetricsRegistry,
    sim,
    cascade_sim,
    period_s: float,
) -> Optional[SimTimeProbes]:
    """The cascade observability set: hybrid probes + controller state.

    On top of the hybrid set (queues, per-cluster model health),
    samples every region's current tier (as its
    :class:`~repro.cascade.config.Tier` value, so a promotion shows as
    a 1 -> 2 step in the probe stream), the fluid tier's active-flow
    count, and the reference window's sample depth — the inputs a
    controller postmortem needs lined up against the decisions it
    took.
    """
    if not registry.enabled:
        return None
    probes = attach_hybrid_probes(registry, sim, cascade_sim.hybrid, period_s)
    if probes is None:
        return None
    # Deliberately NOT advancing the fluid clock here: step_to would
    # change the float chunking of fluid progress (sub-ULP drift in
    # remaining bytes), making the decision log depend on whether
    # probes are attached.  Fluid samplers read state as of the last
    # epoch boundary/admission instead — observation stays strictly
    # non-perturbing, byte-for-byte.
    for region in cascade_sim.regions:
        probes.add(
            "cascade_tier",
            lambda r=region: float(cascade_sim.controller.tiers[r].value),
            cluster=region,
        )
    probes.add("cascade_fluid_active_flows", lambda: float(cascade_sim.fluid.active_flows))
    probes.add(
        "cascade_reference_fct_samples",
        lambda: float(len(cascade_sim.reference.fct)),
    )
    return probes
