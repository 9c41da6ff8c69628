"""The metric catalogue: every name the ledger reports, once.

``BENCHMARK.json`` is generated from this module (``python -m
benchmarks.ledger manifest``) and ``selftest`` fails when the two
disagree.  Later performance claims name ``{metric, workload}`` pairs
from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from benchmarks.ledger.tracer import LAYERS
from benchmarks.ledger.workloads import WORKLOADS

RUN_SECONDS = 8
COMMAND = ["python3", "benchmarks/ledger/bench.py"]
PATHS = ["benchmarks/ledger"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change is a regression; per-layer metrics have none.
    bound: Optional[float] = None


#: What a user of the simulator pays, per unit of simulated work.  Raw
#: wall-clock follows the traffic a seed happens to draw (±20% across
#: seeds on these scenarios), so the bounded metrics are per executed
#: event; the raw numbers are the ``run.*`` per-layer metrics.
END_TO_END = (
    Metric("event_us", "us", "lower", 0.25),
    Metric("cpu_event_us", "us", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Source 2 of the per-layer metrics: counters read off result objects.
#: ``adapter.summarize`` fills them; one a result does not expose stays 0.
COUNTERS = (
    Metric("des.events_executed", "count", "lower"),
    Metric("des.loop_s", "s", "lower"),
    Metric("des.us_per_event", "us", "lower"),
    Metric("traffic.flows_started", "count", "higher"),
    Metric("traffic.flows_completed", "count", "higher"),
    Metric("traffic.flows_elided", "count", "lower"),
    Metric("traffic.collective.chunks_completed", "count", "higher"),
    Metric("traffic.collective.rounds_completed", "count", "higher"),
    Metric("net.drops", "count", "lower"),
    Metric("net.failure_events", "count", "higher"),
    Metric("core.model_packets", "count", "lower"),
    Metric("core.model_drops", "count", "lower"),
    Metric("core.batcher.rounds", "count", "lower"),
    Metric("core.batcher.packets", "count", "higher"),
    Metric("core.batcher.flushes", "count", "lower"),
    Metric("core.batcher.scalar_fallbacks", "count", "lower"),
    Metric("nn.inference_s", "s", "lower"),
    Metric("nn.inference_share", "share", "lower"),
    Metric("nn.us_per_model_packet", "us", "lower"),
    Metric("nn.batch.memo_hit_rate", "share", "higher"),
    Metric("cascade.epochs", "count", "higher"),
    Metric("cascade.promotions", "count", "lower"),
    Metric("cascade.demotions", "count", "lower"),
    Metric("cascade.flows_diverted", "count", "higher"),
    Metric("cascade.packets_flowsim", "count", "higher"),
    Metric("cascade.packets_hybrid", "count", "higher"),
    Metric("cascade.packets_des", "count", "lower"),
    Metric("flowsim.flows_completed", "count", "higher"),
    Metric("flowsim.rate_recomputes", "count", "lower"),
    Metric("pdes.windows", "count", "lower"),
    Metric("pdes.exchanges", "count", "lower"),
    Metric("pdes.messages", "count", "lower"),
    Metric("pdes.cut_links", "count", "lower"),
    Metric("pdes.stall_s", "s", "lower"),
    Metric("pdes.max_worker_cpu_s", "s", "lower"),
    Metric("validate.invariant_violations", "count", "lower"),
)

#: Whole-run numbers of the traced run's untraced trial, and its
#: comparison with the reference runs on the same scenario and seed.
RUN = (
    Metric("run.wall_s", "s", "lower"),
    Metric("run.cpu_s", "s", "lower"),
    Metric("run.sim_us_per_s", "us/s", "higher"),
    Metric("vs_des.wall_ratio", "x", "lower"),
    Metric("pdes.loop_vs_hybrid", "x", "lower"),
    Metric("pdes.outcome_identical", "count", "higher"),
    Metric("pdes.vs_hybrid_fct_ks", "ks", "lower"),
    Metric("validate.fct_ks", "ks", "lower"),
    Metric("validate.rtt_ks", "ks", "lower"),
    Metric("validate.fct_n", "count", "higher"),
    Metric("validate.rtt_n", "count", "higher"),
)

#: Source 1: the traced trial.
TRACE = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.share", "share", "lower"),
        Metric(f"{layer}.calls", "count", "lower"),
    )
) + (
    Metric("trace.coverage", "share", "higher"),
    Metric("trace.overhead_ratio", "x", "lower"),
)

#: Source 3: micro-probes (``probes.py``).
PROBES = (
    Metric("des.noop_event_us", "us", "lower"),
    Metric("topology.build_clos32_s", "s", "lower"),
    Metric("topology.routing_build_clos32_s", "s", "lower"),
    Metric("nn.infer.f64_us", "us", "lower"),
    Metric("nn.infer.f32_us", "us", "lower"),
    Metric("nn.batch.f64_w64_us", "us", "lower"),
    Metric("nn.batch.f32_w64_us", "us", "lower"),
)

PER_LAYER = TRACE + COUNTERS + RUN + PROBES

#: Simulated statistics: with the same seed they repeat exactly, so two
#: ledger files of the same program must agree on every one of them.
EXACT = tuple(
    metric.name
    for metric in COUNTERS + RUN
    if metric.unit in ("count", "ks")
) + tuple(f"{layer}.calls" for layer in LAYERS)

#: Absolute slack of the fidelity metrics in ``compare``.
KS_SLACK = 0.02


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
