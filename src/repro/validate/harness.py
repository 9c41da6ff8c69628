"""The differential harness: one matched full/hybrid pair, scored.

:func:`run_differential_pair` executes the same seeded workload twice
— once at full packet fidelity with the target region's boundary
instrumented, once as a hybrid with that region approximated — and
reduces the two runs to a :class:`~repro.validate.fidelity.FidelityReport`.
The hybrid side runs with an
:class:`~repro.validate.invariants.InvariantChecker` attached to the
kernel and to every approximated cluster, so structural violations
surface in the same report as the statistical scores.

Both sides share ``config.seed``, the topology, and the workload
distributions; :class:`ValidateConfig`'s hybrid keeps remote traffic
by default so the hybrid carries the *identical* offered load (eliding
background flows is a speed feature, not a fidelity-neutral one).  All
scores are computed over simulated time from seeded inputs, so running
the same pair twice produces byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.core.hybrid import (
    HybridConfig,
    HybridSimulation,
    matched_load,
    nest_hybrid_options,
)
from repro.core.pipeline import (
    ExperimentConfig,
    FullRunOutput,
    RunResult,
    run_full_simulation,
)
from repro.core.training import TrainedClusterModel
from repro.core.world import build_world
from repro.topology.clos import build_clos
from repro.validate.fidelity import (
    FidelityReport,
    Outcome,
    compare_samples,
    macro_agreement,
    macro_timeline,
    rate_delta,
)
from repro.validate.invariants import InvariantChecker


@dataclass(frozen=True)
class ValidateConfig:
    """Options of a differential validation pair.

    Attributes
    ----------
    region_cluster:
        The cluster under comparison: its boundary is traced in the
        full run and approximated in the hybrid run.  Must differ from
        ``hybrid.full_cluster``.
    hybrid:
        The hybrid side.  Remote traffic is kept by default: the pair
        must carry identical offered workloads; the batching and memo
        options are how the fast path gets validated.  The region's
        own model is tapped, so ``single_black_box`` must be False.
    """

    region_cluster: int = 1
    hybrid: HybridConfig = field(default_factory=matched_load)

    def __post_init__(self) -> None:
        if self.region_cluster == self.hybrid.full_cluster:
            raise ValueError(
                "region_cluster must differ from full_cluster: the compared "
                f"region has to be approximated (both are {self.region_cluster})"
            )
        if self.hybrid.single_black_box:
            raise ValueError(
                "single_black_box must be False for validate: it taps the "
                "region_cluster's own model"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ValidateConfig":
        """Build from flat spec/CLI options (the
        :class:`HybridConfig` keys build ``hybrid``)."""
        return cls(**nest_hybrid_options(cls, raw))


@dataclass
class DifferentialResult:
    """Everything one matched pair produced.

    Attributes
    ----------
    report:
        The fidelity scores (this is what manifests embed).
    full, hybrid:
        Per-side :class:`~repro.core.pipeline.RunResult` measurements.
    checker:
        The hybrid run's invariant checker (already summarized into
        ``report.invariants``; kept for ``assert_clean`` in tests).
    hybrid_sim:
        The hybrid assembly (hot-path counters for manifests).
    """

    report: FidelityReport
    full: RunResult
    hybrid: RunResult
    checker: InvariantChecker
    hybrid_sim: HybridSimulation
    full_outcomes: list[Outcome] = field(default_factory=list)
    hybrid_outcomes: list[Outcome] = field(default_factory=list)


def run_differential_pair(
    config: ExperimentConfig,
    trained: TrainedClusterModel,
    validate: Optional[ValidateConfig] = None,
    metrics=None,
) -> DifferentialResult:
    """Run the matched pair and score the hybrid against ground truth."""
    vc = validate or ValidateConfig()
    topology = build_clos(config.clos)
    cluster_ids = topology.cluster_ids()
    if vc.region_cluster not in cluster_ids:
        raise ValueError(
            f"region_cluster={vc.region_cluster} not in topology clusters {cluster_ids}"
        )

    # ---- Side A: full fidelity, region boundary instrumented. --------
    full_output = run_full_simulation(
        config,
        collect_cluster=vc.region_cluster,
        observe_cluster=vc.hybrid.full_cluster,
        metrics=metrics,
    )
    records = full_output.records
    full_outcomes: list[Outcome] = [
        (record.outcome_time, record.latency_s, record.dropped)
        for record in records
        if record.outcome_time is not None
    ]

    # ---- Side B: hybrid, with the checker and the outcome tap
    # attached before any traffic flows. ------------------------------
    checker = InvariantChecker(metrics=metrics)
    world = build_world(
        config,
        trained,
        hybrid=vc.hybrid,
        metrics=metrics,
        invariants=checker,
        topology=topology,
    )
    hybrid_outcomes: list[Outcome] = []
    world.hybrid.models[vc.region_cluster].on_outcome = (
        lambda now, latency_s, dropped: hybrid_outcomes.append(
            (now, latency_s, dropped)
        )
    )
    world.run()
    hybrid_result = world.result()

    report = build_report(
        full_output,
        hybrid_result,
        full_outcomes=full_outcomes,
        hybrid_outcomes=hybrid_outcomes,
        trained=trained,
        duration_s=config.duration_s,
        checker=checker,
    )
    return DifferentialResult(
        report=report,
        full=full_output.result,
        hybrid=hybrid_result,
        checker=checker,
        hybrid_sim=world.hybrid,
        full_outcomes=full_outcomes,
        hybrid_outcomes=hybrid_outcomes,
    )


def build_report(
    full_output: FullRunOutput,
    hybrid_result: RunResult,
    full_outcomes: list[Outcome],
    hybrid_outcomes: list[Outcome],
    trained: TrainedClusterModel,
    duration_s: float,
    checker: InvariantChecker,
) -> FidelityReport:
    """Reduce a matched pair's raw streams to a fidelity report."""
    full_result = full_output.result
    full_latencies = [lat for _, lat, dropped in full_outcomes if not dropped]
    hybrid_latencies = [lat for _, lat, dropped in hybrid_outcomes if not dropped]

    def drop_rate(outcomes: list[Outcome]) -> float:
        if not outcomes:
            return 0.0
        return sum(1 for *_, dropped in outcomes if dropped) / len(outcomes)

    # Throughput over simulated (not wall-clock) time: deterministic,
    # and what the workload actually achieved.
    full_tput = full_result.flows_completed / duration_s
    hybrid_tput = hybrid_result.flows_completed / duration_s

    truth_timeline = macro_timeline(full_outcomes, trained.calibration, duration_s)
    hybrid_timeline = macro_timeline(hybrid_outcomes, trained.calibration, duration_s)
    return FidelityReport(
        fct=compare_samples(full_result.fcts, hybrid_result.fcts),
        latency=compare_samples(full_latencies, hybrid_latencies),
        drop_rate=rate_delta(drop_rate(full_outcomes), drop_rate(hybrid_outcomes)),
        throughput=rate_delta(full_tput, hybrid_tput),
        macro=macro_agreement(truth_timeline, hybrid_timeline),
        invariants=checker.summary(),
    )
