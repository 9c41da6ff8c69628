"""Determinism of the AI-factory scenarios.

The new degrees of freedom — routing policies, link-failure schedules,
collective workloads — must not cost determinism: same-seed runs are
byte-identical (``RunResult.determinism_signature``) across reruns and
with observability (metrics, tracing) on vs. off.
"""

from __future__ import annotations

from repro.core.cluster_model import ApproximatedCluster
from repro.core.pipeline import (
    ExperimentConfig,
    run_full_simulation,
    run_hybrid_simulation,
)
from repro.obs import MetricsRegistry
from repro.obs.trace import FlightRecorder
from repro.topology.clos import ClosParams

SCENARIO = dict(
    clos=ClosParams(clusters=2),
    load=0.15,
    duration_s=0.008,
    seed=31,
    routing={"policy": "flowlet", "flowlet_gap_s": 5e-5},
    failures=[
        (0.003, "core-0", "agg-c0-0"),
        (0.006, "core-0", "agg-c0-0", "up"),
    ],
    collective={
        "algorithm": "ring",
        "ranks": 4,
        "chunk_bytes": 20_000,
        "rounds": 2,
        "compute_s": 3e-4,
        "compute_jitter": 0.5,
    },
)


def _full(metrics=None) -> str:
    config = ExperimentConfig(**SCENARIO)
    return run_full_simulation(config, metrics=metrics).result.determinism_signature()


def test_full_scenario_signature_stable_across_reruns_and_metrics():
    baseline = _full()
    assert baseline == _full()
    assert baseline == _full(metrics=MetricsRegistry(enabled=True))
    # The scenario actually exercised what it claims to.
    config = ExperimentConfig(**SCENARIO)
    result = run_full_simulation(config).result
    assert len(result.failure_events) == 2
    assert result.collective["rounds_completed"] == 2


def test_failure_schedule_perturbs_outcomes():
    """The signature is sensitive: under congestion, dropping the
    failure schedule changes the flow outcomes, not just the recorded
    failure events (rerouted flows shift queueing onto the surviving
    core links)."""
    congested = dict(SCENARIO, load=0.7, collective=None)
    no_failures = dict(congested, failures=[])
    a = run_full_simulation(ExperimentConfig(**congested)).result
    b = run_full_simulation(ExperimentConfig(**no_failures)).result
    assert a.failure_events and not b.failure_events
    assert a.determinism_signature() != b.determinism_signature()
    assert a.fcts != b.fcts


def test_hybrid_scenario_signature_stable_with_taps(trained_bundle, monkeypatch):
    """Every per-packet tap of the approximated cluster — metrics
    handles, tracer spans, the ``on_outcome`` callback — on, alone and
    together, leaves the seeded outcome byte-identical."""
    outcomes: list[tuple[float, object, bool]] = []

    def run(metrics=None, tracer=None, outcome_tap=False) -> str:
        config = ExperimentConfig(**SCENARIO)
        with monkeypatch.context() as patch:
            if outcome_tap:
                # The tap is an attribute set after construction (the
                # fidelity harness and the cascade do the same).
                construct = ApproximatedCluster.__init__

                def construct_tapped(self, *args, **kwargs):
                    construct(self, *args, **kwargs)
                    self.on_outcome = lambda *outcome: outcomes.append(outcome)

                patch.setattr(ApproximatedCluster, "__init__", construct_tapped)
            result, _ = run_hybrid_simulation(
                config, trained_bundle, metrics=metrics, tracer=tracer
            )
        if outcome_tap:
            assert len(outcomes) == result.model_packets > 0
            assert sum(dropped for _, _, dropped in outcomes) == result.model_drops
            outcomes.clear()
        return result.determinism_signature()

    baseline = run()
    assert baseline == run()
    assert baseline == run(metrics=MetricsRegistry(enabled=True))
    assert baseline == run(tracer=FlightRecorder(seed=31))
    assert baseline == run(outcome_tap=True)
    assert baseline == run(
        metrics=MetricsRegistry(enabled=True),
        tracer=FlightRecorder(seed=31),
        outcome_tap=True,
    )
