"""End-to-end experiment pipeline (the workflow of Figure 3).

Stage 1 — :func:`run_full_simulation`: full packet-level fidelity,
optionally recording one cluster's boundary crossings.

Stage 2 — :func:`train_reusable_model`: briefly simulate a small
(default two-cluster) network, train the ingress/egress micro models
on the recorded crossings.

Stage 3 — :func:`run_hybrid_simulation`: assemble a (typically larger)
topology with all but one cluster approximated and run the same
workload family.

Each stage builds, runs and reads one :mod:`repro.core.world` (where
the scenario and result types live); this module keeps Figure 3's names.

The result objects carry the measurements every benchmark needs:
wall-clock seconds of event processing (the kernel excludes setup),
executed event counts, RTT samples from the observed cluster, FCTs,
and drop totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.features import RegionFeatureExtractor
from repro.core.hybrid import HybridConfig, HybridSimulation
from repro.core.micro import MicroModelConfig
from repro.core.region import Region
from repro.core.training import (
    PacketCrossing,
    TrainedClusterModel,
    train_cluster_model,
)
from repro.core.world import ExperimentConfig, RunResult, build_world, make_generator

__all__ = [
    "ExperimentConfig",
    "FullRunOutput",
    "RunResult",
    "make_generator",
    "run_full_simulation",
    "run_hybrid_simulation",
    "train_reusable_model",
]


@dataclass
class FullRunOutput:
    """A full-fidelity run plus (optionally) its training trace."""

    result: RunResult
    records: list[PacketCrossing]
    extractor: Optional[RegionFeatureExtractor]


def run_full_simulation(
    config: ExperimentConfig,
    collect_cluster: Optional[int | Region] = None,
    observe_cluster: int = 0,
    metrics=None,
    probe_period_s: Optional[float] = None,
) -> FullRunOutput:
    """Stage 1: full packet-level simulation.

    Parameters
    ----------
    collect_cluster:
        If set, instrument that region's fabric boundary and return the
        packet-crossing trace (training input).  A cluster index is the
        paper's configuration; a :class:`~repro.core.region.Region`
        (e.g. ``Region.rest_of_network``) selects other boundaries.
    observe_cluster:
        Whose hosts' RTT samples to report (Figure 4 population).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  Installs the
        ``des.run`` span on the kernel and attaches sim-time queue
        probes; probes are ordinary kernel events and draw no
        randomness, so seeded runs are byte-identical with or without
        them.
    probe_period_s:
        Simulated-time sampling period for the probes; defaults to
        ``duration_s / 50`` (:func:`repro.obs.default_period`).
    """
    world = build_world(
        config,
        hybrid=HybridConfig(full_cluster=observe_cluster),
        collect_cluster=collect_cluster,
        metrics=metrics,
        probe_period_s=probe_period_s,
    )
    world.run()
    return FullRunOutput(
        result=world.result(), records=world.records(), extractor=world.extractor
    )


def train_reusable_model(
    config: ExperimentConfig,
    micro: Optional[MicroModelConfig] = None,
    collect_cluster: int | Region = 1,
    metrics=None,
) -> tuple[TrainedClusterModel, FullRunOutput]:
    """Stage 1 + 2: simulate small, train the cluster model.

    The paper trains on a two-cluster simulation and replaces one of
    them (Figure 3); ``config.clos.clusters`` should normally be 2.
    Returns the trained bundle and the training run (whose RTT samples
    serve as the ground-truth side of accuracy comparisons).  With
    ``metrics``, the collection run is probe-instrumented and training
    batches are span-profiled (``train.batch`` plus loss / grad-norm /
    examples-per-second histograms, labeled by direction).
    """
    output = run_full_simulation(
        config, collect_cluster=collect_cluster, metrics=metrics
    )
    if not output.records:
        raise ValueError(
            "training simulation produced no region crossings; "
            "increase duration_s or load"
        )
    assert output.extractor is not None
    trained = train_cluster_model(
        output.records, output.extractor, config=micro, metrics=metrics
    )
    return trained, output


def run_hybrid_simulation(
    config: ExperimentConfig,
    trained: TrainedClusterModel,
    hybrid: Optional[HybridConfig] = None,
    metrics=None,
    probe_period_s: Optional[float] = None,
    tracer=None,
) -> tuple[RunResult, HybridSimulation]:
    """Stage 3: the approximate simulation.

    The workload generator draws from the same seed and distributions
    as the full run; flows not touching the full-fidelity cluster are
    elided per the hybrid configuration.  With ``metrics``, the
    approximated clusters publish per-packet inference / latency /
    drop instruments and sim-time probes sample queue depths, macro
    states, and per-cluster drop rates every ``probe_period_s``.  With
    ``tracer`` (a :class:`~repro.obs.trace.FlightRecorder`), every flow
    gets admission/completion records and every model decision a span —
    RNG-free, so seeded outcomes stay byte-identical.
    """
    world = build_world(
        config,
        trained,
        hybrid=hybrid,
        metrics=metrics,
        tracer=tracer,
        probe_period_s=probe_period_s,
    )
    world.run()
    return world.result(), world.hybrid
