"""Hybrid × PDES fusion: shard the full-fidelity region across workers.

The hybrid simulator (one full cluster + N-1 cluster models) and the
PDES engine (partitioned full-fidelity world) each attack a different
axis of the paper's Figure 1.  This module fuses them: the
full-fidelity cluster and the core layer are partitioned across worker
processes (:func:`~repro.topology.partition.partition_hybrid`), while
every approximated cluster runs as a *model shard* colocated with the
worker that owns its attachment point — hosts, fabric names, and the
:class:`~repro.core.cluster_model.ApproximatedCluster` standing in for
the fabric all live on one worker, so the host↔model path never pays
synchronization.

Determinism contract (the test pack's foundation):

* Every worker builds its :class:`~repro.core.hybrid.HybridSimulation`
  with ``Simulator(seed=config.seed)`` — the *same* seed, not
  ``seed + worker_index``.  Named RNG streams
  (``sim.rng.stream(name)``) are derived per-name, so each cluster
  model's drop stream draws the same values it would draw in the
  single-process hybrid regardless of which worker hosts it.
* The flow schedule is extracted once, up front, by running the real
  :class:`~repro.traffic.apps.TrafficGenerator` with a
  ``flow_dispatch`` hook that claims every flow after all randomness
  is drawn (:func:`~repro.traffic.apps.draw_flow_schedule`), each with
  the id and source port the live generator numbers it with.
* Cross-worker packets keep their exact single-process timestamps: the
  sending port's propagation delay is zeroed and the
  :class:`~repro.pdes.stub.RemoteStub` re-adds the real link delay, so
  ``deliver_at`` is the same float the local port would have produced.
* Model egress into a remote worker is captured at **decision time**
  through :class:`~repro.pdes.stub.RemoteEntityProxy`, and the window
  is bounded by the model-egress lookahead
  (:func:`model_egress_lookahead`): ``MIN_REGION_LATENCY_S`` minus the
  inference batching window, because a batched packet's outcome can be
  decided up to ``batch_window_s`` after its arrival.

With those four properties, same-seed reruns at one worker count are
byte-identical, and one worker reproduces the single-process hybrid
under float64 inference.  More workers match it on the scenarios the
tests pin, but not on every seed: on the 16-cluster ``sharded_clos16``
scenario, traffic seeds 3 and 9 diverge at 2 and 4 workers (FCTs off
by ~1e-11 s; 52 flows completing instead of 55), most likely a
same-time event order a window barrier cannot reproduce (DESIGN.md
§11).

Everything else — the window, the plan, the coordinator, the merge
into a :class:`~repro.pdes.engine.PdesHybridResult` — is the plain
engine's body (:mod:`repro.pdes.engine`); this module holds only what
a model adds: :class:`ModelRef`, :func:`model_egress_lookahead` and
the hybrid partitioner's call.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.core.cluster_model import MIN_REGION_LATENCY_S
from repro.core.hybrid import HybridConfig, check_model_width
from repro.core.training import TrainedClusterModel
from repro.core.world import ExperimentConfig
from repro.obs import MetricsRegistry
from repro.pdes.engine import (
    HybridShardConfig,
    PdesHybridResult,
    _run_sharded,
    extract_flow_schedule,
)
from repro.topology.clos import build_clos
from repro.topology.partition import partition_hybrid


@dataclass(frozen=True)
class ModelRef:
    """A trained model by artifact path, not by pickled engine.

    Worker payloads carry one of these; each worker loads the bundle
    from disk (:meth:`TrainedClusterModel.load`) instead of inheriting
    multi-megabyte weight arrays through the process-spawn payload.
    ``fingerprint`` is provenance (the
    :class:`~repro.runs.registry.ModelRegistry` key when the artifact
    came from the registry); loading goes through ``path``.
    """

    path: str
    fingerprint: Optional[str] = None

    def load(self) -> TrainedClusterModel:
        """Materialize the model in this process."""
        return TrainedClusterModel.load(self.path)


def model_egress_lookahead(hybrid: HybridConfig) -> float:
    """Safe lookahead of model egress crossing a shard boundary.

    A cluster model's delivery timestamp is ``arrival + latency`` with
    ``latency >= MIN_REGION_LATENCY_S``, but with inference batching
    the drop/latency *decision* — the moment the packet can first be
    captured for a remote worker — happens up to ``batch_window_s``
    after the arrival (the batcher clamps its window to
    ``MIN_REGION_LATENCY_S``).  The remaining guaranteed slack between
    decision and delivery is the usable lookahead.  Non-positive means
    batching ate the entire causality margin;
    :func:`~repro.pdes.engine.resolve_window` rejects that
    configuration outright.
    """
    batch_eff = 0.0
    if hybrid.batch_window_s > 0:
        batch_eff = min(hybrid.batch_window_s, MIN_REGION_LATENCY_S)
    return MIN_REGION_LATENCY_S - batch_eff


@contextmanager
def _model_ref(
    model: Union[TrainedClusterModel, ModelRef], scratch_dir: Optional[str]
) -> Iterator[ModelRef]:
    """``model`` as an on-disk reference for the run's duration: an
    in-memory model is saved to a ``pdes-model-*`` temp directory that
    is removed when the run ends, failed or not."""
    if isinstance(model, ModelRef):
        yield model
        return
    with tempfile.TemporaryDirectory(prefix="pdes-model-", dir=scratch_dir) as directory:
        model.save(directory)
        yield ModelRef(path=directory)


def run_hybrid_sharded(
    config: ExperimentConfig,
    model: Union[TrainedClusterModel, ModelRef],
    shard: Optional[HybridShardConfig] = None,
    hybrid: Optional[HybridConfig] = None,
    scratch_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> PdesHybridResult:
    """Run one hybrid experiment sharded across PDES workers.

    Parameters
    ----------
    config:
        The experiment (topology, load, duration, seed) — identical
        meaning to :func:`~repro.core.pipeline.run_hybrid_simulation`.
    model:
        The reusable trained cluster model, either in memory (saved to
        a scratch directory for the run) or as a :class:`ModelRef`
        pointing at a stored artifact (e.g. a registry entry).
    shard:
        Worker count / window / crash-safety options.
    hybrid:
        Hybrid assembly options; ``single_black_box`` is rejected (one
        rest-of-network model cannot be split) and per-cluster model
        mappings are not supported through the process boundary.
    scratch_dir:
        Where to save an in-memory model (default: system temp).
    metrics:
        Registry that collects every worker's counters and gauges,
        each under its worker's label.

    Wall-clock is measured from the moment all workers are released to
    the moment the last reports done — setup (process spawn, topology
    build, model load) is excluded, matching the plain PDES engine and
    the paper's Figure 1 methodology.
    """
    shard = shard or HybridShardConfig()
    hybrid = hybrid or HybridConfig()
    if hybrid.single_black_box:
        raise ValueError(
            "single_black_box mode cannot be sharded: the one "
            "rest-of-network model has nowhere to split"
        )
    check_model_width(model)
    topology = build_clos(config.clos)
    partitions = partition_hybrid(topology, hybrid.full_cluster, shard.workers)
    # Model egress bounds the window only where it can cross a shard
    # boundary: more than one worker and an approximated cluster.
    lookahead = None
    if len(partitions) > 1 and len(topology.cluster_ids()) > 1:
        lookahead = model_egress_lookahead(hybrid)
    with _model_ref(model, scratch_dir) as model_ref:
        return _run_sharded(
            config,
            shard,
            topology,
            partitions,
            extract_flow_schedule(topology, config, hybrid),
            model_lookahead_s=lookahead,
            model_ref=model_ref,
            hybrid=hybrid,
            metrics=metrics,
        )
