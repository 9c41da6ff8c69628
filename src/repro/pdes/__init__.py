"""Conservative parallel discrete event simulation (PDES).

Section 2.2 of the paper demonstrates that PDES — the standard answer
to slow simulation — backfires on highly interconnected data center
topologies: causality maintenance forces synchronization whose cost
grows with the connection count, so "for large networks,
single-threaded instances beat the parallel deployments significantly"
(Figure 1).

This package reproduces that experiment with a real parallel engine:

* the topology is partitioned across worker *processes*
  (:func:`~repro.topology.partition.partition_for_workers`);
* each worker builds and runs its own shard of the world
  (:mod:`repro.pdes.worker`) under one crash-safe coordinator
  (:func:`repro.pdes.engine.run_workers`);
* causality is maintained with the conservative synchronous-window
  protocol: the window length equals the minimum propagation delay of
  any cut link (the lookahead), and workers exchange cross-partition
  packet messages at every window barrier;
* following OMNeT++'s null message algorithm, every directed cut link
  gets an entry in every barrier exchange even when it carried nothing
  — null messages are exactly the per-link "nothing until t+lookahead"
  promises conservative PDES requires, and their cost is why dense
  topologies scale badly (cut links grow ~quadratically in leaf-spine
  fabrics while useful work grows linearly).

The paper's 2- and 4-"machine" series map to 2 and 4 worker processes
here; one container cannot be several machines, but the synchronization
economics (messages + barriers vs. per-partition event work) are the
same mechanism measured on one host.

:mod:`repro.pdes.hybrid_shard` runs the hybrid simulator on the same
worker and coordinator: the full-fidelity region is partitioned across
workers and every approximated cluster runs as a model shard colocated
with the worker owning its attachment point.
"""

from repro.pdes.engine import (
    PdesConfig,
    PdesResult,
    WorkerCrashError,
    resolve_window,
    run_parallel_simulation,
    run_single_threaded,
)
from repro.pdes.hybrid_shard import (
    HybridShardConfig,
    ModelRef,
    PdesHybridResult,
    extract_flow_schedule,
    model_egress_lookahead,
    outcome_signature,
    resolve_hybrid_window,
    run_hybrid_sharded,
)
from repro.pdes.worker import ShardStats

__all__ = [
    "PdesConfig",
    "PdesResult",
    "resolve_window",
    "run_parallel_simulation",
    "run_single_threaded",
    "HybridShardConfig",
    "ModelRef",
    "PdesHybridResult",
    "ShardStats",
    "WorkerCrashError",
    "extract_flow_schedule",
    "model_egress_lookahead",
    "outcome_signature",
    "resolve_hybrid_window",
    "run_hybrid_sharded",
]
