"""The ledger's workloads, as data.

Each workload is a scenario (plain ``ExperimentConfig`` fields), the
engine that runs it and that engine's options; ``adapter.py`` turns
them into calls.  ``why`` is the rationale copied into
``BENCHMARK.json``.  ``reference`` names the engine whose run on the
same scenario and seed is the fidelity baseline of the traced run;
``twin`` names the engine that claims to be the same simulation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "des" | "hybrid" | "sharded" | "cascade"
    scenario: dict
    options: dict = field(default_factory=dict)
    reference: Optional[str] = None
    twin: Optional[str] = None
    why: str = ""


#: Matched load: approximated clusters carry every flow (no elision),
#: so all engines simulate the traffic the scenario offers.
_MATCHED = {"elide_remote_traffic": False}

_CLOS16 = {"clusters": 16, "load": 0.25, "duration_s": 0.004}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="des_clos16",
        engine="des",
        scenario=_CLOS16,
        why=(
            "Packet-level DES, the left side of the paper's inequality: only "
            "des/net/net.tcp/topology work, so a kernel or TCP win shows "
            "here and an inference win must not."
        ),
    ),
    Workload(
        name="hybrid_clos16",
        engine="hybrid",
        scenario=_CLOS16,
        options={"hybrid": _MATCHED},
        reference="des",
        why=(
            "Same scenario on learned cluster models, the right side: "
            "cluster_model/features/nn.infer/macro carry ~40% of self time, "
            "so scalar inference and feature work pay here."
        ),
    ),
    Workload(
        name="sharded_clos16",
        engine="sharded",
        scenario=_CLOS16,
        options={"hybrid": _MATCHED, "shard": {"workers": 2}},
        reference="des",
        twin="hybrid",
        why=(
            "Same simulation split over 2 PDES workers: adds windows, "
            "exchanges, stall and fork+pipe set-up; shows whether a "
            "single-process win survives sharding."
        ),
    ),
    Workload(
        name="cascade_clos32",
        engine="cascade",
        scenario={"clusters": 32, "load": 0.25, "duration_s": 0.004},
        options={
            "cascade": {
                "epoch_s": 5e-4,
                "window_epochs": 3,
                "min_window_samples": 4,
                "budget": {"ks": 0.35},
            }
        },
        reference="des",
        why=(
            "Scale axis: flowsim+cascade+validate carry the background, "
            "packets stay in the focal cluster, and topology/ECMP build is "
            "large enough for setup_s to resolve."
        ),
    ),
    Workload(
        name="collective_batched",
        engine="hybrid",
        scenario={
            "clusters": 4,
            "load": 0.15,
            "duration_s": 0.01,
            # 16 ranks span clusters 0-1, so chunks cross a model.
            "collective": {
                "algorithm": "ring",
                "ranks": 16,
                "chunk_bytes": 20_000,
                "rounds": 2,
                "compute_s": 3e-4,
            },
            "routing": {"policy": "flowlet", "flowlet_gap_s": 5e-5},
            "failures": [
                [0.003, "core-0", "agg-c0-0", "down"],
                [0.006, "core-0", "agg-c0-0", "up"],
            ],
        },
        options={
            "hybrid": {
                **_MATCHED,
                "batch_window_s": 1e-6,
                "memoize_inference": True,
                "inference_dtype": "float32",
            }
        },
        reference="des",
        why=(
            "Lock-step ring AllReduce elephants, flowlet routing and a link "
            "failure, inference through core.batcher+nn.batch+memo: a "
            "batcher/memo change shows here and nowhere else."
        ),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def at_duration(workload: Workload, duration_s: float) -> Workload:
    """``workload`` with every simulated time scaled to ``duration_s``.

    The warm-up and the ``quick`` profile run the same scenario shape
    over a shorter window; failure times and the cascade epoch scale
    with it so the run still applies its failures and scores epochs.
    """
    scale = duration_s / workload.scenario["duration_s"]
    scenario = copy.deepcopy(workload.scenario)
    scenario["duration_s"] = duration_s
    for event in scenario.get("failures", ()):
        event[0] *= scale
    options = copy.deepcopy(workload.options)
    if "cascade" in options:
        options["cascade"]["epoch_s"] *= scale
    return replace(workload, scenario=scenario, options=options)


def on_engine(workload: Workload, engine: str) -> Workload:
    """The same scenario on another engine (a reference or twin run)."""
    options = {
        key: value for key, value in workload.options.items() if key == engine
    }
    return replace(workload, engine=engine, options=options, reference=None, twin=None)
