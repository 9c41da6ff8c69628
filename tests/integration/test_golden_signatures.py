"""Golden signatures: every engine's seeded outcome, pinned by hash.

Recorded at the commit *before* the run paths were collapsed onto
``repro.core.world`` and kept green through it: a refactor of the
build → run → result path must leave every one of these bytes alone.
Pairwise determinism tests elsewhere prove runs agree with *each
other*; these prove they still agree with what the code produced
before it was touched.

The hashes cover floats that went through numpy (RNG streams, LSTM
inference, SGD), so they are only comparable on the numeric stack they
were recorded on; on any other the module skips instead of failing.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys

import numpy as np
import pytest

from repro.cascade import CascadeConfig, TierBudget, run_cascade_simulation
from repro.core.hybrid import HybridConfig
from repro.core.pipeline import (
    ExperimentConfig,
    run_full_simulation,
    run_hybrid_simulation,
)
from repro.core.world import build_world
from repro.flowsim.workload import generate_workload
from repro.obs import MetricsRegistry
from repro.obs.trace import FlightRecorder
from repro.pdes import (
    HybridShardConfig,
    run_hybrid_sharded,
    run_parallel_simulation,
)
from repro.runs.executor import run_stage
from repro.topology.clos import ClosParams
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.traffic.distributions import UNIFORM_SMALL_CDF, EmpiricalSizeDistribution
from repro.validate import run_differential_pair

RECORDED_ON = ("2.4.6", "x86_64", (3, 11))

pytestmark = pytest.mark.skipif(
    (np.__version__, platform.machine(), sys.version_info[:2]) != RECORDED_ON,
    reason=f"goldens were recorded on numpy/arch/python {RECORDED_ON}",
)

PLAIN = ExperimentConfig(
    clos=ClosParams(clusters=3), load=0.25, duration_s=0.003, seed=7
)
#: Every scenario axis at once: flowlet routing, a link failure with
#: recovery, a ring AllReduce with seeded compute jitter.
FACTORY = ExperimentConfig(
    clos=ClosParams(clusters=2),
    load=0.15,
    duration_s=0.006,
    seed=31,
    routing={"policy": "flowlet", "flowlet_gap_s": 5e-5},
    failures=[(0.002, "core-0", "agg-c0-0"), (0.004, "core-0", "agg-c0-0", "up")],
    collective={
        "algorithm": "ring",
        "ranks": 4,
        "chunk_bytes": 20_000,
        "rounds": 2,
        "compute_s": 3e-4,
        "compute_jitter": 0.5,
    },
)
CASCADE_EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=4), load=0.25, duration_s=0.006, seed=9
)
CASCADE = CascadeConfig(
    epoch_s=0.001, window_epochs=3, min_window_samples=4, budget=TierBudget(ks=0.2)
)
#: ``CASCADE`` as a spec's ``hybrid`` table.
CASCADE_OPTIONS = {
    "epoch_s": 0.001, "window_epochs": 3, "min_window_samples": 4, "budget": {"ks": 0.2}
}
#: Spec tables without and with the batched hot path and exact memo:
#: the same simulation, flush events aside (signatures leave them out).
BATCHING_OPTIONS = [{}, {"batch_window_s": 5e-7, "memoize_inference": True}]
KEEP_REMOTE = HybridConfig(elide_remote_traffic=False)
BATCHED_MEMO = HybridConfig(
    elide_remote_traffic=False, batch_window_s=5e-7, memoize_inference=True
)
#: The float32 batched+memo path on a lock-step collective: three
#: approximated clusters share one engine per direction, so rounds are
#: 1-3 packets wide.
COLLECTIVE_F32 = ExperimentConfig(
    clos=ClosParams(clusters=4),
    load=0.15,
    duration_s=0.003,
    seed=43,
    routing={"policy": "flowlet", "flowlet_gap_s": 5e-5},
    failures=[(0.001, "core-0", "agg-c0-0"), (0.002, "core-0", "agg-c0-0", "up")],
    collective={
        "algorithm": "ring",
        "ranks": 16,
        "chunk_bytes": 20_000,
        "rounds": 2,
        "compute_s": 3e-4,
    },
)
BATCHED_MEMO_F32 = HybridConfig(
    elide_remote_traffic=False,
    batch_window_s=1e-6,
    memoize_inference=True,
    inference_dtype="float32",
)
#: The same float32 scenario unmemoized, and inline (no window).  Its
#: engines have three lanes, below the stacked crossover, so every
#: batched round is its lanes' scalar steps: all three are one run.
BATCHED_F32 = HybridConfig(
    elide_remote_traffic=False, batch_window_s=1e-6, inference_dtype="float32"
)
INLINE_F32 = HybridConfig(elide_remote_traffic=False, inference_dtype="float32")
VALIDATE_EXPERIMENT = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.004, seed=17
)

GOLDEN = {
    "des_plain": "bcb65b0ec2a5c3f0b194f357a07c00879a3d7c33110cc7498e2dbbfc57b367a1",
    "des_factory": "22b2067ceb28771d682e289891b6c570c68ee683d93a15df06332334325bc6bd",
    "hybrid_inline": "2bbade58d61c1641e98f9f55cc9dcb675a3c4c4a4449ad71f2d10f0490a03044",
    "hybrid_factory": "3d21072ec6c5242948e2a8189b2cc5b778ff10aed5b1c953af1dfaf9c61b9805",
    "hybrid_elided": "e6650adc41b3fc6bb41c7411ee627dcd1f15518672a382698d2ddd75c6e0b1b4",
    "hybrid_batched_memo": "2bbade58d61c1641e98f9f55cc9dcb675a3c4c4a4449ad71f2d10f0490a03044",
    "hybrid_collective_f32": "acdd6941f8843f80babacc20a34e0c8ae0635211bdc492be457175486a69858d",
    "cascade_result": "cc6e5bf3eadba8349214aaa29f3b54a5873076e1937c5734027d2ab6db766006",
    "cascade_decision_log": "6aaf70f9214f9a5c77c1f7924a5e2c7735a6616eaceb672b2fb102bc3f552ccb",
    "cascade_fluid_fcts": "12a258fbc73952d94b64a9d3b8c4975b888745a00c22972aa29df13fd7ca1092",
    "sharded_1_determinism": "c9738b38295fe47a8e7b6f52e6cd735a6e0bc826b2f4b094bf779afa74de0d75",
    "sharded_2_determinism": "bbcf54608280972d08c34b6376a9e08c4aadb9377b3c063669d790de811dc330",
    "sharded_outcome": "9a6f2d47680ec639a668a2846cdd9892b05bfc70947c590858039d10733c25f1",
    "validate_report": "a42ff6565a82de98cb278997f38c1a1d9a39f66643850d57d2c281b6f5404c16",
    "trained_weights": "3a6053d3b0102216d763e6d080f8e269bcd60fc12b10f73455dc511f0a97b332",
    "pdes_plain_1": "7887dc630b4f3addcb484d60aac1f30ab8850302cf7fe96072eb34b8cef3280f",
    "pdes_plain_2": "7887dc630b4f3addcb484d60aac1f30ab8850302cf7fe96072eb34b8cef3280f",
}

#: ``events_executed`` per seeded scenario, recorded beside the hashes:
#: ``determinism_signature`` leaves event counts out, so these pin that
#: a kernel or packet-hop change runs exactly the same events.
GOLDEN_EVENTS = {
    "des_plain": 119_259,
    "des_factory": 71_995,
    "hybrid_inline": 67_785,
    "hybrid_factory": 43_923,
    "hybrid_elided": 36_701,
    "hybrid_batched_memo": 72_168,
    "hybrid_collective_f32": 111_102,
    "cascade_result": 201_618,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check(name: str, text: str) -> None:
    assert _sha(text) == GOLDEN[name], f"{name}: seeded outcome changed"


# ----------------------------------------------------------------------
# Packet-level DES
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,config", [("des_plain", PLAIN), ("des_factory", FACTORY)]
)
def test_des(name, config):
    result = run_full_simulation(config).result
    _check(name, result.determinism_signature())
    assert result.events_executed == GOLDEN_EVENTS[name]


@pytest.mark.parametrize("taps", ["bare", "metrics", "tracer", "metrics+tracer"])
def test_des_is_the_world_with_no_model(taps):
    """The lattice edge the collapse created: full DES is the one
    assembly with no trained model — and, like every engine, blind to
    whether metrics or the flight recorder are watching."""
    world = build_world(
        FACTORY,
        metrics=MetricsRegistry(enabled=True) if "metrics" in taps else None,
        tracer=FlightRecorder(seed=FACTORY.seed) if "tracer" in taps else None,
    )
    world.run()
    assert not world.hybrid.models
    result = world.result()
    _check("des_factory", result.determinism_signature())
    if "metrics" not in taps:  # probe ticks are events of their own
        assert result.events_executed == GOLDEN_EVENTS["des_factory"]


# ----------------------------------------------------------------------
# Hybrid: inline inference, every scenario axis, batched + memoized f64
# and f32, the paper's elided configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,config,hybrid",
    [
        ("hybrid_inline", PLAIN, KEEP_REMOTE),
        ("hybrid_factory", FACTORY, None),
        ("hybrid_batched_memo", PLAIN, BATCHED_MEMO),
        ("hybrid_collective_f32", COLLECTIVE_F32, BATCHED_MEMO_F32),
        ("hybrid_elided", PLAIN, None),
    ],
)
def test_hybrid(trained_bundle, name, config, hybrid):
    result, _ = run_hybrid_simulation(config, trained_bundle, hybrid=hybrid)
    assert result.model_packets > 0
    _check(name, result.determinism_signature())
    assert result.events_executed == GOLDEN_EVENTS[name]


@pytest.mark.parametrize(
    "hybrid", [BATCHED_F32, INLINE_F32], ids=["batched_no_memo", "inline"]
)
def test_collective_f32_batched_memo_is_inline(trained_bundle, hybrid):
    """Below the crossover a float32 batched round is the inline lane
    step and an exact memo hit is that step's bytes: batched with exact
    memo (the golden), batched without memo and inline float32 share
    one signature — as ``hybrid_batched_memo`` and ``hybrid_inline`` do
    in float64."""
    result, _ = run_hybrid_simulation(COLLECTIVE_F32, trained_bundle, hybrid=hybrid)
    assert result.model_packets > 0
    _check("hybrid_collective_f32", result.determinism_signature())


# ----------------------------------------------------------------------
# Cascade: packet side, controller decisions, fluid side
# ----------------------------------------------------------------------
def _check_cascade(result, cascade_sim) -> None:
    assert result.fluid_fcts and cascade_sim.decision_log.entries
    _check("cascade_result", result.result.determinism_signature())
    _check("cascade_decision_log", cascade_sim.decision_log.to_json())
    _check("cascade_fluid_fcts", json.dumps(result.fluid_fcts))


def test_cascade(trained_bundle):
    result, cascade_sim = run_cascade_simulation(
        CASCADE_EXPERIMENT, trained_bundle, cascade=CASCADE
    )
    _check_cascade(result, cascade_sim)
    assert result.result.events_executed == GOLDEN_EVENTS["cascade_result"]


@pytest.mark.parametrize("batching", BATCHING_OPTIONS, ids=["inline", "batched_memo"])
def test_cascade_through_run_stage(trained_bundle, batching):
    """The spec path (flat options, matched-load defaults) is the same
    cascade, batched or not."""
    run = run_stage(
        "cascade", CASCADE_EXPERIMENT, {**CASCADE_OPTIONS, **batching}, trained_bundle
    )
    _check_cascade(run.result, run.detail)
    hot = run.result.result.hot_path
    if batching:
        assert hot["batched_packets"] > 0
        assert hot["memo_hits"] + hot["memo_misses"] == hot["batched_packets"]
    else:
        assert hot["batched_packets"] == 0
        assert run.result.result.events_executed == GOLDEN_EVENTS["cascade_result"]


# ----------------------------------------------------------------------
# Sharded hybrid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_sharded(trained_bundle, workers):
    result = run_hybrid_sharded(
        PLAIN,
        trained_bundle,
        shard=HybridShardConfig(workers=workers),
        hybrid=KEEP_REMOTE,
    )
    _check(f"sharded_{workers}_determinism", result.determinism_signature())
    _check("sharded_outcome", result.outcome_signature())


# ----------------------------------------------------------------------
# Differential validation and the training pipeline
# ----------------------------------------------------------------------
def test_validate_report(trained_bundle):
    diff = run_differential_pair(VALIDATE_EXPERIMENT, trained_bundle)
    _check("validate_report", json.dumps(diff.report.to_dict(), sort_keys=True))


@pytest.mark.parametrize("batching", BATCHING_OPTIONS, ids=["inline", "batched_memo"])
def test_validate_report_through_run_stage(trained_bundle, batching):
    """A spec table keeps the remote traffic, as the default
    :class:`ValidateConfig` does, whether or not it sets a hybrid key."""
    diff = run_stage("validate", VALIDATE_EXPERIMENT, batching, trained_bundle).result
    _check("validate_report", json.dumps(diff.report.to_dict(), sort_keys=True))


def test_trained_weights(trained_bundle):
    """Stage 1 + 2: the collection run's trace decides every weight."""
    digest = hashlib.sha256()
    for direction in sorted(trained_bundle.directions, key=lambda d: d.value):
        bundle = trained_bundle.directions[direction]
        for name, parameter in bundle.model.named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(parameter.value).tobytes())
        state = bundle.feature_standardizer.state_dict()
        digest.update(np.ascontiguousarray(state["mean"]).tobytes())
        digest.update(np.ascontiguousarray(state["std"]).tobytes())
        digest.update(repr((bundle.latency_mean, bundle.latency_std)).encode())
    assert digest.hexdigest() == GOLDEN["trained_weights"]


# ----------------------------------------------------------------------
# Plain PDES (the Figure 1 engine; no ledger workload covers it)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_plain_pdes(workers):
    topology = build_leaf_spine(LeafSpineParams(tors=4, spines=2, servers_per_tor=2))
    flows = generate_workload(
        topology,
        duration_s=0.002,
        load=0.15,
        sizes=EmpiricalSizeDistribution(UNIFORM_SMALL_CDF),
        seed=131,
    )
    result = run_parallel_simulation(
        ExperimentConfig(duration_s=0.05, seed=131), HybridShardConfig(workers=workers),
        topology=topology, flows=flows,
    )
    assert result.flows_completed == len(flows)
    _check(
        f"pdes_plain_{workers}",
        json.dumps([result.flows_completed, result.drops, sorted(result.fcts)]),
    )
