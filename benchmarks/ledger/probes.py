"""Micro-probes: timed direct calls into one layer's public functions.

Each probe repeats its call until a repetition lasts at least
``MIN_REP_S`` and reports the best of ``REPS`` repetitions, per unit of
work.  They price a layer with nothing else running, so a change that
moves a probe but no end-to-end metric did not matter on any workload.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.features import Direction
from repro.core.training import TrainedClusterModel
from repro.des.kernel import Simulator
from repro.nn.batch import make_batched_engine
from repro.topology.clos import ClosParams, build_clos
from repro.topology.routing import make_routing

REPS = 3
MIN_REP_S = 0.2
NOOP_EVENTS = 200_000
BATCH_WIDTH = 64


def _best_seconds_per_unit(batch, units: int, min_rep_s: float) -> float:
    """Best-of-``REPS`` seconds per unit of ``batch()`` (``units`` each)."""
    best = float("inf")
    for _ in range(REPS):
        done = 0
        start = time.perf_counter()
        while True:
            batch()
            done += units
            elapsed = time.perf_counter() - start
            if elapsed >= min_rep_s:
                break
        best = min(best, elapsed / done)
    return best


def _noop() -> None:
    pass


def _noop_events() -> None:
    sim = Simulator(seed=0)
    for index in range(NOOP_EVENTS):
        sim.schedule(index * 1e-9, _noop)
    sim.run()


def run_probes(model_dir: Path, min_rep_s: float = MIN_REP_S) -> dict:
    """All micro-probes, metric name -> value."""
    values = {
        "des.noop_event_us": _best_seconds_per_unit(_noop_events, NOOP_EVENTS, min_rep_s)
        * 1e6
    }

    clos32 = ClosParams(clusters=32)
    values["topology.build_clos32_s"] = _best_seconds_per_unit(
        lambda: build_clos(clos32), 1, min_rep_s
    )
    topology = build_clos(clos32)
    values["topology.routing_build_clos32_s"] = _best_seconds_per_unit(
        lambda: make_routing(topology), 1, min_rep_s
    )

    trained = TrainedClusterModel.load(model_dir)
    rng = np.random.default_rng(7)
    features = rng.normal(size=(256, trained.config.input_size))
    rows = list(range(BATCH_WIDTH))
    macros = [index % 4 for index in rows]
    for dtype, label in (("float64", "f64"), ("float32", "f32")):
        compiled = trained.compiled(dtype)
        engine = compiled.engine(Direction.INGRESS)

        def scalar_pass(engine=engine) -> None:
            for index, row in enumerate(features):
                engine.predict(row, macro_index=index % 4)

        values[f"nn.infer.{label}_us"] = (
            _best_seconds_per_unit(scalar_pass, len(features), min_rep_s) * 1e6
        )

        batched = make_batched_engine(compiled.directions[Direction.INGRESS], BATCH_WIDTH)
        rounds = [
            list(features[start : start + BATCH_WIDTH])
            for start in range(0, len(features), BATCH_WIDTH)
        ]

        def batched_pass(batched=batched, rounds=rounds) -> None:
            for round_features in rounds:
                batched.predict_rows(round_features, macros, rows)

        values[f"nn.batch.{label}_w{BATCH_WIDTH}_us"] = (
            _best_seconds_per_unit(batched_pass, len(features), min_rep_s) * 1e6
        )
    return values

