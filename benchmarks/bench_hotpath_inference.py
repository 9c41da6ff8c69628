"""Hot-path inference: fused engine vs. the reference predict_step.

The hybrid simulator's per-packet cost is the micro model step; this
benchmark measures exactly that — single-packet inference latency on
the paper's default 2-layer/128-hidden LSTM — for the reference path
(``Standardizer.transform`` + ``MicroModel.predict_step``, what every
packet paid before the fused engine existed) against the compiled
engine of :mod:`repro.nn.infer` in both precisions.  A second section
prices the observability layer on the same hot path: bare loop vs. the
``None``-handle branch pattern (metrics disabled; asserted < 2%
overhead) vs. live histogram observation (metrics enabled; reported).
A third prices the tracing layer two ways: the same synthetic rotation
(flight recorder off gated < 0.5%) plus an end-to-end accounting
estimate — cache-cold per-record cost times a real hybrid run's
deterministic record count over its untraced CPU time — gated < 2%.

Results land in two places:

* ``benchmarks/results/hotpath_inference.txt`` — the usual bench table;
* ``BENCH_hotpath.json`` at the repo root — machine-readable trajectory
  file tracked in git, so per-PR perf history is diffable.

Methodology: the reference and fused paths run interleaved trials and
the *minimum* per-packet time across trials is reported — the standard
noise-floor estimator for microbenchmarks (any deviation upward is
scheduler/cache interference, not the code under test).  Exactness of
the float64 engine against the oracle is asserted to <= 1e-9 on the
same run.

``REPRO_HOTPATH_PACKETS`` shrinks the timed packet count for CI smoke
runs (the checked-in JSON comes from a full-size run).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis.reporting import format_table
from repro.core.micro import MicroModel, MicroModelConfig
from repro.nn.batch import MemoConfig, make_batched_engine
from repro.nn.data import Standardizer
from repro.nn.infer import compile_inference

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_hotpath.json"

#: Timed packets per trial; override for CI smoke.
PACKETS = int(os.environ.get("REPRO_HOTPATH_PACKETS", "2000"))
TRIALS = 5
WARMUP = 200
#: The steady-state memo section needs thousands of warmup rounds to
#: converge; the smoke run keeps the code path covered but its numbers
#: (and the related soft floors) only apply to full-size runs.
FULL_SIZE = PACKETS >= 2000

#: Lane widths of the raw batched sweep (ISSUE 6).
BATCH_WIDTHS = (1, 8, 64, 512)

#: Conservative regression floors (soft, far below typical results) so
#: the bench doubles as a CI guard without flaking on noisy runners.
MIN_SPEEDUP_F64 = 1.1
MIN_SPEEDUP_F32 = 1.5
#: The fused float64 engine must match the oracle to this bound (hard).
EXACTNESS_BOUND = 1e-9
#: Observability contract: with metrics absent/disabled, the per-packet
#: hot path may cost at most this fraction more than the bare path.
METRICS_DISABLED_OVERHEAD_BOUND = 0.02
#: Tracing contract.  The disabled path is a single ``is not None``
#: branch, so its bound is tighter than the metrics one.  The enabled
#: bound applies to the *end-to-end accounting estimate* (cache-cold
#: per-record cost x deterministic record count / untraced run CPU),
#: not the synthetic pure-inference ratio: against a bare GEMM loop the
#: recorder runs cache-cold every iteration, which overstates its share
#: of a real simulation several-fold.
TRACE_DISABLED_OVERHEAD_BOUND = 0.005
TRACE_ENABLED_OVERHEAD_BOUND = 0.02
#: Soft floors of the batched section (full-size runs only).  The
#: checked-in JSON carries the real numbers; these only catch gross
#: regressions without flaking on noisy runners.
MIN_BATCHED_SPEEDUP_F32 = 1.5  # raw, batch >= 64, vs same-run scalar f32
MIN_STEADY_SPEEDUP = 4.0  # memoized steady state vs same-run scalar f32
MIN_STEADY_HIT_RATE = 0.8

#: The model-packet budget across the one-pass rebuild of the per-packet
#: path, by the method of :func:`_bench_model_packet_budget`: medians of 5
#: runs per side, the commit before (1e0a61f: ``extract`` into a fresh
#: vector, ``predict`` with its copy, two hand-copied post-model bodies)
#: alternating with the commit after on one host.  Host speed drifts by
#: tens of percent within minutes, so the row a later run measures
#: ("this_run") is comparable with these only loosely.
MODEL_PACKET_BUDGET_PAIRED = {
    "protocol": "median of 5 runs per side, sides alternating, one host",
    "before": {
        "commit": "1e0a61f",
        "receive_us": 26.86,
        "extract_us": 6.21,
        "step_us": 10.98,
        "bookkeeping_us": 9.69,
    },
    "after": {
        "receive_us": 16.75,
        "extract_us": 2.79,
        "step_us": 8.02,
        "bookkeeping_us": 5.94,
    },
}


def _model_and_standardizer(cell: str, heads: str) -> tuple[MicroModel, Standardizer]:
    config = MicroModelConfig(cell=cell, heads=heads, seed=5)
    model = MicroModel(config, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    # Perturb away from the symmetric init at a spectral-radius-~1
    # scale (like a trained model's weights) so gates are exercised.
    for parameter in model.parameters():
        parameter.value[...] = rng.normal(
            scale=1.0 / np.sqrt(config.hidden_size), size=parameter.value.shape
        )
    standardizer = Standardizer()
    standardizer.mean = rng.normal(size=config.input_size)
    standardizer.std = np.abs(rng.normal(size=config.input_size)) + 0.5
    return model, standardizer


def _time_reference(model, standardizer, features, n) -> float:
    state = model.initial_state()
    start = time.perf_counter()
    for i in range(n):
        _, _, state = model.predict_step(
            standardizer.transform(features[i % len(features)]),
            state,
            macro_index=i % 4,
        )
    return (time.perf_counter() - start) / n


def _time_engine(engine, features, n) -> float:
    start = time.perf_counter()
    for i in range(n):
        engine.predict(features[i % len(features)], macro_index=i % 4)
    return (time.perf_counter() - start) / n


def _max_abs_diff(model, standardizer, engine, features) -> float:
    engine.reset()
    state = model.initial_state()
    worst = 0.0
    for i in range(min(len(features), 500)):
        raw = features[i]
        macro_index = i % 4
        drop_ref, latency_ref, state = model.predict_step(
            standardizer.transform(raw), state, macro_index=macro_index
        )
        drop_fused, latency_fused = engine.predict(raw, macro_index=macro_index)
        worst = max(worst, abs(drop_ref - drop_fused), abs(latency_ref - latency_fused))
    return worst


def _bench_variant(cell: str, heads: str) -> dict[str, float]:
    model, standardizer = _model_and_standardizer(cell, heads)
    compiled64 = compile_inference(
        model.lstm, model.drop_head, model.latency_head,
        feature_mean=standardizer.mean, feature_std=standardizer.std,
        dtype=np.float64,
    )
    compiled32 = compile_inference(
        model.lstm, model.drop_head, model.latency_head,
        feature_mean=standardizer.mean, feature_std=standardizer.std,
        dtype=np.float32,
    )
    engine64, engine32 = compiled64.engine(), compiled32.engine()
    features = np.random.default_rng(7).normal(size=(4000, model.config.input_size))

    max_diff64 = _max_abs_diff(model, standardizer, engine64, features)

    # Warm every path (buffers, BLAS threads, branch caches), then
    # interleave trials so ambient noise hits all paths equally.
    _time_reference(model, standardizer, features, WARMUP)
    _time_engine(engine64, features, WARMUP)
    _time_engine(engine32, features, WARMUP)
    ref_s, f64_s, f32_s = [], [], []
    for _ in range(TRIALS):
        ref_s.append(_time_reference(model, standardizer, features, PACKETS))
        f64_s.append(_time_engine(engine64, features, PACKETS))
        f32_s.append(_time_engine(engine32, features, PACKETS))
    reference, fused64, fused32 = min(ref_s), min(f64_s), min(f32_s)
    return {
        "reference_us": reference * 1e6,
        "fused_float64_us": fused64 * 1e6,
        "fused_float32_us": fused32 * 1e6,
        "speedup_float64": reference / fused64,
        "speedup_float32": reference / fused32,
        "max_abs_diff_float64": max_diff64,
    }


def _time_batched(engine, feature_rounds, macro_rounds, rows) -> float:
    width = len(rows)
    start = time.perf_counter()
    for feats, macros in zip(feature_rounds, macro_rounds):
        engine.predict_rows(feats, macros, rows)
    return (time.perf_counter() - start) / (len(feature_rounds) * width)


def _bench_batched() -> dict:
    """The lane-batched engine (ISSUE 6): raw GEMM batching by width,
    plus the memoized steady state on a periodic workload.

    Two honestly separated numbers:

    * ``raw`` — ``predict_rows`` at full width, every packet computed.
      Bounded below by the per-packet GEMM floor of this machine, so
      the curve flattens once the weights are read once per round.
    * ``steady_state`` — quantized-key memoization (``exact=False``)
      under a periodic feature stream, *after* cache warmup: the regime
      the cache targets (steady traffic repeating its regime), where
      packets stop paying for GEMMs at all.  The hit rate is reported
      alongside — the speedup only applies where the workload actually
      revisits cached transitions.

    Speedups are against the *same-run* scalar fused float32 engine —
    the strongest pre-existing path, measured here under identical
    conditions rather than read from a previous JSON.
    """
    model, standardizer = _model_and_standardizer("lstm", "shared")
    kwargs = dict(
        feature_mean=standardizer.mean, feature_std=standardizer.std
    )
    compiled64 = compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=np.float64, **kwargs
    )
    compiled32 = compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=np.float32, **kwargs
    )
    input_size = model.config.input_size
    features = np.random.default_rng(11).normal(size=(4000, input_size))

    # Scalar baseline and every width run interleaved trials (machine
    # speed drifts on shared runners; a baseline measured once before
    # the sweep would make every speedup a comparison across epochs).
    scalar32 = compiled32.engine()
    pool = [features[i] for i in range(len(features))]
    setups = {}
    for width in BATCH_WIDTHS:
        rows = list(range(width))
        rounds = max(2, PACKETS // width)
        feature_rounds = [
            [pool[(r * width + i) % len(pool)] for i in range(width)]
            for r in range(rounds)
        ]
        macro_rounds = [
            [(r + i) % 4 for i in range(width)] for r in range(rounds)
        ]
        engines = {
            "f32": make_batched_engine(compiled32, width),
            "f64": make_batched_engine(compiled64, width),
        }
        setups[width] = (rows, feature_rounds, macro_rounds, engines)

    _time_engine(scalar32, features, WARMUP)
    for width, (rows, feature_rounds, macro_rounds, engines) in setups.items():
        for engine in engines.values():
            _time_batched(
                engine, feature_rounds[: max(1, WARMUP // width)],
                macro_rounds, rows,
            )
    scalar_trials: list[float] = []
    raw_trials: dict[tuple, list[float]] = {
        (width, label): [] for width in BATCH_WIDTHS for label in ("f32", "f64")
    }
    for _ in range(TRIALS):
        scalar_trials.append(_time_engine(scalar32, features, PACKETS))
        for width, (rows, feature_rounds, macro_rounds, engines) in setups.items():
            for label, engine in engines.items():
                raw_trials[(width, label)].append(
                    _time_batched(engine, feature_rounds, macro_rounds, rows)
                )
    scalar_us = min(scalar_trials) * 1e6
    raw: dict[str, dict[str, float]] = {}
    for width in BATCH_WIDTHS:
        entry: dict[str, float] = {}
        for label in ("f32", "f64"):
            per_packet = min(raw_trials[(width, label)])
            entry[f"{label}_us"] = per_packet * 1e6
            entry[f"speedup_{label}"] = scalar_us / (per_packet * 1e6)
        raw[str(width)] = entry

    # Steady state: 64 lanes fed an exactly periodic stream; warm the
    # cache until the quantized orbit closes, then time pure hits.
    width = 64
    period = 4
    rows = list(range(width))
    engine = make_batched_engine(
        compiled32, width, memo=MemoConfig(exact=False)
    )
    rng = np.random.default_rng(12)
    periodic = [rng.normal(size=input_size) for _ in range(period)]
    warmup_rounds = 4500 if FULL_SIZE else 30
    measure_rounds = 1500 if FULL_SIZE else 10
    step = 0
    for _ in range(warmup_rounds):
        engine.predict_rows(
            [periodic[step % period]] * width, [step % 4] * width, rows
        )
        step += 1
    engine.memo_hits = engine.memo_misses = 0
    best = float("inf")
    for _ in range(TRIALS):
        start = time.perf_counter()
        for _ in range(measure_rounds):
            engine.predict_rows(
                [periodic[step % period]] * width, [step % 4] * width, rows
            )
            step += 1
        best = min(best, (time.perf_counter() - start) / (measure_rounds * width))
    seen = engine.memo_hits + engine.memo_misses
    steady_us = best * 1e6
    steady = {
        "batch": width,
        "workload": f"period-{period} feature stream, all lanes",
        "warmup_rounds": warmup_rounds,
        "us_per_packet": steady_us,
        "hit_rate": engine.memo_hits / seen if seen else 0.0,
        "speedup": scalar_us / steady_us,
    }
    return {"scalar_f32_us": scalar_us, "raw": raw, "steady_state": steady}


def _bench_metrics_overhead() -> dict[str, float]:
    """Per-packet cost of the observability layer on the hybrid hot path.

    Reproduces ``ApproximatedCluster.receive``'s instrumentation
    pattern exactly — ``perf_counter`` bracketing and the elapsed-time
    accumulation exist with or without metrics, so the obs layer adds:

    * metrics absent/disabled — handles are ``None``; the marginal cost
      is two ``is not None`` branches per packet (asserted < 2%);
    * metrics enabled — two real ``Histogram.observe`` calls (reported,
      not bounded: enabling telemetry is allowed to cost something).
    """
    from repro.obs import MetricsRegistry

    model, standardizer = _model_and_standardizer("lstm", "shared")
    compiled = compile_inference(
        model.lstm, model.drop_head, model.latency_head,
        feature_mean=standardizer.mean, feature_std=standardizer.std,
        dtype=np.float64,
    )
    engine = compiled.engine()
    features = np.random.default_rng(8).normal(size=(4000, model.config.input_size))
    registry = MetricsRegistry(enabled=True)
    live_infer = registry.histogram("hybrid.inference_seconds", cluster="bench")
    live_latency = registry.histogram("hybrid.predicted_latency_s", cluster="bench")

    count = len(features)

    def run_bare(n: int) -> float:
        # The pre-obs hot path: time + predict + accumulate, no
        # instrumentation code at all.
        total = 0.0
        start = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()
            engine.predict(features[i % count], macro_index=i % 4)
            total += time.perf_counter() - t0
        elapsed_all = time.perf_counter() - start
        assert total >= 0.0  # keep the accumulation live
        return elapsed_all / n

    def run_guarded(n: int, m_infer, m_latency) -> float:
        # The post-obs hot path: identical plus the two handle
        # branches; None handles == metrics absent or disabled.
        total = 0.0
        start = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()
            _, latency = engine.predict(features[i % count], macro_index=i % 4)
            elapsed = time.perf_counter() - t0
            total += elapsed
            if m_infer is not None:
                m_infer.observe(elapsed)
            if m_latency is not None:
                m_latency.observe(latency)
        elapsed_all = time.perf_counter() - start
        assert total >= 0.0
        return elapsed_all / n

    run_bare(WARMUP)
    run_guarded(WARMUP, None, None)
    run_guarded(WARMUP, live_infer, live_latency)
    # The asserted quantity is a ~1% ratio between two near-identical
    # loops, far below this class of shared runner's drift.  So the
    # conditions run as back-to-back *pairs* of short chunks — noise
    # slow enough to cover a whole pair cancels in the per-pair ratio —
    # and the overhead is the median ratio, immune to the occasional
    # chunk that eats a scheduling burst.  Minima over the same chunks
    # still report the absolute per-packet floors.
    import statistics

    chunk = 100
    pairs = max(1, TRIALS * PACKETS // chunk)
    bare_s, disabled_s, enabled_s = [], [], []
    disabled_ratio, enabled_ratio = [], []
    for _ in range(pairs):
        bare_i = run_bare(chunk)
        disabled_i = run_guarded(chunk, None, None)
        enabled_i = run_guarded(chunk, live_infer, live_latency)
        bare_s.append(bare_i)
        disabled_s.append(disabled_i)
        enabled_s.append(enabled_i)
        disabled_ratio.append(disabled_i / bare_i)
        enabled_ratio.append(enabled_i / bare_i)
    return {
        "bare_us": min(bare_s) * 1e6,
        "disabled_us": min(disabled_s) * 1e6,
        "enabled_us": min(enabled_s) * 1e6,
        "disabled_overhead": statistics.median(disabled_ratio) - 1.0,
        "enabled_overhead": statistics.median(enabled_ratio) - 1.0,
    }


def _bench_trace_overhead() -> dict[str, float]:
    """Per-packet cost of the flight recorder on the hybrid hot path.

    Two estimators, one synthetic and one end-to-end:

    *Synthetic rotation* reproduces the traced ``ApproximatedCluster``
    delivery exactly: ``engine.predict`` then one ``packet_span`` (flow
    attribution + a tuple append into the bounded ring, at capacity, so
    steady-state eviction is included).  Same paired-chunk median
    estimator as the metrics section, with one refinement: the three
    conditions *rotate* order across pairs, so drift inside one pair
    (frequency scaling, a neighbour's burst) biases each condition
    equally often and cancels in the median.  This gates the disabled
    path (a single ``is not None`` branch, < 0.5%).  The enabled ratio
    is reported but not gated: each GEMM evicts the recorder's cache
    lines, so against a pure-inference denominator the ratio is a
    cache-cold worst case, several-fold above tracing's share of a
    real run.

    *End-to-end accounting* prices the enabled path against the
    denominator the contract names — a whole hybrid simulation.  Direct
    traced/untraced wallclock (or CPU) pairs cannot resolve ~1% on a
    shared runner (run-to-run spread is an order of magnitude larger),
    so instead every recorder call in a real traced run is timed in
    place: a subclass brackets ``packet_span``/``span``/``event`` with
    ``perf_counter`` and the estimate is the median per-call cost times
    the deterministic call count, over the minimum untraced CPU time
    across trials.  The numerator is biased high (it pays an extra
    method dispatch and the clock pair on every call) and the
    denominator is a floor, so the estimate is conservative — and,
    unlike the synthetic ratio, the recorder sees the cache state a
    real simulation gives it.  This gates the enabled path (< 2%:
    following a flow must stay cheap enough to leave tracing on during
    real measurements).
    """
    import statistics

    from repro.core.hybrid import HybridConfig
    from repro.core.pipeline import (
        ExperimentConfig,
        run_hybrid_simulation,
        train_reusable_model,
    )
    from repro.obs.trace import FlightRecorder
    from repro.topology.clos import ClosParams

    model, standardizer = _model_and_standardizer("lstm", "shared")
    compiled = compile_inference(
        model.lstm, model.drop_head, model.latency_head,
        feature_mean=standardizer.mean, feature_std=standardizer.std,
        dtype=np.float64,
    )
    engine = compiled.engine()
    features = np.random.default_rng(9).normal(size=(4000, model.config.input_size))
    count = len(features)

    class _Packet:
        __slots__ = ("src", "dst", "src_port", "dst_port")

        def __init__(self):
            self.src, self.dst = "h-bench", "h-peer"
            self.src_port, self.dst_port = 40001, 80

    packet = _Packet()
    tracer = FlightRecorder(seed=7, capacity=4096)
    tracer.register_flow(0, key=("h-bench", 40001))
    # Pre-fill the ring so the timed appends all pay eviction.
    for _ in range(tracer.capacity + 1):
        tracer.event("warm", t=0.0)

    def run(n: int, recorder) -> float:
        # The traced delivery path: predict, then one guarded
        # packet_span (cluster_model.py's exact pattern).
        start = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()
            _, latency = engine.predict(features[i % count], macro_index=i % 4)
            if recorder is not None:
                recorder.packet_span(
                    "model.decide", t0, t0 + latency, packet,
                    "bench", "core-1", False,
                )
        return (time.perf_counter() - start) / n

    run(WARMUP, None)
    run(WARMUP, tracer)
    chunk = 100
    pairs = max(3, TRIALS * PACKETS // chunk)
    rotations = (
        ("bare", "disabled", "enabled"),
        ("disabled", "enabled", "bare"),
        ("enabled", "bare", "disabled"),
    )
    samples: dict[str, list[float]] = {"bare": [], "disabled": [], "enabled": []}
    disabled_ratio, enabled_ratio, record_cost = [], [], []
    for index in range(pairs):
        timed: dict[str, float] = {}
        for condition in rotations[index % 3]:
            timed[condition] = run(chunk, tracer if condition == "enabled" else None)
        for condition, value in timed.items():
            samples[condition].append(value)
        disabled_ratio.append(timed["disabled"] / timed["bare"])
        enabled_ratio.append(timed["enabled"] / timed["bare"])
        record_cost.append(timed["enabled"] - timed["bare"])
    # Cache-cold per-record ceiling; a negative median just means the
    # cost is below this run's noise floor, so clamp at free.
    per_record_s = max(statistics.median(record_cost), 0.0)

    # --- end-to-end accounting against a real hybrid run -------------
    class _TimedRecorder(FlightRecorder):
        """Times every record call in place (biases the cost *up* by
        one extra dispatch plus the clock pair — conservative)."""

        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.call_seconds: list[float] = []

        def packet_span(self, *a):
            start = time.perf_counter()
            trace = super().packet_span(*a)
            self.call_seconds.append(time.perf_counter() - start)
            return trace

        def span(self, *a, **kw):
            start = time.perf_counter()
            super().span(*a, **kw)
            self.call_seconds.append(time.perf_counter() - start)

        def event(self, *a, **kw):
            start = time.perf_counter()
            super().event(*a, **kw)
            self.call_seconds.append(time.perf_counter() - start)

    trained, _ = train_reusable_model(
        ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.004, seed=7
        ),
        MicroModelConfig(
            hidden_size=16, num_layers=1, window=8, train_batches=10
        ),
    )
    run_config = ExperimentConfig(
        clos=ClosParams(clusters=2), load=0.5, duration_s=0.003, seed=11
    )
    hybrid = HybridConfig(elide_remote_traffic=False)
    run_tracer = _TimedRecorder(seed=run_config.seed)
    run_hybrid_simulation(run_config, trained, hybrid=hybrid, tracer=run_tracer)
    # Median per-call cost x call count: robust to the occasional call
    # that absorbs a scheduler preemption, faithful to the cache state
    # the recorder actually runs in.
    in_situ_record_s = statistics.median(run_tracer.call_seconds)
    run_records = run_tracer.recorded
    cpu_samples = []
    for _ in range(3):
        cpu0 = time.process_time()
        run_hybrid_simulation(run_config, trained, hybrid=hybrid)
        cpu_samples.append(time.process_time() - cpu0)
    run_cpu_s = min(cpu_samples)
    return {
        "bare_us": min(samples["bare"]) * 1e6,
        "disabled_us": min(samples["disabled"]) * 1e6,
        "enabled_us": min(samples["enabled"]) * 1e6,
        "disabled_overhead": statistics.median(disabled_ratio) - 1.0,
        "enabled_overhead": statistics.median(enabled_ratio) - 1.0,
        "per_record_cold_us": per_record_s * 1e6,
        "per_record_in_situ_us": in_situ_record_s * 1e6,
        "run_records": run_records,
        "run_cpu_s": run_cpu_s,
        "enabled_overhead_estimate": in_situ_record_s * run_records / run_cpu_s,
    }


def _bench_model_packet_budget() -> dict:
    """Where one model packet's time goes inside a real hybrid run.

    Runs the ledger's ``hybrid_clos16`` workload (16-cluster Clos,
    matched load, float64, the ledger's own trained bundle; trial 0 of
    seed 42) untraced, with ``perf_counter`` pairs around the calls of
    the per-packet path: ``ApproximatedCluster.receive`` (the whole
    packet), ``RegionFeatureExtractor.extract_into`` (header ->
    features, written into the engine's input buffer) and the model
    step (the pair ``receive`` itself keeps for ``inference_seconds``).
    Bookkeeping is the remainder: drop Bernoulli, macro observation,
    statistics, conflict resolution, the delivery event — and the two
    added clock pairs, ~0.3 us.  Unlike the synthetic sections above,
    every phase runs in the cache state a simulation gives it, 1.3-2x the
    cost of the same call in a tight loop.  The
    median over three runs is reported per phase.
    """
    import statistics
    from unittest import mock

    from benchmarks.ledger import adapter, measure, workloads
    from repro.core.cluster_model import ApproximatedCluster
    from repro.core.features import RegionFeatureExtractor

    workload = workloads.BY_NAME["hybrid_clos16"]
    profile = measure.PROFILES["full" if FULL_SIZE else "quick"]
    if profile.sim_s is not None:
        workload = workloads.at_duration(workload, profile.sim_s)
    measure.CACHE_DIR.mkdir(exist_ok=True)
    model_dir, _ = adapter.ensure_model(measure.CACHE_DIR, profile.train_batches)
    seed = measure.trial_seed(42, 0)

    def clocked(function, total):
        def timed(*args):
            start = time.perf_counter()
            result = function(*args)
            total[0] += time.perf_counter() - start
            return result

        return timed

    samples = []
    for _ in range(3 if FULL_SIZE else 1):
        receive_s, extract_s = [0.0], [0.0]
        with mock.patch.object(
            ApproximatedCluster, "receive",
            clocked(ApproximatedCluster.receive, receive_s),
        ), mock.patch.object(
            RegionFeatureExtractor, "extract_into",
            clocked(RegionFeatureExtractor.extract_into, extract_s),
        ):
            _, hybrid_sim = adapter.execute(workload, seed, model_dir)
        packets = hybrid_sim.model_packets_handled()
        receive_us = receive_s[0] / packets * 1e6
        extract_us = extract_s[0] / packets * 1e6
        step_us = hybrid_sim.inference_seconds() / packets * 1e6
        samples.append(
            (receive_us, extract_us, step_us, receive_us - extract_us - step_us)
        )
    receive_us, extract_us, step_us, bookkeeping_us = (
        statistics.median(column) for column in zip(*samples)
    )
    return {
        "workload": f"ledger {workload.name}, traffic seed {seed}, float64",
        "model_packets": packets,
        "method": "in-run perf_counter pairs around receive / extract_into / "
        f"the model step; median of {len(samples)} untraced run(s); "
        "bookkeeping = remainder",
        "paired": MODEL_PACKET_BUDGET_PAIRED,
        "this_run": {
            "receive_us": receive_us,
            "extract_us": extract_us,
            "step_us": step_us,
            "bookkeeping_us": bookkeeping_us,
        },
    }


def test_hotpath_inference_speedup():
    """Fused vs. reference single-packet latency across model variants."""
    variants = {
        "lstm": ("lstm", "shared"),
        "gru": ("gru", "shared"),
        "lstm_per_macro": ("lstm", "per_macro"),
    }
    results = {name: _bench_variant(*spec) for name, spec in variants.items()}
    batched = _bench_batched()
    overhead = _bench_metrics_overhead()
    trace_overhead = _bench_trace_overhead()
    budget = _bench_model_packet_budget()

    default = results["lstm"]
    payload = {
        "benchmark": "hotpath_inference",
        "model": "2-layer/128-hidden (paper default), 21 features",
        "timed_packets": PACKETS,
        "trials": TRIALS,
        "method": "min over interleaved trials of mean per-packet seconds",
        # Headline: the fused engine's speed mode vs. the only
        # pre-existing path (reference predict_step, float64).
        "speedup": default["speedup_float32"],
        "speedup_float64": default["speedup_float64"],
        "max_abs_diff_float64": default["max_abs_diff_float64"],
        "variants": results,
        "batched": batched,
        "metrics_overhead": overhead,
        "trace_overhead": trace_overhead,
        "model_packet_budget": budget,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            name,
            f"{r['reference_us']:.1f}",
            f"{r['fused_float64_us']:.1f}",
            f"{r['fused_float32_us']:.1f}",
            f"{r['speedup_float64']:.2f}x",
            f"{r['speedup_float32']:.2f}x",
            f"{r['max_abs_diff_float64']:.2e}",
        ]
        for name, r in results.items()
    ]
    steady = batched["steady_state"]
    batched_rows = [
        [
            width,
            f"{entry['f64_us']:.2f}",
            f"{entry['f32_us']:.2f}",
            f"{entry['speedup_f64']:.2f}x",
            f"{entry['speedup_f32']:.2f}x",
        ]
        for width, entry in batched["raw"].items()
    ]
    batched_rows.append(
        [
            f"{steady['batch']} (memo)",
            "-",
            f"{steady['us_per_packet']:.2f}",
            "-",
            f"{steady['speedup']:.2f}x @ {steady['hit_rate']:.0%} hits",
        ]
    )
    batched_table = format_table(
        ["batch", "f64 us/pkt", "f32 us/pkt", "f64 speedup", "f32 speedup"],
        batched_rows,
    ) + f"\n(speedups vs same-run scalar fused f32: {batched['scalar_f32_us']:.2f} us/pkt)"
    overhead_table = format_table(
        ["obs mode", "us/pkt", "overhead"],
        [
            ["bare (pre-obs)", f"{overhead['bare_us']:.2f}", "-"],
            [
                "metrics disabled",
                f"{overhead['disabled_us']:.2f}",
                f"{overhead['disabled_overhead']:+.2%}",
            ],
            [
                "metrics enabled",
                f"{overhead['enabled_us']:.2f}",
                f"{overhead['enabled_overhead']:+.2%}",
            ],
            [
                "tracing disabled",
                f"{trace_overhead['disabled_us']:.2f}",
                f"{trace_overhead['disabled_overhead']:+.2%}",
            ],
            [
                "tracing enabled (cache-cold)",
                f"{trace_overhead['enabled_us']:.2f}",
                f"{trace_overhead['enabled_overhead']:+.2%}",
            ],
            [
                "tracing end-to-end (est)",
                f"{trace_overhead['per_record_in_situ_us']:.2f}/rec",
                f"{trace_overhead['enabled_overhead_estimate']:+.2%}",
            ],
        ],
    )
    budget_table = format_table(
        ["model packet (in a run)", "receive", "extract", "step", "bookkeeping"],
        [
            [label] + [f"{row[key]:.2f}" for key in
                       ("receive_us", "extract_us", "step_us", "bookkeeping_us")]
            for label, row in (
                ("before (1e0a61f), paired us/pkt", budget["paired"]["before"]),
                ("after, paired us/pkt", budget["paired"]["after"]),
                ("this run us/pkt", budget["this_run"]),
            )
        ],
    ) + f"\n({budget['workload']}; {budget['method']})"
    write_result(
        "hotpath_inference",
        format_table(
            ["variant", "ref us/pkt", "f64 us/pkt", "f32 us/pkt",
             "f64 speedup", "f32 speedup", "f64 max diff"],
            rows,
        )
        + "\n\n"
        + batched_table
        + "\n\n"
        + overhead_table
        + "\n\n"
        + budget_table,
    )

    for name, r in results.items():
        assert r["max_abs_diff_float64"] <= EXACTNESS_BOUND, name
        assert r["speedup_float64"] >= MIN_SPEEDUP_F64, (name, r)
        assert r["speedup_float32"] >= MIN_SPEEDUP_F32, (name, r)
    if FULL_SIZE:
        # Smoke runs time too few rounds (and too few chunk pairs, for
        # the overhead median) for these to be meaningful; full-size
        # runs gate them.
        # The obs contract: not measuring must be (near-)free.
        assert (
            overhead["disabled_overhead"] < METRICS_DISABLED_OVERHEAD_BOUND
        ), overhead
        # And the tracing contract: even *measuring* a flow is cheap.
        # The enabled gate applies to the end-to-end accounting estimate
        # (see _bench_trace_overhead); the synthetic enabled ratio is a
        # cache-cold worst case and is reported, not gated.
        assert (
            trace_overhead["disabled_overhead"] < TRACE_DISABLED_OVERHEAD_BOUND
        ), trace_overhead
        assert (
            trace_overhead["enabled_overhead_estimate"]
            < TRACE_ENABLED_OVERHEAD_BOUND
        ), trace_overhead
        for width in ("64", "512"):
            assert (
                batched["raw"][width]["speedup_f32"] >= MIN_BATCHED_SPEEDUP_F32
            ), (width, batched)
        assert steady["speedup"] >= MIN_STEADY_SPEEDUP, steady
        assert steady["hit_rate"] >= MIN_STEADY_HIT_RATE, steady
