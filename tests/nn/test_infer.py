"""Tests for the fused inference engine against the reference oracle.

The contract (ISSUE 1): in float64 the fused engine's outputs match
``MicroModel.predict_step`` to <= 1e-9 — for shared and ``per_macro``
heads, with and without a folded feature standardizer — while
allocating nothing per packet in steady state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.micro import MicroModel, MicroModelConfig
from repro.nn.data import Standardizer
from repro.nn.infer import CompiledRecurrentModel, compile_inference

TOLERANCE = 1e-9


def _make_model(
    heads: str,
    input_size: int,
    hidden_size: int,
    num_layers: int,
    seed: int,
    weight_scale: float = 0.4,
) -> MicroModel:
    config = MicroModelConfig(
        input_size=input_size,
        hidden_size=hidden_size,
        num_layers=num_layers,
        heads=heads,
        seed=seed,
    )
    model = MicroModel(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for parameter in model.parameters():
        parameter.value[...] = rng.normal(scale=weight_scale, size=parameter.value.shape)
    return model


def _make_standardizer(input_size: int, seed: int) -> Standardizer:
    rng = np.random.default_rng(seed + 2)
    standardizer = Standardizer()
    standardizer.mean = rng.normal(size=input_size)
    standardizer.std = np.abs(rng.normal(size=input_size)) + 0.5
    return standardizer


def _compare(
    model: MicroModel,
    standardizer: Standardizer | None,
    steps: int,
    seed: int,
    dtype=np.float64,
) -> float:
    """Max |fused - reference| over a feature stream."""
    mean = standardizer.mean if standardizer is not None else None
    std = standardizer.std if standardizer is not None else None
    compiled = compile_inference(
        model.lstm,
        model.drop_head,
        model.latency_head,
        feature_mean=mean,
        feature_std=std,
        dtype=dtype,
    )
    engine = compiled.engine()
    state = model.initial_state()
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for i in range(steps):
        raw = rng.normal(size=model.config.input_size)
        normalized = standardizer.transform(raw) if standardizer is not None else raw
        macro_index = i % 4
        drop_ref, latency_ref, state = model.predict_step(
            normalized, state, macro_index=macro_index
        )
        drop_fused, latency_fused = engine.predict(raw, macro_index=macro_index)
        worst = max(worst, abs(drop_ref - drop_fused), abs(latency_ref - latency_fused))
    return worst


# ----------------------------------------------------------------------
# Property tests: fused == reference for every architecture variant
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    input_size=st.integers(min_value=1, max_value=6),
    hidden_size=st.integers(min_value=1, max_value=8),
    num_layers=st.integers(min_value=1, max_value=2),
    fold_standardizer=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fused_matches_reference_property(
    heads, input_size, hidden_size, num_layers, fold_standardizer, seed
):
    model = _make_model(heads, input_size, hidden_size, num_layers, seed)
    standardizer = _make_standardizer(input_size, seed) if fold_standardizer else None
    assert _compare(model, standardizer, steps=12, seed=seed) <= TOLERANCE


@pytest.mark.parametrize("heads", ["shared", "per_macro"])
def test_fused_matches_reference_default_architecture(heads):
    """The paper's 2-layer/128-hidden configuration, long stream.

    Weights are scaled ~1/sqrt(H) (spectral radius ~1, like any sane
    initializer or trained model).  Larger random recurrent weights
    make the *dynamics themselves* chaotic, where both paths diverge
    from each other through legitimate last-bit rounding — that is a
    property of the weights, not an engine defect.
    """
    model = _make_model(
        heads, input_size=21, hidden_size=128, num_layers=2, seed=9,
        weight_scale=1.0 / np.sqrt(128),
    )
    standardizer = _make_standardizer(21, seed=9)
    assert _compare(model, standardizer, steps=300, seed=9) <= TOLERANCE


def test_fused_matches_reference_saturated_gates():
    """Large weights push pre-activations into the +-60 clip; the
    compiled negation/permutation must clip identically."""
    model = _make_model(
        "shared", input_size=4, hidden_size=8, num_layers=2, seed=5,
        weight_scale=30.0,
    )
    assert _compare(model, None, steps=50, seed=5) <= TOLERANCE


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def _default_compiled(dtype=np.float64) -> tuple[MicroModel, CompiledRecurrentModel]:
    model = _make_model("shared", 21, 32, 2, seed=17)
    compiled = compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=dtype
    )
    return model, compiled


def test_float32_mode_tracks_float64():
    model, compiled64 = _default_compiled(np.float64)
    compiled32 = compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=np.float32
    )
    e64, e32 = compiled64.engine(), compiled32.engine()
    rng = np.random.default_rng(0)
    for _ in range(100):
        raw = rng.normal(size=21)
        drop64, lat64 = e64.predict(raw)
        drop32, lat32 = e32.predict(raw)
        assert drop32 == pytest.approx(drop64, abs=1e-3)
        assert lat32 == pytest.approx(lat64, abs=1e-3)


def test_engines_are_independent_and_resettable():
    _, compiled = _default_compiled()
    rng = np.random.default_rng(1)
    stream = rng.normal(size=(20, 21))

    first = compiled.engine()
    baseline = [first.predict(x) for x in stream]

    # A second engine from the same compiled weights is unaffected by
    # the first's accumulated state.
    second = compiled.engine()
    assert [second.predict(x) for x in stream] == baseline

    # reset() restores the fresh-stream behaviour exactly.
    assert first.steps == 20
    first.reset()
    assert first.steps == 0
    assert [first.predict(x) for x in stream] == baseline


def test_compiled_weights_are_frozen_and_originals_untouched():
    model, compiled = _default_compiled()
    snapshots = [p.value.copy() for p in model.parameters()]
    for layer in compiled.layers:
        assert not layer.weight.flags.writeable
        assert not layer.bias.flags.writeable
        with pytest.raises(ValueError):
            layer.weight[0, 0] = 1.0
    assert not compiled.head_weight.flags.writeable
    engine = compiled.engine()
    rng = np.random.default_rng(2)
    for _ in range(10):
        engine.predict(rng.normal(size=21))
    for parameter, snapshot in zip(model.parameters(), snapshots):
        np.testing.assert_array_equal(parameter.value, snapshot)


def test_per_macro_head_routing():
    """Different macro indices must select different compiled heads."""
    model = _make_model("per_macro", 6, 8, 1, seed=23)
    compiled = compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=np.float64
    )
    rng = np.random.default_rng(3)
    raw = rng.normal(size=6)
    outputs = set()
    for macro_index in range(4):
        engine = compiled.engine()
        outputs.add(engine.predict(raw, macro_index=macro_index))
    assert len(outputs) == 4


def test_compile_rejects_bad_dtype_and_mismatched_heads():
    model, _ = _default_compiled()
    with pytest.raises(ValueError):
        compile_inference(
            model.lstm, model.drop_head, model.latency_head, dtype=np.int32
        )
    per_macro = _make_model("per_macro", 21, 32, 2, seed=3)
    with pytest.raises(TypeError):
        compile_inference(model.lstm, model.drop_head, per_macro.latency_head)


def test_trained_bundle_compiles_and_caches(trained_bundle):
    """TrainedClusterModel.compiled() caches per dtype and the engines
    consume raw features (standardizer folded in).

    Runs against the session-scoped *actually trained* bundle — the
    same object the hybrid and obs tests share — so the cache and
    fold-in guarantees are checked on real weights, not synthetic ones.
    """
    bundle = trained_bundle
    assert bundle.compiled() is bundle.compiled("float64")
    assert bundle.compiled(np.float32) is not bundle.compiled()

    for direction, direction_model in bundle.directions.items():
        engine = bundle.compiled().engine(direction)
        model = direction_model.model
        standardizer = direction_model.feature_standardizer
        state = model.initial_state()
        rng = np.random.default_rng(33)
        for _ in range(25):
            raw = rng.normal(size=model.config.input_size)
            drop_ref, latency_ref, state = model.predict_step(
                standardizer.transform(raw), state
            )
            drop_fused, latency_fused = engine.predict(raw)
            assert abs(drop_fused - drop_ref) <= TOLERANCE
            assert abs(latency_fused - latency_ref) <= TOLERANCE


# ----------------------------------------------------------------------
# step() on the engine's own input buffer (the hybrid hot path)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    hidden_size=st.integers(min_value=1, max_value=8),
    num_layers=st.integers(min_value=1, max_value=2),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_step_on_input_buffer_equals_predict(
    heads, hidden_size, num_layers, dtype, seed
):
    """Writing features into ``engine.input`` and calling ``step`` is
    ``predict`` without the copy: identical outputs, and the engine
    never writes to the buffer it reads from."""
    model = _make_model(heads, 5, hidden_size, num_layers, seed)
    standardizer = _make_standardizer(5, seed)
    compiled = compile_inference(
        model.lstm, model.drop_head, model.latency_head,
        feature_mean=standardizer.mean, feature_std=standardizer.std, dtype=dtype,
    )
    copying, in_place = compiled.engine(), compiled.engine()
    assert in_place.input.shape == (5,) and in_place.input.dtype == dtype
    rng = np.random.default_rng(seed + 4)
    for i in range(12):
        raw = rng.normal(size=5)
        in_place.input[...] = raw
        written = in_place.input.copy()
        assert in_place.step(i % 4) == copying.predict(raw, macro_index=i % 4)
        np.testing.assert_array_equal(in_place.input, written)
    assert in_place.steps == copying.steps == 12


def _lstm_step_op_by_op(compiled, hidden, cell, raw, macro_index):
    """One float64 LSTM step from the compiled weights, one numpy
    operation per gate expression and min-then-max for the clip — the
    arithmetic the engine's fused multiplies and single ``clip`` must
    reproduce bit for bit (simulated statistics hash these bits)."""
    x = np.asarray(raw, dtype=np.float64)
    for k, layer in enumerate(compiled.layers):
        h = layer.hidden_size
        z = np.dot(np.concatenate([x, hidden[k]]), layer.weight)
        z = z + layer.bias
        z = np.maximum(np.minimum(z, 60.0), -60.0)
        candidate = np.tanh(z[3 * h :])
        gates = np.reciprocal(np.exp(z[: 3 * h]) + 1.0)  # negated pre-activations
        cell[k] = gates[h : 2 * h] * cell[k] + gates[:h] * candidate
        hidden[k] = gates[2 * h :] * np.tanh(cell[k])
        x = hidden[k]
    weight = compiled.head_weight[macro_index] if compiled.per_macro else compiled.head_weight
    logit, latency_norm = np.dot(np.append(x, 1.0), weight).tolist()
    drop_prob = 1.0 / (1.0 + math.exp(-logit)) if logit > -500.0 else 0.0
    return drop_prob, latency_norm


@settings(max_examples=25, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    hidden_size=st.integers(min_value=1, max_value=33),
    num_layers=st.integers(min_value=1, max_value=2),
    weight_scale=st.sampled_from([0.4, 30.0]),  # 30: gates saturate into the clip
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_float64_lstm_step_is_bit_identical_to_op_by_op(
    heads, hidden_size, num_layers, weight_scale, seed
):
    model = _make_model(heads, 21, hidden_size, num_layers, seed, weight_scale)
    compiled = compile_inference(model.lstm, model.drop_head, model.latency_head)
    engine = compiled.engine()
    hidden = [np.zeros(hidden_size) for _ in range(num_layers)]
    cell = [np.zeros(hidden_size) for _ in range(num_layers)]
    rng = np.random.default_rng(seed + 5)
    for i in range(20):
        raw = rng.normal(size=21)
        want = _lstm_step_op_by_op(compiled, hidden, cell, raw, i % 4)
        assert engine.predict(raw, macro_index=i % 4) == want
