"""Tests for the lane-batched inference engine.

The contract: a round over B distinct lanes is equivalent to B
*independent scalar engines* each taking one ``predict`` step — bit
for bit in float64 at every width and in float32 below
``STACKED_MIN_WIDTH`` (event-identity of batched hybrid runs rests on
this), within tolerance for stacked float32 rounds.  The exact memo
must be outcome-identical to the unmemoized engine.
"""

from __future__ import annotations

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.micro import MicroModel, MicroModelConfig
from repro.nn.infer import compile_inference
from repro.nn import batch
from repro.nn.batch import STACKED_MIN_WIDTH, make_batched_engine

F32_TOLERANCE = 5e-3


def _make_model(heads, input_size, hidden_size, num_layers, seed) -> MicroModel:
    config = MicroModelConfig(
        input_size=input_size,
        hidden_size=hidden_size,
        num_layers=num_layers,
        heads=heads,
        seed=seed,
    )
    model = MicroModel(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    scale = 1.0 / np.sqrt(hidden_size)
    for parameter in model.parameters():
        parameter.value[...] = rng.normal(scale=scale, size=parameter.value.shape)
    return model


def _compiled(heads, input_size, hidden_size, num_layers, seed, dtype):
    model = _make_model(heads, input_size, hidden_size, num_layers, seed)
    return compile_inference(
        model.lstm, model.drop_head, model.latency_head, dtype=dtype
    )


def _run_pair(compiled, n_lanes, schedule, seed, memo=False):
    """Drive batched lanes and independent scalar engines through the
    same per-lane feature streams; returns (batched, scalar) outcome
    lists in schedule order.

    ``schedule`` is a list of rounds; each round is a list of distinct
    lane ids stepping together (ragged batches included).
    """
    batched = make_batched_engine(compiled, n_lanes, memo=memo)
    scalars = [compiled.engine() for _ in range(n_lanes)]
    rng = np.random.default_rng(seed + 7)
    got, want = [], []
    for rounds, rows in enumerate(schedule):
        feats = [rng.normal(size=compiled.input_size) for _ in rows]
        macros = [(rounds + row) % 4 for row in rows]
        got.extend(batched.predict_rows(feats, macros, rows))
        for x, m, row in zip(feats, macros, rows):
            want.append(scalars[row].predict(x, macro_index=m))
    return got, want


def _schedule(n_lanes, rounds, rng):
    """Random ragged schedule: each round steps a random subset of lanes."""
    out = []
    for _ in range(rounds):
        width = int(rng.integers(1, n_lanes + 1))
        rows = sorted(rng.choice(n_lanes, size=width, replace=False).tolist())
        out.append(rows)
    return out


# ----------------------------------------------------------------------
# Property: batched == N independent scalar engines
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    input_size=st.integers(min_value=1, max_value=6),
    hidden_size=st.integers(min_value=1, max_value=8),
    num_layers=st.integers(min_value=1, max_value=2),
    n_lanes=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batched_float64_bit_identical_property(
    heads, input_size, hidden_size, num_layers, n_lanes, seed
):
    compiled = _compiled(heads, input_size, hidden_size, num_layers, seed, np.float64)
    schedule = _schedule(n_lanes, rounds=8, rng=np.random.default_rng(seed + 13))
    got, want = _run_pair(compiled, n_lanes, schedule, seed)
    assert got == want  # bit-exact, not approx


@settings(max_examples=10, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batched_float32_within_tolerance_property(heads, seed):
    compiled = _compiled(heads, 6, 16, 2, seed, np.float32)
    schedule = _schedule(4, rounds=8, rng=np.random.default_rng(seed + 13))
    got, want = _run_pair(compiled, 4, schedule, seed)
    for (drop_b, lat_b), (drop_s, lat_s) in zip(got, want):
        assert drop_b == pytest.approx(drop_s, abs=F32_TOLERANCE)
        assert lat_b == pytest.approx(lat_s, abs=F32_TOLERANCE)


@pytest.mark.parametrize("heads", ["shared", "per_macro"])
def test_batched_float64_long_stream_full_and_ragged(heads):
    """The paper-sized architecture over a long mixed schedule: full
    batches (the in-place fast path) interleaved with ragged ones
    (gather/scatter) and width-1 rounds (the fallback)."""
    compiled = _compiled(heads, 21, 64, 2, seed=3, dtype=np.float64)
    rng = np.random.default_rng(29)
    schedule = [[0, 1, 2, 3]] * 10 + _schedule(4, 30, rng) + [[2]] * 5 + [[0, 1, 2, 3]] * 10
    got, want = _run_pair(compiled, 4, schedule, seed=3)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    num_layers=st.integers(min_value=1, max_value=2),
    dtype=st.sampled_from([np.float64, np.float32]),
    memo=st.booleans(),
    pool=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lane_step_is_width_one_batch_property(
    heads, num_layers, dtype, memo, pool, seed
):
    """On three lanes every round is its lanes' scalar steps; a twin
    engine runs the same rounds through the stacked ``predict_batch``.
    At width 1 a GEMV over a 1-D slice and one over a ``(1, K)`` row are
    the same BLAS call, so both agree bit for bit — in float32 too —
    and on this small model the 2-3 row GEMMs agree as well.  A small
    feature pool makes the memo hit."""
    compiled = _compiled(heads, 5, 6, num_layers, seed, dtype)
    lanes = make_batched_engine(compiled, 3, memo=memo)
    twin = make_batched_engine(compiled, 3)
    rng = np.random.default_rng(seed + 17)
    stream = rng.normal(scale=2.0, size=(pool, 5))
    widths = []
    for rows in _schedule(3, 24, rng):
        feats = [stream[int(rng.integers(pool))] for _ in rows]
        macros = [int(rng.integers(4)) for _ in rows]
        got = lanes.predict_rows(feats, macros, rows)
        assert got == twin.predict_batch(np.array(feats), macros, rows)
        widths.append(len(rows))
    assert lanes.steps + lanes.memo_hits == twin.steps == sum(widths)
    if not memo:  # memo hits leave lanes virtual: their buffers are stale
        for mine, theirs in zip(lanes.lanes, twin.lanes):
            np.testing.assert_array_equal(mine.capture_state(), theirs.capture_state())


@settings(max_examples=25, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    num_layers=st.integers(min_value=1, max_value=2),
    dtype=st.sampled_from([np.float64, np.float32]),
    memo=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_narrow_rounds_are_independent_scalar_steps_property(
    heads, num_layers, dtype, memo, seed
):
    """Rounds of width 1 to ``STACKED_MIN_WIDTH - 1`` on an engine wide
    enough to stack are bit-identical to independent scalar engines, in
    float32 as in float64, memo on or off.  A small feature pool makes
    the exact memo hit, on other lanes' entries too."""
    n_lanes = STACKED_MIN_WIDTH + 2
    compiled = _compiled(heads, 5, 6, num_layers, seed, dtype)
    engine = make_batched_engine(compiled, n_lanes, memo=memo)
    scalars = [compiled.engine() for _ in range(n_lanes)]
    rng = np.random.default_rng(seed + 23)
    pool = rng.normal(scale=2.0, size=(3, 5))
    packets = 0
    for _ in range(16):
        width = int(rng.integers(1, STACKED_MIN_WIDTH))
        rows = sorted(rng.choice(n_lanes, size=width, replace=False).tolist())
        feats = [pool[int(rng.integers(len(pool)))] for _ in rows]
        macros = [int(rng.integers(4)) for _ in rows]
        want = [
            scalars[row].predict(x, macro_index=m)
            for x, m, row in zip(feats, macros, rows)
        ]
        assert engine.predict_rows(feats, macros, rows) == want
        packets += width
    if memo:
        assert engine.memo_hits + engine.memo_misses == packets
        assert engine.steps == engine.memo_misses
    else:
        assert engine.steps == packets


@pytest.mark.parametrize("memo", [False, True])
def test_wide_float32_rounds_run_the_stacked_product(memo):
    """From ``STACKED_MIN_WIDTH`` a float32 round is ``predict_batch``
    (bit for bit against a twin engine; with the memo, every step of a
    never-repeating stream is a miss computed at the round's width) and
    stays within the float32 tolerance of independent scalar engines.
    Float64 never stacks."""
    n_lanes = STACKED_MIN_WIDTH + 4
    compiled = _compiled("per_macro", 6, 16, 2, seed=5, dtype=np.float32)
    engine = make_batched_engine(compiled, n_lanes, memo=memo)
    assert engine.stacked_from == STACKED_MIN_WIDTH
    twin = make_batched_engine(compiled, n_lanes)
    scalars = [compiled.engine() for _ in range(n_lanes)]
    rng = np.random.default_rng(61)
    for _ in range(12):
        width = int(rng.integers(STACKED_MIN_WIDTH, n_lanes + 1))
        rows = sorted(rng.choice(n_lanes, size=width, replace=False).tolist())
        feats = rng.normal(size=(width, 6))
        macros = [int(rng.integers(4)) for _ in rows]
        got = engine.predict_rows(list(feats), macros, rows)
        assert got == twin.predict_batch(feats, macros, rows)
        for (drop, latency), x, m, row in zip(got, feats, macros, rows):
            want_drop, want_latency = scalars[row].predict(x, macro_index=m)
            assert drop == pytest.approx(want_drop, abs=F32_TOLERANCE)
            assert latency == pytest.approx(want_latency, abs=F32_TOLERANCE)
    assert engine.memo_hits == 0
    narrow = make_batched_engine(compiled, STACKED_MIN_WIDTH - 1)
    f64 = _compiled("per_macro", 6, 16, 2, seed=5, dtype=np.float64)
    for never in (narrow, make_batched_engine(f64, n_lanes)):
        assert never.stacked_from > never.n_lanes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_exact_memo_hits_only_on_identical_bytes(dtype):
    """An exact key is the raw bytes of (macro, input, state): a second
    lane at the same state hits on the same input and macro, and misses
    on a one-ulp input change, another macro, another state — or a
    signed zero, whose bytes differ although its arithmetic does not."""
    compiled = _compiled("per_macro", 4, 8, 1, seed=53, dtype=dtype)
    engine = make_batched_engine(compiled, 2, memo=True)
    x = np.array([0.5, -1.25, 2.0, 0.0], dtype=dtype)
    nudged = x.copy()
    nudged[1] = np.nextafter(nudged[1], dtype(np.inf))
    signed_zero = x.copy()
    signed_zero[3] = -0.0

    def hits(row, features, macro) -> bool:
        before = engine.memo_hits
        engine.predict_rows([features], [macro], [row])
        return engine.memo_hits > before

    for other, macro, hit in (
        (x, 1, True),
        (nudged, 1, False),
        (x, 2, False),
        (signed_zero, 1, False),
    ):
        engine.reset()
        assert not hits(0, x, 1)  # lane 0, cold: computed and installed
        assert hits(1, other, macro) is hit
    engine.reset()
    assert not hits(0, x, 1)
    assert not hits(0, x, 1)  # same input and macro, lane 0's new state
    assert hits(1, x, 1) and hits(1, x, 1)  # lane 1 walks lane 0's steps
    # Counters survive reset: 12 packets, the 3 hits asserted above.
    assert (engine.memo_hits, engine.memo_misses) == (3, 9)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lane_restored_from_bytes_continues_bit_identically(dtype):
    """State bytes written back with ``np.frombuffer`` are the state: a
    lane restored from another's bytes continues bit for bit, and so
    does a memo lane that hit (virtual) and then missed."""
    compiled = _compiled("shared", 5, 7, 2, seed=59, dtype=dtype)
    rng = np.random.default_rng(67)
    warm = rng.normal(size=(6, 5))
    tail = rng.normal(size=(6, 5))
    lane, other = make_batched_engine(compiled, 2).lanes
    for x in warm:
        lane.predict(x, 1)
    other.restore_state(np.frombuffer(lane.state_bytes(), dtype=dtype))
    assert other.state_bytes() == lane.state_bytes()
    for i, x in enumerate(tail):
        assert other.predict(x, i % 4) == lane.predict(x, i % 4)

    engine = make_batched_engine(compiled, 2, memo=True)
    scalar = compiled.engine()
    for x in warm:
        engine.predict_rows([x], [1], [0])
    for x in warm:  # lane 1 replays lane 0's steps: all hits
        assert engine.predict_rows([x], [1], [1]) == [scalar.predict(x, 1)]
    assert engine.memo_hits == len(warm)
    for i, x in enumerate(tail):  # misses: lane 1 resumes from entry bytes
        assert engine.predict_rows([x], [i % 4], [1]) == [scalar.predict(x, i % 4)]
    assert engine.lanes[1].state_bytes() == scalar.state_bytes()


def test_reset_restores_fresh_lanes():
    compiled = _compiled("per_macro", 5, 12, 2, seed=19, dtype=np.float64)
    engine = make_batched_engine(compiled, 2, memo=True)
    rng = np.random.default_rng(6)
    stream = [rng.normal(size=5) for _ in range(12)]
    baseline = [engine.predict_rows([x], [i % 4], [i % 2]) for i, x in enumerate(stream)]
    engine.reset()
    assert engine.steps == 0
    again = [engine.predict_rows([x], [i % 4], [i % 2]) for i, x in enumerate(stream)]
    assert again == baseline


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    heads=st.sampled_from(["shared", "per_macro"]),
    n_lanes=st.integers(min_value=1, max_value=4),
    period=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_exact_memo_is_outcome_identical_property(heads, n_lanes, period, seed):
    """Exact-mode memoization must never change any outcome — under a
    periodic workload (the cache's target regime) hits are only taken
    when they are provably byte-identical to recomputation."""
    compiled = _compiled(heads, 4, 8, 1, seed, np.float64)
    rng = np.random.default_rng(seed + 13)
    periodic = [rng.normal(size=4) for _ in range(period)]
    plain = make_batched_engine(compiled, n_lanes)
    memoized = make_batched_engine(compiled, n_lanes, memo=True)
    rows = list(range(n_lanes))
    for step in range(30):
        feats = [periodic[step % period] for _ in rows]
        macros = [step % 4] * n_lanes
        assert memoized.predict_rows(feats, macros, rows) == plain.predict_rows(
            feats, macros, rows
        )


class _RecordingTable(OrderedDict):
    """The engine's key table, logging every insert and eviction."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []

    def __setitem__(self, key, value) -> None:
        self.log.append(("insert", key))
        super().__setitem__(key, value)

    def popitem(self, last=True):
        key, value = super().popitem(last)
        self.log.append(("evict", key))
        return key, value


@settings(max_examples=30, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=6),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # lane
            st.integers(min_value=0, max_value=5),  # feature choice
            st.integers(min_value=0, max_value=3),  # macro index
        ),
        min_size=1,
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_memo_fifo_eviction_matches_list_model(cap, steps, seed):
    """FIFO order of the key table against a list: a full table evicts
    its oldest key before every insert, and re-inserting a key that is
    still present keeps its place.  Keys hit on exact repeats."""
    compiled = _compiled("per_macro", 3, 4, 1, seed, np.float64)
    engine = make_batched_engine(compiled, 3, memo=True)
    engine._memo = table = _RecordingTable()
    choices = np.random.default_rng(seed).uniform(-0.4, 0.4, size=(6, 3))
    with mock.patch.object(batch, "MEMO_MAX_ENTRIES", cap):
        for row, choice, macro in steps:
            engine.predict_rows([choices[choice]], [macro], [row])
    model: list = []
    evicted: list = []
    for op, key in table.log:
        if op == "evict":
            evicted.append(key)
            continue
        if len(model) >= cap:
            expected = model.pop(0)
            assert evicted.pop(0) == expected
        if key not in model:
            model.append(key)
    assert evicted == []
    assert list(table) == model
    assert any(op == "insert" for op, _ in table.log)


def test_memo_capacity_is_bounded():
    compiled = _compiled("shared", 4, 8, 1, seed=43, dtype=np.float64)
    engine = make_batched_engine(compiled, 1, memo=True)
    rng = np.random.default_rng(9)
    with mock.patch.object(batch, "MEMO_MAX_ENTRIES", 16):
        for _ in range(200):  # every step is a distinct key -> all misses
            engine.predict_rows([rng.normal(size=4)], [0], [0])
    assert len(engine._memo) <= 16
    assert engine.memo_misses == 200


def test_rejects_bad_construction():
    compiled = _compiled("shared", 4, 8, 1, seed=47, dtype=np.float64)
    with pytest.raises(ValueError):
        make_batched_engine(compiled, 0)
