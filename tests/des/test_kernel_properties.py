"""Property-based tests of the event heap and kernel invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.entities import Timer
from repro.des.kernel import COMPACT_FLOOR, Simulator


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    )
)
def test_queue_pops_sorted(times):
    """Whatever insertion order, events run time-sorted."""
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, popped.append, t)
    sim.run()
    assert popped == sorted(times)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=100,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
)
def test_queue_respects_cancellation(times, cancel_mask):
    """Cancelled events never surface."""
    sim = Simulator()
    popped = []
    events = [sim.schedule_at(t, popped.append, t) for t in times]
    cancelled = {
        i for i, cancel in enumerate(cancel_mask[: len(events)]) if cancel
    }
    expected = []
    for i, event in enumerate(events):
        if i in cancelled:
            sim.cancel(event)
        else:
            expected.append(event[0])
    sim.run()
    assert popped == sorted(expected)


_delays = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), _delays),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60)),
            st.tuples(st.just("arm"), _delays),
            st.tuples(st.just("disarm"), st.just(0)),
            st.tuples(st.just("advance"), _delays),
        ),
        max_size=60,
    )
)
@settings(max_examples=150)
def test_cancel_and_rearm_bookkeeping(ops):
    """Interleaved schedule / cancel / Timer re-arm against a model:
    cancelled entries never run, ``events_cancelled`` is exact, and the
    timer's ``armed``/``expiry`` track its one live entry."""
    sim = Simulator()
    fired, timer_fired = [], []
    timer = Timer(sim, lambda: timer_fired.append(sim.now))
    handles, pending, cancelled = [], {}, set()
    expected_cancels = 0
    expiry = None  # the model's timer deadline
    for op, value in ops:
        if op == "schedule":
            pending[len(handles)] = sim.now + value
            handles.append(sim.schedule(value, fired.append, len(handles)))
        elif op == "cancel" and handles:
            tag = value % len(handles)
            sim.cancel(handles[tag])
            if pending.pop(tag, None) is not None:
                cancelled.add(tag)
                expected_cancels += 1
        elif op in ("arm", "disarm"):
            if expiry is not None:
                expected_cancels += 1
            if op == "arm":
                timer.arm(value)
                expiry = sim.now + value
            else:
                timer.cancel()
                expiry = None
        elif op == "advance":
            horizon = sim.now + value
            sim.run(until=horizon)
            pending = {tag: t for tag, t in pending.items() if t > horizon}
            if expiry is not None and expiry <= horizon:
                expiry = None
        assert sim.events_cancelled == expected_cancels
        assert timer.armed == (expiry is not None)
        assert timer.expiry == expiry
    sim.run()
    assert not cancelled & set(fired)
    assert sorted(fired) == sorted(set(range(len(handles))) - cancelled)
    assert sim.events_executed == len(fired) + len(timer_fired)
    assert sim.events_scheduled == sim.events_executed + sim.events_cancelled


def _dead_entries(sim: Simulator) -> int:
    return sum(1 for entry in sim._heap if entry[3] is None)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=4 * COMPACT_FLOOR,
        max_size=8 * COMPACT_FLOOR,
    ),
    cancel_share=st.floats(min_value=0.6, max_value=1.0),
    before_run=st.floats(min_value=0.0, max_value=1.0),
    horizon=st.floats(min_value=0.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_compaction_keeps_order_and_bounds_the_heap(
    times, cancel_share, before_run, horizon, seed
):
    """Enough cancels to cross the compaction floor, some before the
    run and the rest from inside its first event (so the heap is rebuilt
    under ``run()``'s feet), then a horizon and a drain: survivors run
    in ``(time, seq)`` order, the accounting balances, and after every
    cancel the heap holds at most ``2 * live + COMPACT_FLOOR`` entries."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
    doomed = random.Random(seed).sample(range(len(handles)), int(cancel_share * len(handles)))
    split = int(before_run * len(doomed))
    live = len(handles)
    compacted = False

    def cancel(batch) -> None:
        nonlocal live, compacted
        for i in batch:
            sim.cancel(handles[i])
            live -= 1
            assert sim.pending_events <= 2 * live + COMPACT_FLOOR
            compacted |= sim.pending_events == live

    cancel(doomed[:split])
    sim.schedule_at(0.0, cancel, doomed[split:], priority=-1)
    sim.run(until=horizon)
    assert sim._dead == _dead_entries(sim)
    sim.run()
    assert compacted
    assert sim._dead == _dead_entries(sim) == sim.pending_events == 0
    survivors = set(range(len(handles))) - set(doomed)
    assert fired == sorted(survivors, key=lambda i: (times[i], i))
    assert sim.events_scheduled == sim.events_executed + sim.events_cancelled
    assert sim.events_cancelled == len(doomed)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50)
def test_simulated_time_is_monotone(delays):
    """sim.now never runs backwards during a run."""
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.events_executed == len(delays)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20)
def test_named_streams_independent_of_order(seed):
    """Drawing from stream A never perturbs stream B."""
    from repro.des.rng import RandomStreams

    streams1 = RandomStreams(seed)
    a_first = streams1.stream("a").random(5).tolist()
    b_after = streams1.stream("b").random(5).tolist()

    streams2 = RandomStreams(seed)
    b_first = streams2.stream("b").random(5).tolist()
    a_after = streams2.stream("a").random(5).tolist()

    assert a_first == a_after
    assert b_after == b_first
