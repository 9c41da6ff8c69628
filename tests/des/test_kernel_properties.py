"""Property-based tests of the event heap and kernel invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.entities import Timer
from repro.des.kernel import Simulator


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
