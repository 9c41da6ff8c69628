"""Unit tests for the DES kernel: ordering, cancellation, accounting."""

from __future__ import annotations

import pytest

from repro.des.errors import SchedulingError, SimulationError
from repro.des.kernel import Simulator


class TestEventQueue:
    """The kernel's event heap, driven through :class:`Simulator`."""

    def test_pop_orders_by_time(self):
        sim = Simulator()
        fired = []
        for time in (3.0, 1.0, 2.0):
            sim.schedule_at(time, fired.append, time)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_equal_times_fifo_by_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "first")
        sim.schedule_at(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "low", priority=5)
        sim.schedule_at(1.0, fired.append, "high", priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule_at(1.0, fired.append, "doomed")
        sim.schedule_at(2.0, fired.append, "survivor")
        sim.cancel(doomed)
        sim.run()
        assert fired == ["survivor"]
        assert sim.events_executed == 1
        assert sim.pending_events == 0

    def test_empty_queue(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0
        assert sim.events_executed == 0
        assert sim.pending_events == 0

    def test_entry_is_the_handle(self):
        """``[time, priority, seq, fn, args]``; ``fn`` is blanked once
        the entry has run or been cancelled."""
        sim = Simulator()
        ran = sim.schedule(1.0, print, "x", priority=3)
        doomed = sim.schedule(2.0, print)
        assert ran[:3] == [1.0, 3, 0] and ran[4] == ("x",)
        sim.cancel(doomed)
        assert doomed[3] is None and ran[3] is print
        sim.run(until=1.5)
        assert ran[3] is None

    def test_horizon_keeps_fifo_order_of_the_deferred_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "early")
        sim.run(until=1.0)
        sim.schedule_at(2.0, fired.append, "late")
        sim.run()
        assert fired == ["early", "late"]


class TestSimulatorScheduling:
    def test_run_executes_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_nonfinite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(1.0, lambda: None))
        sim.run()
        assert sim.events_executed == 2

    def test_arguments_are_passed(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda *args: fired.append(args), "a", 2)
        sim.schedule_at(2.0, fired.append, ("b",), priority=-1)
        sim.run()
        assert fired == [("a", 2), ("b",)]

    def test_error_hook_sees_message_before_raise(self):
        sim = Simulator()
        seen = []
        sim.on_scheduling_error = seen.append
        with pytest.raises(SchedulingError, match="past"):
            sim.schedule(-1.0, print)
        with pytest.raises(SchedulingError, match="finite"):
            sim.schedule_at(float("nan"), print)
        assert len(seen) == 2 and "past" in seen[0] and "finite" in seen[1]
        assert sim.events_scheduled == 0

    def test_zero_delay_executes_at_current_time(self):
        sim = Simulator()
        times = []
        def outer():
            sim.schedule(0.0, lambda: times.append(sim.now))
        sim.schedule(1.5, outer)
        sim.run()
        assert times == [1.5]


class TestSimulatorRun:
    def test_until_horizon_advances_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.events_executed == 0
        sim.run(until=10.0)
        assert sim.events_executed == 1

    def test_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_event_at_horizon_boundary_executes(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(True))
        sim.run(until=2.0)
        assert fired == [True]

    def test_max_events_limit(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_executed == 4

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_run_not_reentrant(self):
        sim = Simulator()
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()
        sim.schedule(1.0, reenter)
        sim.run()

    def test_nan_horizon_rejected(self):
        """Every ``time > nan`` is False: a NaN horizon would never be
        reached, so the run would not stop at it."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            sim.run(until=float("nan"))
        assert sim.events_executed == 0
        sim.run(until=2.0)  # the kernel is still usable
        assert sim.events_executed == 1

    def test_events_spawned_during_run_execute(self):
        sim = Simulator()
        fired = []
        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: cascade(depth + 1))
        sim.schedule(0.5, lambda: cascade(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.5


class TestAccounting:
    def test_counts(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(e1)
        sim.run()
        assert sim.events_scheduled == 2
        assert sim.events_cancelled == 1
        assert sim.events_executed == 1

    def test_cancel_executed_event_not_counted(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(event)
        assert sim.events_cancelled == 0

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.events_cancelled == 1

    def test_sim_seconds_per_second_positive(self):
        sim = Simulator()
        for i in range(100):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.wallclock_elapsed > 0
        assert sim.sim_seconds_per_second() > 0


class TestTiesByCause:
    """``order_ties_by_cause``: the one-process order, carried across a
    PDES barrier."""

    @staticmethod
    def _program(sim: Simulator, seed: int) -> list:
        """A tie-heavy event cascade whose draws follow execution order,
        so any reordering changes the trace.  An event scheduled for its
        parent's own instant never has a lower priority value."""
        import random

        rng = random.Random(seed)
        trace = []

        def event(label: int, priority: int) -> None:
            trace.append((sim.now, label))
            if len(trace) < 400:
                for _ in range(rng.randint(1, 3)):
                    delay = rng.choice((0.0, 0.0, 1.0, 2.0))
                    if delay == 0.0:
                        child = priority + rng.choice((0, 1))
                    else:
                        child = rng.choice((-1, 0, 1))
                    sim.schedule(
                        delay, event, rng.randrange(1000), child, priority=child
                    )

        for label in range(6):
            priority = rng.choice((-10, 0, 3))
            sim.schedule_at(
                rng.choice((0.0, 1.0)), event, label, priority, priority=priority
            )
        return trace

    @pytest.mark.parametrize("seed", range(40))
    def test_one_process_order_unchanged(self, seed):
        plain, causal = Simulator(), Simulator()
        expected = self._program(plain, seed)
        got = self._program(causal, seed)
        causal.order_ties_by_cause()
        plain.run()
        causal.run()
        assert got == expected

    def test_barrier_message_keeps_its_place_in_a_tie(self):
        """In one process, X (scheduled at t=1) runs before Y (scheduled
        at t=2) at their common time 3.  A worker that receives X at a
        barrier after scheduling Y runs X first only by its cause."""
        sender = Simulator()
        carried = []

        def hop() -> None:  # a cut link's zero-delay delivery
            carried.append(sender.running_cause(2))

        sender.schedule_at(1.0, lambda: sender.schedule(0.0, hop))
        sender.order_ties_by_cause()
        sender.run()

        for by_cause, expected in ((True, ["X", "Y"]), (False, ["Y", "X"])):
            receiver = Simulator()
            fired = []
            receiver.schedule_at(2.0, lambda: receiver.schedule(1.0, fired.append, "Y"))
            if by_cause:
                receiver.order_ties_by_cause()
            receiver.run(until=2.5)
            receiver.schedule_at(
                3.0, fired.append, "X", cause=carried[0] if by_cause else None
            )
            receiver.run()
            assert fired == expected

    def test_no_cause_unless_ordered_by_cause(self):
        sim = Simulator()
        causes = []
        sim.schedule(1.0, lambda: causes.append(sim.running_cause(4)))
        sim.run()
        assert causes == [None]
