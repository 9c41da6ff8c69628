"""Tests for the Entity/Timer helpers and the counter that replaced the
DES monitors' drop counter."""

from __future__ import annotations

import pytest

from repro.des.entities import Entity, Timer
from repro.des.kernel import Simulator
from repro.obs.registry import Counter


class TestEntity:
    def test_schedule_relative(self, sim):
        entity = Entity(sim, "thing")
        fired = []
        entity.schedule(1.5, lambda: fired.append(entity.now))
        sim.run()
        assert fired == [1.5]

    def test_now_tracks_sim(self, sim):
        entity = Entity(sim, "thing")
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert entity.now == sim.now == 2.0


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(3.0)
        sim.run()
        assert fired == [3.0]
        assert not timer.armed

    def test_rearm_replaces_previous(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(5.0)
        timer.arm(1.0)
        sim.run()
        assert fired == [1.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_expiry_visible_while_armed(self, sim):
        timer = Timer(sim, lambda: None)
        assert timer.expiry is None
        timer.arm(4.0)
        assert timer.expiry == 4.0

    def test_cancel_idempotent(self, sim):
        timer = Timer(sim, lambda: None)
        timer.cancel()
        timer.cancel()  # no error

    def test_rearm_inside_callback(self, sim):
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 3:
                timer.arm(1.0)

        timer = Timer(sim, tick)
        timer.arm(1.0)
        sim.run()
        assert count[0] == 3


class TestCounter:
    def test_increments(self):
        c = Counter("drops")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_rejected(self):
        c = Counter("drops")
        with pytest.raises(ValueError):
            c.inc(-1)
