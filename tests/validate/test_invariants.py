"""Unit tests for the runtime invariant checker."""

from __future__ import annotations

import pytest

from repro.core.cluster_model import MAX_REGION_LATENCY_S, MIN_REGION_LATENCY_S
from repro.des.errors import SchedulingError
from repro.des.kernel import Simulator
from repro.validate import INVARIANTS, InvariantChecker


class _FakeCluster:
    def __init__(self, name, handled, dropped, delivered):
        self.name = name
        self.packets_handled = handled
        self.packets_dropped = dropped
        self.packets_delivered = delivered


class TestRecording:
    def test_counts_and_detail(self):
        checker = InvariantChecker()
        checker.record("fcfs", 1.0, "out of order")
        checker.record("fcfs", 2.0, "again")
        assert checker.counts["fcfs"] == 2
        assert checker.total == 2
        assert checker.violations[0].invariant == "fcfs"
        assert checker.violations[0].time == 1.0

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker().record("telepathy", 0.0, "?")

    def test_detail_bounded_counts_exact(self):
        checker = InvariantChecker(max_recorded=3)
        for i in range(10):
            checker.record("causality", float(i), f"v{i}")
        assert len(checker.violations) == 3
        assert checker.counts["causality"] == 10

    def test_summary_shape(self):
        checker = InvariantChecker()
        checker.record("latency_bounds", 0.5, "too big")
        summary = checker.summary()
        assert summary["total"] == 1
        assert set(summary["counts"]) == set(INVARIANTS)
        assert summary["violations"][0]["detail"] == "too big"

    def test_assert_clean(self):
        checker = InvariantChecker()
        checker.assert_clean()  # no violations: passes
        checker.record("conservation", 0.0, "lost one")
        with pytest.raises(AssertionError, match="conservation"):
            checker.assert_clean()

    def test_obs_counters(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(enabled=True)
        checker = InvariantChecker(metrics=metrics)
        checker.record("fcfs", 0.0, "a")
        checker.record("fcfs", 0.0, "b")
        checker.record("causality", 0.0, "c")
        counters = {
            (c["name"], c["labels"]["invariant"]): c["value"]
            for c in metrics.snapshot()["counters"]
            if c["name"] == "validate.invariant_violations"
        }
        assert counters[("validate.invariant_violations", "fcfs")] == 2
        assert counters[("validate.invariant_violations", "causality")] == 1


class TestSimulatorAttachment:
    def test_past_scheduling_recorded_before_kernel_raises(self):
        sim = Simulator(seed=1)
        checker = InvariantChecker().attach_simulator(sim)
        sim.schedule(0.002, lambda: None)
        sim.run()
        assert sim.now == 0.002
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.001, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(-1e-9, lambda: None)
        assert checker.counts["causality"] == 2

    def test_legal_scheduling_untouched(self):
        sim = Simulator(seed=1)
        checker = InvariantChecker().attach_simulator(sim)
        fired = []
        sim.schedule(0.001, lambda: fired.append(sim.now))
        sim.schedule_at(0.002, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.001, 0.002]
        assert checker.total == 0

    def test_arguments_reach_the_callback(self):
        """Attaching observes scheduling without wrapping it: events
        that carry arguments fire with them."""
        sim = Simulator(seed=1)
        checker = InvariantChecker().attach_simulator(sim)
        fired = []
        sim.schedule(0.001, lambda *args: fired.append(args), "packet", "tor-0")
        sim.schedule_at(0.002, fired.append, "late", priority=-1)
        sim.run()
        assert fired == [("packet", "tor-0"), "late"]
        assert checker.total == 0


class TestHotPathChecks:
    def test_latency_bounds(self):
        checker = InvariantChecker()
        checker.check_latency("approx-c1", 0.0, MIN_REGION_LATENCY_S)
        checker.check_latency("approx-c1", 0.0, MAX_REGION_LATENCY_S)
        assert checker.total == 0
        checker.check_latency("approx-c1", 0.0, MIN_REGION_LATENCY_S / 2)
        checker.check_latency("approx-c1", 0.0, MAX_REGION_LATENCY_S * 2)
        assert checker.counts["latency_bounds"] == 2

    def test_fcfs_monotone_per_target(self):
        checker = InvariantChecker()
        checker.check_delivery("approx-c1", "server-a", 0.0, 1e-3)
        checker.check_delivery("approx-c1", "server-a", 0.0, 2e-3)
        checker.check_delivery("approx-c1", "server-b", 0.0, 1.5e-3)  # other queue
        assert checker.total == 0
        checker.check_delivery("approx-c1", "server-a", 0.0, 1e-3)  # regression
        assert checker.counts["fcfs"] == 1

    def test_delivery_causality(self):
        checker = InvariantChecker()
        checker.check_delivery("approx-c1", "server-a", 5e-3, 4e-3)
        assert checker.counts["causality"] == 1


class TestConservation:
    def test_balanced_clusters_clean(self):
        checker = InvariantChecker()
        checker.watch_cluster(_FakeCluster("approx-c1", 10, 3, 7))
        checker.watch_cluster(_FakeCluster("approx-c2", 0, 0, 0))
        checker.check_conservation(now=1.0)
        assert checker.total == 0

    def test_lost_packet_detected(self):
        checker = InvariantChecker()
        checker.watch_cluster(_FakeCluster("approx-c1", 10, 3, 6))
        checker.check_conservation(now=1.0)
        assert checker.counts["conservation"] == 1
        assert "approx-c1" in checker.violations[0].detail
