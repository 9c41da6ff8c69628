"""Sim-time probes and their interop with the raw packet trace.

The contracts under test: probe samples are stamped with *simulated*
time and recorded in event order, interleaved deterministically with
the traffic they observe; and attaching the observability layer leaves
a raw packet trace CSV byte-identical — instrumentation observes the
simulation, it never participates in it.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ExperimentConfig, make_generator
from repro.des.kernel import Simulator
from repro.net.network import Network
from repro.obs import (
    DEFAULT_TICKS,
    MetricsRegistry,
    SimTimeProbes,
    attach_network_probes,
    default_period,
)
from repro.obs.trace import record_packets, write_packet_csv
from repro.topology.clos import ClosParams, build_clos


class TestSimTimeProbes:
    def test_samples_are_sim_time_stamped_in_event_order(self):
        sim = Simulator(seed=1)
        reg = MetricsRegistry()
        ticks_seen: list[float] = []
        probes = SimTimeProbes(reg, sim, period_s=0.25)
        probes.add("clock", lambda: sim.now)
        probes.start()
        # Interleave ordinary events between probe ticks.
        for t in (0.1, 0.3, 0.6, 1.1):
            sim.schedule(t, lambda: ticks_seen.append(sim.now))
        sim.run(until=1.0)

        samples = reg.probe_samples
        assert [s.t_sim for s in samples] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        # The sampler saw the simulated clock, not wall-clock.
        assert [s.value for s in samples] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        # Event order == time order (the kernel interleaved probe ticks
        # with the other events deterministically).
        assert ticks_seen == [0.1, 0.3, 0.6]
        assert probes.ticks == 4

    def test_probe_feeds_matching_histogram(self):
        sim = Simulator(seed=1)
        reg = MetricsRegistry()
        SimTimeProbes(reg, sim, period_s=0.1).add(
            "depth", lambda: 7.0, cluster="c1"
        ).start()
        sim.schedule(1.0, lambda: None)  # keep the sim alive to 1.0
        sim.run(until=1.0)
        hist = reg.histogram("probe.depth", cluster="c1")
        assert hist.count == len(reg.probe_samples) == 10
        assert hist.summary()["min"] == hist.summary()["max"] == 7.0

    def test_stop_cancels_future_ticks(self):
        sim = Simulator(seed=1)
        reg = MetricsRegistry()
        probes = SimTimeProbes(reg, sim, period_s=0.1).add("x", lambda: 0.0).start()
        sim.schedule(0.25, probes.stop)
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        assert probes.ticks == 2  # 0.1 and 0.2 only

    def test_disabled_registry_schedules_nothing(self):
        sim = Simulator(seed=1)
        probes = SimTimeProbes(MetricsRegistry(enabled=False), sim, period_s=0.1)
        probes.add("x", lambda: 0.0).start()
        assert sim.pending_events == 0

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            SimTimeProbes(MetricsRegistry(), Simulator(), period_s=0.0)

    def test_default_period(self):
        assert default_period(1.0) == pytest.approx(1.0 / DEFAULT_TICKS)
        assert default_period(0.0) > 0  # never a zero period


class TestTracerInterop:
    CONFIG = ExperimentConfig(
        clos=ClosParams(clusters=2), load=0.2, duration_s=0.002, seed=11
    )

    def _traced_run(self, tmp_path, name: str, metrics: MetricsRegistry | None):
        """The CLI's manual simulate+trace assembly, obs optional."""
        config = self.CONFIG
        topology = build_clos(config.clos)
        sim = Simulator(seed=config.seed)
        if metrics is not None:
            sim.metrics = metrics
        network = Network(sim, topology, config=config.net)
        rows = record_packets(network)
        generator = make_generator(sim, network, config)
        if metrics is not None:
            attach_network_probes(
                metrics, sim, network, default_period(config.duration_s)
            )
        generator.start()
        sim.run(until=config.duration_s)
        path = tmp_path / name
        write_packet_csv(path, rows)
        return path

    @staticmethod
    def _normalized_rows(path) -> tuple[list[dict], list[int]]:
        """CSV rows with the process-global packet_id split out.

        ``packet_id`` comes from a global itertools counter, so any two
        runs in one process differ there by a constant offset; the
        *relative* id sequence plus every other column is what a
        metrics-attached run must reproduce exactly.
        """
        import csv

        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        ids = [int(row.pop("packet_id")) for row in rows]
        base = min(ids) if ids else 0
        return rows, [i - base for i in ids]

    def test_packet_trace_csv_identical_with_registry_attached(self, tmp_path):
        bare = self._traced_run(tmp_path, "bare.csv", None)
        reg = MetricsRegistry()
        observed = self._traced_run(tmp_path, "observed.csv", reg)
        bare_rows, bare_ids = self._normalized_rows(bare)
        observed_rows, observed_ids = self._normalized_rows(observed)
        assert len(bare_rows) > 0
        assert observed_rows == bare_rows
        assert observed_ids == bare_ids
        # The registry really was live during the traced run.
        assert len(reg.probe_samples) > 0
        assert reg.span("des.run").count == 1
