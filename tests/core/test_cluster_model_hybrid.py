"""Tests for the approximated-cluster entity and hybrid assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster_model import MIN_REGION_LATENCY_S
from repro.core.hybrid import HybridConfig, HybridSimulation
from repro.core.pipeline import (
    ExperimentConfig,
    run_full_simulation,
    run_hybrid_simulation,
)
from repro.topology.clos import ClosParams, build_clos, server_name

# The trained model comes from the session-scoped ``trained_bundle``
# fixture (tests/conftest.py) shared with the inference and obs tests.


class TestHybridAssembly:
    def test_structure(self, trained_bundle):
        from repro.des.kernel import Simulator

        topo = build_clos(ClosParams(clusters=4))
        sim = Simulator(seed=1)
        hybrid = HybridSimulation(sim, topo, trained_bundle)
        # Full cluster 0 keeps its switches; clusters 1..3 approximated.
        assert "tor-c0-0" in hybrid.network.switches
        assert "tor-c1-0" not in hybrid.network.switches
        assert set(hybrid.models) == {1, 2, 3}
        # Core switches always real.
        assert "core-0" in hybrid.network.switches
        # All hosts real (full TCP stacks, paper Section 5).
        assert len(hybrid.network.hosts) == 32

    def test_flow_filter(self, trained_bundle):
        from repro.des.kernel import Simulator

        topo = build_clos(ClosParams(clusters=4))
        hybrid = HybridSimulation(Simulator(seed=1), topo, trained_bundle)
        keep = hybrid.flow_filter
        assert keep(server_name(0, 0, 0), server_name(2, 0, 0))
        assert keep(server_name(3, 0, 0), server_name(0, 0, 0))
        assert not keep(server_name(1, 0, 0), server_name(2, 0, 0))

    def test_flow_filter_disabled(self, trained_bundle):
        from repro.des.kernel import Simulator

        topo = build_clos(ClosParams(clusters=4))
        hybrid = HybridSimulation(
            Simulator(seed=1), topo, trained_bundle,
            config=HybridConfig(elide_remote_traffic=False),
        )
        assert hybrid.flow_filter(server_name(1, 0, 0), server_name(2, 0, 0))

    def test_invalid_full_cluster(self, trained_bundle):
        from repro.des.kernel import Simulator

        topo = build_clos(ClosParams(clusters=2))
        with pytest.raises(ValueError):
            HybridSimulation(
                Simulator(), topo, trained_bundle, config=HybridConfig(full_cluster=9)
            )


class TestHybridExecution:
    def test_end_to_end_run(self, trained_bundle):
        config = ExperimentConfig(
            clos=ClosParams(clusters=4), load=0.25, duration_s=0.004, seed=22
        )
        result, hybrid = run_hybrid_simulation(config, trained_bundle)
        assert result.model_packets > 0
        assert result.flows_elided > 0
        assert result.flows_completed > 0
        assert len(result.rtt_samples) > 0
        # Model predictions respect the physical floor, and the
        # streaming stats cover every delivered packet.
        for model in hybrid.models.values():
            stats = model.latency_stats
            assert stats.count == model.packets_delivered
            if stats.count:
                assert stats.min >= MIN_REGION_LATENCY_S
                for latency in stats.sample:
                    assert latency >= MIN_REGION_LATENCY_S
        # The hot-path counters account for real inference work.
        assert hybrid.inference_seconds() > 0.0
        counters = hybrid.hot_path_counters(wallclock_s=result.wallclock_seconds)
        assert counters["model_packets"] == result.model_packets
        assert 0.0 < counters["inference_share"] <= 1.0
        assert result.model_inference_seconds == hybrid.inference_seconds()

    def test_resolve_conflict_fcfs_serialization(self, trained_bundle):
        """Section 4.2: two packets can never egress the same target
        within one serialization time; the first-processed packet keeps
        its slot and conflicts are pushed to the next possible time."""
        from repro.core.features import Direction
        from repro.des.kernel import Simulator
        from repro.net.packet import Packet

        topo = build_clos(ClosParams(clusters=2))
        sim = Simulator(seed=3)
        hybrid = HybridSimulation(sim, topo, trained_bundle)
        model = hybrid.models[1]
        bundle = trained_bundle.directions[Direction.INGRESS]
        delivered = _delivery_targets(sim)

        def deliver(dst: str, latency_s: float) -> float:
            """One model outcome (never a drop) through the shared
            post-model path; returns the granted delivery time."""
            packet = Packet(
                src=server_name(0, 0, 0), dst=dst, src_port=1, dst_port=2,
                payload_bytes=1460,
            )
            norm = (np.log(latency_s) - bundle.latency_mean) / bundle.latency_std
            flow = model.extractor.flow(packet)
            model._finalize(packet, sim.now, bundle, flow, 0.0, norm, False)
            name, time = delivered[-1]
            assert name == dst
            return time

        target = server_name(1, 0, 0)
        serialization = (1460 + 40) * 8.0 / model._target(target).rate_bps

        # Burst of conflicting requests: same target, same instant.
        granted = [deliver(target, 1e-3) for _ in range(20)]
        assert granted[0] == pytest.approx(1e-3, rel=1e-12)  # first-come keeps its slot
        for earlier, later in zip(granted, granted[1:]):
            assert later - earlier >= serialization * (1 - 1e-12)
        assert model.conflicts_resolved == 19
        assert model.packets_delivered == 20

        # A request far in the future is not delayed...
        assert deliver(target, 0.5) == pytest.approx(0.5, rel=1e-12)
        # ...and other targets are independent.
        other = server_name(1, 0, 1)
        assert deliver(other, 1e-3) == pytest.approx(1e-3, rel=1e-12)
        assert model.conflicts_resolved == 19

    def test_conflict_resolution_orders_deliveries(self, trained_bundle):
        """Per egress node, deliveries are strictly separated by at
        least the serialization time (paper Section 4.2)."""
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.35, duration_s=0.004, seed=23
        )
        result, hybrid = run_hybrid_simulation(config, trained_bundle)
        model = hybrid.models[1]
        assert model.packets_handled > 0
        # The invariant is enforced internally; check bookkeeping is sane.
        assert model.packets_delivered + model.packets_dropped == model.packets_handled

    def test_hybrid_elides_fabric_events(self, trained_bundle):
        """With traffic elision OFF, both runs carry the identical flow
        schedule, so the hybrid's event count must be strictly lower:
        each approximated-fabric traversal is one delivery event
        instead of a dozen queue/transmit/propagate events."""
        config = ExperimentConfig(
            clos=ClosParams(clusters=4), load=0.25, duration_s=0.004, seed=24
        )
        full = run_full_simulation(config).result
        hybrid_result, _ = run_hybrid_simulation(
            config, trained_bundle, hybrid=HybridConfig(elide_remote_traffic=False)
        )
        assert hybrid_result.flows_started == full.flows_started
        assert hybrid_result.flows_elided == 0
        assert hybrid_result.events_executed < full.events_executed

    def test_fused_engine_matches_reference_path_end_to_end(self, trained_bundle):
        """A float64 fused run reproduces the reference predict_step
        run: same drop decisions, same event schedule, RTTs equal to
        within the 1e-9 engine tolerance."""
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=26
        )
        fused, _ = run_hybrid_simulation(config, trained_bundle)
        reference, _ = run_hybrid_simulation(
            config, trained_bundle, hybrid=HybridConfig(use_fused_inference=False)
        )
        assert fused.model_packets == reference.model_packets
        assert fused.model_drops == reference.model_drops
        assert fused.events_executed == reference.events_executed
        assert fused.rtt_samples == pytest.approx(reference.rtt_samples, abs=1e-9)

    def test_deterministic(self, trained_bundle):
        config = ExperimentConfig(
            clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=25
        )
        r1, _ = run_hybrid_simulation(config, trained_bundle)
        r2, _ = run_hybrid_simulation(config, trained_bundle)
        assert r1.events_executed == r2.events_executed
        assert r1.rtt_samples == r2.rtt_samples
        assert r1.model_packets == r2.model_packets


class TestEgressLinkRate:
    """Regression: the egress-rate fallback was a hardcoded 10 Gb/s,
    mis-sizing conflict serialization on any other link speed."""

    def _model(self, trained_bundle, rate_bps):
        from repro.des.kernel import Simulator

        topo = build_clos(ClosParams(clusters=2, rate_bps=rate_bps))
        hybrid = HybridSimulation(Simulator(seed=3), topo, trained_bundle)
        return hybrid.models[1]

    def test_region_facing_rate_from_topology(self, trained_bundle):
        model = self._model(trained_bundle, rate_bps=40e9)
        # A server behind the approximated cluster: its access link is
        # region-facing and carries the configured 40G, not 10G.
        assert model._target(server_name(1, 0, 0)).rate_bps == 40e9
        assert model.rate_fallbacks == 0

    def test_fallback_derives_from_topology_not_hardcoded(self, trained_bundle):
        model = self._model(trained_bundle, rate_bps=25e9)
        # A full-cluster server has no region-facing neighbor, so the
        # fallback path runs — and must surface the topology's 25G.
        assert model._target(server_name(0, 0, 0)).rate_bps == 25e9
        assert model.rate_fallbacks == 1
        # Cached: a second lookup is not a second fallback.
        assert model._target(server_name(0, 0, 0)).rate_bps == 25e9
        assert model.rate_fallbacks == 1

    def test_fallback_counted_in_obs(self, trained_bundle):
        from repro.des.kernel import Simulator
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(enabled=True)
        topo = build_clos(ClosParams(clusters=2, rate_bps=25e9))
        hybrid = HybridSimulation(
            Simulator(seed=3), topo, trained_bundle, metrics=metrics
        )
        model = hybrid.models[1]
        model._target(server_name(0, 0, 0))
        snapshot = metrics.snapshot()
        fallbacks = [
            c for c in snapshot["counters"]
            if c["name"] == "hybrid.egress_rate_fallbacks"
        ]
        assert fallbacks and fallbacks[0]["value"] == 1


class _NeverDrops:
    """Stands in for the drop Bernoulli's stream: 1.0 is never below a
    drop probability, so every packet is delivered."""

    @staticmethod
    def random() -> float:
        return 1.0


def _delivery_targets(sim):
    """Record ``(entity name, time)`` of every model delivery scheduled."""
    delivered: list[tuple[str, float]] = []
    schedule_at = sim.schedule_at

    def recording_schedule_at(time, fn, *args, **kwargs):
        delivered.append((fn.entity.name, time))
        return schedule_at(time, fn, *args, **kwargs)

    sim.schedule_at = recording_schedule_at
    return delivered


class TestRoutingInvalidation:
    """Regression: the flow's egress node was cached by flow tuple and
    never invalidated, so after a boundary link of the approximated
    cluster failed the model kept delivering to the core switch the
    flow no longer reaches."""

    def test_egress_target_follows_a_failed_boundary_link(self, trained_bundle):
        from repro.des.kernel import Simulator
        from repro.net.packet import Packet

        topo = build_clos(ClosParams(clusters=4))
        sim = Simulator(seed=3)
        hybrid = HybridSimulation(
            sim, topo, trained_bundle, config=HybridConfig(elide_remote_traffic=False)
        )
        model = hybrid.models[2]
        model.rng = _NeverDrops()
        routing = hybrid.network.routing
        delivered = _delivery_targets(sim)
        packet = Packet(
            src=server_name(2, 0, 0), dst=server_name(0, 0, 0),
            src_port=10_000, dst_port=80, payload_bytes=1460,
        )
        path = routing.path(packet.src, packet.dst, packet.flow_hash())
        core = next(name for name in path if name.startswith("core-"))
        agg = path[path.index(core) - 1]

        model.receive(packet, path[1])
        assert delivered[-1][0] == core

        assert routing.set_link_state(agg, core, up=False)
        fresh = routing.path(packet.src, packet.dst, packet.flow_hash())
        fresh_core = next(name for name in fresh if name.startswith("core-"))
        assert fresh_core != core
        model.receive(packet, path[1])
        assert delivered[-1][0] == fresh_core
        # Conflict-resolution state is per egress node, not per flow:
        # it survives the rebuild.
        assert model._target(core).last_delivery == delivered[0][1]


class TestSingleDirectionBundle:
    """A bundle trained on one direction only (possible in tiny
    traces) handles every packet with that direction's model."""

    CONFIG = ExperimentConfig(
        clos=ClosParams(clusters=2), load=0.25, duration_s=0.003, seed=26
    )

    @pytest.mark.parametrize("kept", ["INGRESS", "EGRESS"])
    def test_inline_and_batched_agree(self, trained_bundle, kept):
        from repro.core.features import Direction
        from repro.core.training import TrainedClusterModel

        direction = Direction[kept]
        single = TrainedClusterModel(
            config=trained_bundle.config,
            calibration=trained_bundle.calibration,
            directions={direction: trained_bundle.directions[direction]},
        )
        inline, hybrid = run_hybrid_simulation(self.CONFIG, single)
        batched, _ = run_hybrid_simulation(
            self.CONFIG, single, hybrid=HybridConfig(batch_window_s=1e-6)
        )
        model = hybrid.models[1]
        # Both directions of traffic arrived and one model took them all.
        assert model._lanes[0] is model._lanes[1]
        assert model._lanes[0].direction is direction
        assert model._lanes[0].engine.steps == inline.model_packets > 0
        clocks = model.extractor
        assert (clocks._ingress_clock.last_arrival is None) == (kept == "EGRESS")
        assert (clocks._egress_clock.last_arrival is None) == (kept == "INGRESS")
        assert inline.flows_completed > 0
        assert (
            batched.drops, batched.rtt_samples, batched.fcts,
            batched.model_packets, batched.model_drops,
        ) == (
            inline.drops, inline.rtt_samples, inline.fcts,
            inline.model_packets, inline.model_drops,
        )
