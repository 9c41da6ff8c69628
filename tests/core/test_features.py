"""Tests for per-packet feature extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import (
    Direction,
    FEATURE_COUNT,
    FEATURE_NAMES,
    RegionFeatureExtractor,
)
from repro.core.macro import MacroState
from repro.net.packet import Packet
from repro.topology.clos import server_name


def _extractor(small_clos, small_clos_routing, cluster=1):
    return RegionFeatureExtractor(small_clos, small_clos_routing, cluster)


def _packet(src, dst, payload=1460, **kwargs):
    return Packet(src=src, dst=dst, src_port=10000, dst_port=80, payload_bytes=payload, **kwargs)


class TestDirection:
    def test_ingress_when_dst_inside(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        packet = _packet(server_name(0, 0, 0), server_name(1, 0, 0))
        assert ext.direction_of(packet) is Direction.INGRESS

    def test_egress_when_dst_outside(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        packet = _packet(server_name(1, 0, 0), server_name(0, 0, 0))
        assert ext.direction_of(packet) is Direction.EGRESS

    def test_intra_cluster_is_ingress(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        packet = _packet(server_name(1, 0, 0), server_name(1, 1, 0))
        assert ext.direction_of(packet) is Direction.INGRESS


class TestFeatureVector:
    def test_shape_and_names(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing)
        packet = _packet(server_name(0, 0, 0), server_name(1, 0, 0))
        features = ext.extract(packet, 0.001, MacroState.MINIMAL)
        assert features.shape == (FEATURE_COUNT,)
        assert len(FEATURE_NAMES) == FEATURE_COUNT
        assert np.all(np.isfinite(features))

    def test_macro_one_hot_position(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing)
        packet = _packet(server_name(0, 0, 0), server_name(1, 0, 0))
        features = ext.extract(packet, 0.001, MacroState.HIGH)
        macro_block = features[FEATURE_NAMES.index("macro_minimal"):]
        np.testing.assert_array_equal(macro_block, [0, 0, 1, 0])

    def test_inter_arrival_gap_tracked_per_direction(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        ingress = _packet(server_name(0, 0, 0), server_name(1, 0, 0))
        egress = _packet(server_name(1, 0, 0), server_name(0, 0, 0))
        gap_idx = FEATURE_NAMES.index("gap_log_us")
        # First packet of each direction: zero gap.
        f1 = ext.extract(ingress, 0.000, MacroState.MINIMAL)
        f2 = ext.extract(egress, 0.001, MacroState.MINIMAL)
        assert f1[gap_idx] == 0.0
        assert f2[gap_idx] == 0.0  # separate clock, still first arrival
        # Second ingress packet 100us later: gap ~ log1p(100).
        f3 = ext.extract(_packet(ingress.src, ingress.dst), 0.0001, MacroState.MINIMAL)
        assert f3[gap_idx] == pytest.approx(np.log1p(100), rel=1e-6)

    def test_path_features_identify_region_switches(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        packet = _packet(server_name(0, 0, 0), server_name(1, 1, 2))
        features = ext.extract(packet, 0.0, MacroState.MINIMAL)
        names = FEATURE_NAMES
        assert features[names.index("has_core_hop")] == 1.0
        assert features[names.index("path_tor_in")] > 0.0  # dst's ToR
        assert features[names.index("path_agg")] > 0.0
        assert features[names.index("path_core")] > 0.0

    def test_intra_rack_path_has_no_core(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        packet = _packet(server_name(1, 0, 0), server_name(1, 0, 1))
        features = ext.extract(packet, 0.0, MacroState.MINIMAL)
        assert features[FEATURE_NAMES.index("has_core_hop")] == 0.0
        assert features[FEATURE_NAMES.index("path_core")] == 0.0

    def test_ack_and_retransmission_flags(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing)
        ack = _packet(server_name(0, 0, 0), server_name(1, 0, 0), payload=0)
        retx = _packet(
            server_name(0, 0, 0), server_name(1, 0, 0), retransmission=True
        )
        f_ack = ext.extract(ack, 0.0, MacroState.MINIMAL)
        f_retx = ext.extract(retx, 0.001, MacroState.MINIMAL)
        assert f_ack[FEATURE_NAMES.index("is_ack")] == 1.0
        assert f_retx[FEATURE_NAMES.index("is_retransmission")] == 1.0

    def test_same_flow_cached_path_consistent(self, small_clos, small_clos_routing):
        ext = _extractor(small_clos, small_clos_routing)
        p1 = _packet(server_name(0, 0, 0), server_name(1, 0, 0))
        p2 = _packet(server_name(0, 0, 0), server_name(1, 0, 0), payload=100)
        f1 = ext.extract(p1, 0.0, MacroState.MINIMAL)
        f2 = ext.extract(p2, 0.001, MacroState.MINIMAL)
        path_slice = slice(FEATURE_NAMES.index("path_tor_in"), FEATURE_NAMES.index("has_core_hop") + 1)
        np.testing.assert_array_equal(f1[path_slice], f2[path_slice])

    def test_features_header_derivable_only(self, small_clos, small_clos_routing):
        """Two extractors fed the same packet sequence produce identical
        features — there is no hidden dependence on simulator state
        (the paper's requirement in Section 4.2)."""
        packets = [
            (_packet(server_name(0, 0, i % 4), server_name(1, i % 2, i % 4)), i * 1e-5)
            for i in range(10)
        ]
        ext_a = _extractor(small_clos, small_clos_routing)
        ext_b = _extractor(small_clos, small_clos_routing)
        for packet, t in packets:
            fa = ext_a.extract(packet, t, MacroState.MINIMAL)
            fb = ext_b.extract(packet, t, MacroState.MINIMAL)
            np.testing.assert_array_equal(fa, fb)


class TestNormalizerRegressions:
    """Regressions for the path_agg and gap-EMA hot-path bugs."""

    def test_agg_index_normalized_by_agg_count(self):
        """path_agg once divided the aggregation-switch index by the ToR
        count; with more aggs than ToRs the feature escaped [0, 1]."""
        from repro.topology.clos import ClosParams, build_clos
        from repro.topology.routing import EcmpRouting

        topo = build_clos(ClosParams(clusters=2, tors_per_cluster=2, aggs_per_cluster=4))
        ext = RegionFeatureExtractor(topo, EcmpRouting(topo), 1)
        agg_idx = FEATURE_NAMES.index("path_agg")
        seen = set()
        for port in range(10_000, 10_064):
            packet = Packet(
                src=server_name(0, 0, 0), dst=server_name(1, 1, 0),
                src_port=port, dst_port=80, payload_bytes=1460,
            )
            features = ext.extract(packet, port * 1e-6, MacroState.MINIMAL)
            assert 0.0 < features[agg_idx] <= 1.0
            seen.add(features[agg_idx])
        # ECMP spreads flows over all four aggs; the top-index agg must
        # land exactly at 1.0 under the correct normalizer.
        assert max(seen) == pytest.approx(1.0)
        assert len(seen) > 1

    def test_first_packet_leaves_gap_ema_unseeded(self, small_clos, small_clos_routing):
        """The first arrival has no inter-arrival gap; seeding the EMA
        with the 0.0 sentinel biased the feature low for the whole
        warm-up.  The EMA must start at the first *real* gap."""
        ext = _extractor(small_clos, small_clos_routing, cluster=1)
        ema_idx = FEATURE_NAMES.index("gap_ema_log_us")
        first = ext.extract(
            _packet(server_name(0, 0, 0), server_name(1, 0, 0)), 0.0, MacroState.MINIMAL
        )
        assert first[ema_idx] == 0.0  # still unseeded, not a seeded 0.0
        second = ext.extract(
            _packet(server_name(0, 0, 0), server_name(1, 0, 0)), 1e-4, MacroState.MINIMAL
        )
        # EMA == the 100us gap itself (a seeded-at-zero EMA would read
        # log1p(alpha * 100) instead).
        assert second[ema_idx] == pytest.approx(np.log1p(100), rel=1e-9)

    def test_gap_ema_identical_across_extractor_copies(self, small_clos, small_clos_routing):
        """Training and inference share the extractor class; the fix
        must keep both phases bit-identical on the same stream."""
        stream = [
            (_packet(server_name(0, 0, i % 4), server_name(1, i % 2, 0)), 3e-5 * (i + 1))
            for i in range(8)
        ]
        ext_a = _extractor(small_clos, small_clos_routing, cluster=1)
        ext_b = _extractor(small_clos, small_clos_routing, cluster=1)
        for packet, t in stream:
            np.testing.assert_array_equal(
                ext_a.extract(packet, t, MacroState.MINIMAL),
                ext_b.extract(packet, t, MacroState.MINIMAL),
            )


class TestRoutingInvalidation:
    """Regression: per-flow path features were cached by flow tuple and
    never invalidated, so after a link failure the extractor kept
    describing the path the flow no longer takes."""

    def test_path_features_follow_a_failed_boundary_link(self):
        from repro.topology.clos import ClosParams, build_clos
        from repro.topology.routing import EcmpRouting

        topo = build_clos(ClosParams(clusters=4))
        routing = EcmpRouting(topo)
        ext = RegionFeatureExtractor(topo, routing, 2)
        core_idx = FEATURE_NAMES.index("path_core")
        packet = _packet(server_name(2, 0, 0), server_name(0, 0, 0))
        path = routing.path(packet.src, packet.dst, packet.flow_hash())
        core = next(name for name in path if name.startswith("core-"))
        agg = path[path.index(core) - 1]  # the region's side of the boundary link
        before = ext.extract(packet, 0.0, MacroState.MINIMAL)

        assert routing.set_link_state(agg, core, up=False)
        fresh = routing.path(packet.src, packet.dst, packet.flow_hash())
        assert core not in fresh
        after = ext.extract(packet, 1e-4, MacroState.MINIMAL)
        assert after[core_idx] != before[core_idx]
        # Exactly what an extractor that never saw the old tables reports.
        want = RegionFeatureExtractor(topo, routing, 2).extract(
            packet, 0.0, MacroState.MINIMAL
        )
        path_slice = slice(FEATURE_NAMES.index("path_tor_in"), core_idx + 2)
        np.testing.assert_array_equal(after[path_slice], want[path_slice])

        # Recovery rebuilds the tables again: back to the original path.
        assert routing.set_link_state(agg, core, up=True)
        restored = ext.extract(packet, 2e-4, MacroState.MINIMAL)
        np.testing.assert_array_equal(restored[path_slice], before[path_slice])
