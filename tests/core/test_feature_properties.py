"""Property-based tests of the feature extractor."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FEATURE_COUNT, Direction, RegionFeatureExtractor
from repro.core.macro import MacroState
from repro.net.packet import Packet
from repro.topology.clos import ClosParams, build_clos, server_name
from repro.topology.routing import EcmpRouting

_TOPO = build_clos(ClosParams(clusters=2))
_ROUTING = EcmpRouting(_TOPO)
_SERVERS = [n.name for n in _TOPO.servers()]


@st.composite
def _packet_streams(draw, ports=st.integers(1, 60_000), servers=_SERVERS):
    n = draw(st.integers(1, 40))
    stream = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=1e-3, allow_nan=False))
        src_idx = draw(st.integers(0, len(servers) - 1))
        dst_idx = draw(st.integers(0, len(servers) - 2))
        if dst_idx >= src_idx:
            dst_idx += 1
        payload = draw(st.sampled_from([0, 100, 1460]))
        state = draw(st.sampled_from(list(MacroState)))
        packet = Packet(
            src=servers[src_idx], dst=servers[dst_idx],
            src_port=draw(ports), dst_port=80,
            payload_bytes=payload,
            retransmission=draw(st.booleans()),
        )
        stream.append((packet, t, state))
    return stream


@given(_packet_streams())
@settings(max_examples=60, deadline=None)
def test_features_always_finite_and_bounded(stream):
    """For arbitrary packet streams: vectors are the right shape, all
    finite; indicator/normalized features live in [0, 1]; time features
    are non-negative."""
    extractor = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    for packet, t, state in stream:
        features = extractor.extract(packet, t, state)
        assert features.shape == (FEATURE_COUNT,)
        assert np.all(np.isfinite(features))
        # Normalized identity/path/indicator features (all but gaps).
        bounded = np.concatenate([features[:11], features[13:]])
        assert np.all(bounded >= 0.0) and np.all(bounded <= 1.01)
        assert features[11] >= 0.0 and features[12] >= 0.0  # log-gaps
        # Exactly one macro state is hot.
        assert features[17:21].sum() == 1.0


@given(_packet_streams())
@settings(max_examples=30, deadline=None)
def test_gap_feature_monotone_in_elapsed_time(stream):
    """Within one direction, a longer quiet period gives an equal or
    larger gap feature than an instant follow-up."""
    extractor = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    # Feed the stream, then probe with two alternative follow-ups.
    last_time = 0.0
    probe = None
    for packet, t, state in stream:
        extractor.extract(packet, t, state)
        last_time = t
        probe = packet
    import copy

    short = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    long = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    for ext in (short, long):
        for packet, t, state in stream:
            ext.extract(packet, t, state)
    f_short = short.extract(probe, last_time + 1e-6, MacroState.MINIMAL)
    f_long = long.extract(probe, last_time + 1e-3, MacroState.MINIMAL)
    assert f_long[11] >= f_short[11]


_TOPO_AGG_HEAVY = build_clos(ClosParams(clusters=2, tors_per_cluster=2, aggs_per_cluster=5))
_ROUTING_AGG_HEAVY = EcmpRouting(_TOPO_AGG_HEAVY)


@given(
    ports=st.lists(st.integers(1, 60_000), min_size=1, max_size=40),
    src=st.integers(0, 1),
    dst_tor=st.integers(0, 1),
)
@settings(max_examples=40, deadline=None)
def test_agg_feature_bounded_with_more_aggs_than_tors(ports, src, dst_tor):
    """Regression: path_agg was normalized by the ToR count, so any
    cluster with more aggregation switches than ToRs pushed the feature
    past 1.0.  It must stay in (0, 1] for every ECMP path choice."""
    extractor = RegionFeatureExtractor(_TOPO_AGG_HEAVY, _ROUTING_AGG_HEAVY, 1)
    for i, port in enumerate(ports):
        packet = Packet(
            src=server_name(0, 0, src), dst=server_name(1, dst_tor, 0),
            src_port=port, dst_port=80, payload_bytes=1460,
        )
        features = extractor.extract(packet, 1e-6 * (i + 1), MacroState.MINIMAL)
        agg = features[7]  # path_agg
        assert 0.0 < agg <= 1.0


def _extract_reference(extractor, clocks, packet, now, macro_state, direction):
    """The pre-template ``extract`` formula, store for store: every
    feature recomputed from the packet header, the routing tables and
    its own inter-arrival clocks (``clocks``: direction -> [last, ema]).
    The oracle the template-row path must match bit for bit."""
    if direction is None:
        direction = extractor.direction_of(packet)
    clock = clocks[direction]
    if clock[0] is None:
        gap = 0.0
    else:
        gap = now - clock[0]
        if clock[1] is None:
            clock[1] = gap
        else:
            clock[1] += extractor.ema_alpha * (gap - clock[1])
    clock[0] = now
    servers = extractor.servers
    src_cluster, src_tor, src_slot = servers.info[packet.src]
    dst_cluster, dst_tor, dst_slot = servers.info[packet.dst]
    features = np.empty(FEATURE_COUNT)
    features[0] = (src_cluster + 1) / servers.num_clusters
    features[1] = (src_tor + 1) / servers.max_tor
    features[2] = (src_slot + 1) / servers.max_slot
    features[3] = (dst_cluster + 1) / servers.num_clusters
    features[4] = (dst_tor + 1) / servers.max_tor
    features[5] = (dst_slot + 1) / servers.max_slot
    features[6:11] = extractor._path_features(packet)
    features[11] = math.log1p(max(gap, 0.0) * 1e6)
    features[12] = (
        math.log1p(max(clock[1], 0.0) * 1e6) if clock[1] is not None else 0.0
    )
    features[13] = packet.size_bytes / 1500.0
    features[14] = 1.0 if packet.is_ack_only() else 0.0
    features[15] = 1.0 if packet.retransmission else 0.0
    features[16] = 1.0 if direction is Direction.INGRESS else 0.0
    features[17:21] = macro_state.one_hot()
    return features


@given(
    # 24 possible flows: they recur, so template rows are reused, not only built.
    _packet_streams(ports=st.integers(1, 2), servers=_SERVERS[::4]),
    st.sampled_from([None, "own", Direction.INGRESS, Direction.EGRESS]),
)
@settings(max_examples=80, deadline=None)
def test_extract_into_matches_per_packet_formula_bitwise(stream, direction_mode):
    """Mixed flows, sizes, ACK / retransmission flags, macro states and
    both directions — including packets handled under the *other*
    direction's model, as a single-direction bundle does: the template
    row + scalar stores write exactly the bytes the per-packet formula
    computes, into a reused (dirty) buffer as well as a fresh one."""
    extractor = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    oracle = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    clocks = {Direction.INGRESS: [None, None], Direction.EGRESS: [None, None]}
    out = np.full(FEATURE_COUNT, np.nan)  # reused: stale values everywhere
    for packet, t, state in stream:
        direction = direction_mode
        if direction == "own":
            direction = extractor.direction_of(packet)
        want = _extract_reference(oracle, clocks, packet, t, state, direction)
        flow = extractor.extract_into(out, packet, t, state - 1, direction)
        assert out.tobytes() == want.tobytes()
        assert flow is extractor.flow(packet)
        assert flow.direction is extractor.direction_of(packet)


@given(_packet_streams())
@settings(max_examples=30, deadline=None)
def test_extract_is_extract_into_a_fresh_vector(stream):
    a = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    b = RegionFeatureExtractor(_TOPO, _ROUTING, 1)
    out = np.empty(FEATURE_COUNT)
    for packet, t, state in stream:
        b.extract_into(out, packet, t, state - 1)
        assert a.extract(packet, t, state).tobytes() == out.tobytes()
