"""Behavioural tests of the TCP New Reno implementation.

Every test runs real sender/receiver state machines over real simulated
links (see ``harness.py``); loss is injected deterministically.
"""

from __future__ import annotations

import pytest

from repro.net.packet import DEFAULT_MSS
from repro.net.tcp.config import TcpConfig
from repro.net.tcp.sender import SenderState

from tests.tcp.harness import TcpPair


class TestLosslessTransfer:
    def test_small_flow_completes(self):
        pair = TcpPair(total_bytes=10 * DEFAULT_MSS)
        pair.run()
        assert pair.completed
        assert pair.receiver.bytes_delivered == 10 * DEFAULT_MSS
        assert pair.sender.retransmissions == 0
        assert len(pair.fcts) == 1

    def test_single_segment_flow(self):
        pair = TcpPair(total_bytes=100)
        pair.run()
        assert pair.completed
        assert pair.receiver.bytes_delivered == 100

    def test_one_byte_flow(self):
        pair = TcpPair(total_bytes=1)
        pair.run()
        assert pair.completed

    def test_fct_close_to_ideal_for_bulk_flow(self):
        """A 1 MB flow on 1 Gbps should finish within ~2x of the
        store-and-forward lower bound (slow start costs some RTTs)."""
        size = 1_000_000
        pair = TcpPair(total_bytes=size, rate_bps=1e9, delay_s=1e-5)
        pair.run()
        assert pair.completed
        ideal = size * 8 / 1e9
        assert pair.fcts[0] < 2.5 * ideal
        assert pair.fcts[0] > ideal  # cannot beat the line rate

    def test_rtt_samples_reasonable(self):
        pair = TcpPair(total_bytes=50 * DEFAULT_MSS, delay_s=1e-4)
        pair.run()
        rtts = pair.rtt_samples
        assert len(rtts) >= 2
        # RTT floor: 4 propagation legs plus serializations.
        assert min(rtts) >= 4e-4

    def test_throughput_matches_bottleneck(self):
        """Long flow at 100 Mbps bottleneck: goodput within 15%."""
        size = 2_000_000
        pair = TcpPair(total_bytes=size, rate_bps=1e8, delay_s=1e-5)
        pair.run()
        goodput = size * 8 / pair.fcts[0]
        assert goodput == pytest.approx(1e8, rel=0.15)


class TestSlowStartAndCongestionAvoidance:
    def test_initial_cwnd(self):
        config = TcpConfig(initial_cwnd_segments=10)
        pair = TcpPair(total_bytes=100 * DEFAULT_MSS, tcp=config)
        assert pair.sender.cwnd == 10 * DEFAULT_MSS
        assert pair.sender.state is SenderState.SLOW_START

    def test_cwnd_grows_during_transfer(self):
        pair = TcpPair(total_bytes=200 * DEFAULT_MSS)
        initial = pair.sender.cwnd
        pair.run()
        assert pair.sender.cwnd > initial

    def test_transition_to_congestion_avoidance(self):
        config = TcpConfig(initial_ssthresh_bytes=20 * DEFAULT_MSS)
        pair = TcpPair(total_bytes=300 * DEFAULT_MSS, tcp=config)
        pair.run()
        assert pair.completed
        assert pair.sender.state is SenderState.CONGESTION_AVOIDANCE


class TestFastRetransmit:
    def test_single_loss_recovers_without_timeout(self):
        """Drop one mid-flow segment once; New Reno must recover via
        fast retransmit, not RTO."""
        target_seq = 20 * DEFAULT_MSS
        dropped_once = []

        def drop(packet):
            if packet.seq == target_seq and not packet.retransmission and not dropped_once:
                dropped_once.append(packet)
                return True
            return False

        pair = TcpPair(total_bytes=100 * DEFAULT_MSS, drop_filter=drop)
        pair.run()
        assert pair.completed
        assert len(dropped_once) == 1
        assert pair.sender.fast_retransmits == 1
        assert pair.sender.timeouts == 0
        assert pair.receiver.bytes_delivered == 100 * DEFAULT_MSS

    def test_cwnd_halved_after_loss(self):
        target_seq = 30 * DEFAULT_MSS
        def drop(packet):
            return packet.seq == target_seq and not packet.retransmission

        pair = TcpPair(total_bytes=200 * DEFAULT_MSS, drop_filter=drop)
        pair.run()
        assert pair.completed
        # ssthresh was set to half the flight size at loss detection.
        assert pair.sender.ssthresh < 200 * DEFAULT_MSS

    def test_multiple_losses_same_window_newreno_partial_acks(self):
        """Two losses in one window: New Reno handles the partial ACK
        by retransmitting the second hole while staying in recovery."""
        targets = {10 * DEFAULT_MSS, 12 * DEFAULT_MSS}
        dropped = set()

        def drop(packet):
            if packet.seq in targets and not packet.retransmission and packet.seq not in dropped:
                dropped.add(packet.seq)
                return True
            return False

        pair = TcpPair(total_bytes=60 * DEFAULT_MSS, drop_filter=drop)
        pair.run()
        assert pair.completed
        assert len(dropped) == 2
        assert pair.sender.fast_retransmits == 1  # one recovery episode
        assert pair.receiver.bytes_delivered == 60 * DEFAULT_MSS

    def test_reordering_within_dupack_threshold_no_spurious_retransmit(self):
        """Fewer than 3 dupACKs must not trigger fast retransmit."""
        pair = TcpPair(total_bytes=50 * DEFAULT_MSS)
        pair.run()
        assert pair.sender.fast_retransmits == 0


class TestTimeout:
    def test_tail_blackout_triggers_rto_and_recovery(self):
        """Drop the whole tail of the window once (no packets behind
        the holes -> no dupACKs -> only RTO can recover)."""
        def drop(packet):
            return packet.seq >= 28 * DEFAULT_MSS and not packet.retransmission

        pair = TcpPair(total_bytes=60 * DEFAULT_MSS, drop_filter=drop)
        pair.run(until=30.0)
        assert pair.completed
        assert pair.sender.timeouts >= 1
        assert pair.receiver.bytes_delivered == 60 * DEFAULT_MSS

    def test_partial_window_loss_recovers_without_rto(self):
        """A hole with plenty of later packets delivered generates
        enough dupACKs that New Reno partial-ACK recovery fixes every
        loss with zero timeouts — the point of fast recovery."""
        def drop(packet):
            return (
                10 * DEFAULT_MSS <= packet.seq < 22 * DEFAULT_MSS
                and not packet.retransmission
            )

        pair = TcpPair(total_bytes=40 * DEFAULT_MSS, drop_filter=drop)
        pair.run(until=30.0)
        assert pair.completed
        assert pair.sender.timeouts == 0
        assert pair.sender.fast_retransmits >= 1
        assert pair.receiver.bytes_delivered == 40 * DEFAULT_MSS

    def test_rto_backoff_under_repeated_loss(self):
        """Dropping every *first* transmission: one RTO converts the
        whole stream to retransmissions (go-back-N), which bypass the
        filter and finish the flow."""
        def drop(packet):
            return not packet.retransmission

        config = TcpConfig(min_rto_s=0.005, initial_rto_s=0.01)
        pair = TcpPair(total_bytes=3 * DEFAULT_MSS, tcp=config, drop_filter=drop)
        pair.run(until=60.0)
        assert pair.completed
        assert pair.sender.timeouts >= 1
        assert pair.sender.retransmissions >= 3


class TestKarnsAlgorithm:
    def test_no_rtt_sample_from_retransmission(self):
        """With heavy loss, RTT samples must never come from
        retransmitted segments (they would be wildly wrong)."""
        def drop(packet):
            return packet.seq == 0 and not packet.retransmission

        config = TcpConfig(min_rto_s=0.005, initial_rto_s=0.02)
        pair = TcpPair(total_bytes=DEFAULT_MSS, tcp=config, drop_filter=drop)
        pair.run(until=10.0)
        assert pair.completed
        # The only segment was retransmitted, so zero valid samples.
        assert len(pair.rtt_samples) == 0


class TestDelayedAck:
    def test_delayed_ack_reduces_ack_count(self):
        plain = TcpPair(total_bytes=100 * DEFAULT_MSS)
        plain.run()
        delayed = TcpPair(
            total_bytes=100 * DEFAULT_MSS, tcp=TcpConfig(delayed_ack=True)
        )
        delayed.run()
        assert delayed.completed and plain.completed
        assert delayed.receiver.acks_sent < plain.receiver.acks_sent

    def test_delayed_ack_timer_flushes_odd_segment(self):
        delayed = TcpPair(total_bytes=DEFAULT_MSS, tcp=TcpConfig(delayed_ack=True))
        delayed.run(until=5.0)
        assert delayed.completed


class TestEcn:
    def test_ecn_reduces_cwnd_without_drops(self):
        """With ECN marking at a low threshold, the sender should back
        off while the network drops nothing."""
        from repro.des.kernel import Simulator
        from repro.net.network import Network, NetworkConfig

        from tests.tcp.harness import two_host_topology

        sim = Simulator()
        tcp = TcpConfig(ecn=True)
        topo = two_host_topology(rate_bps=1e8, delay_s=1e-5)
        net = Network(
            sim,
            topo,
            config=NetworkConfig(
                tcp=tcp, queue_capacity_bytes=10_000_000, ecn_threshold_bytes=15_000
            ),
        )
        fcts = []
        sender = net.host("a").open_flow(net.host("b"), 2_000_000, on_complete=fcts.append)
        sender.start()
        sim.run()
        assert sender.completed
        assert net.total_drops == 0
        marked = sum(p.stats.marked for p in net.ports().values())
        assert marked > 0


class TestSenderValidation:
    def test_zero_size_flow_rejected(self):
        with pytest.raises(ValueError):
            TcpPair(total_bytes=0)
