"""TCP New Reno sender.

Implements the congestion control the paper's evaluation uses: slow
start, congestion avoidance, fast retransmit on three duplicate ACKs,
and New Reno fast recovery with partial-ACK retransmission (RFC 6582),
over a go-back-N retransmission timeout.

The sender is deliberately event-driven and allocation-light: one DES
timer (the RTO), no per-segment timers, a single-segment RTT timer
(the classic approach, which also gives Karn's algorithm for free —
only first transmissions are ever timed).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Protocol

from repro.des.entities import Timer
from repro.des.kernel import Simulator
from repro.net.packet import Packet, TcpFlags, flow_hash_of
from repro.net.tcp.config import TcpConfig
from repro.net.tcp.rtt import RttEstimator


class SenderHost(Protocol):
    """What a sender needs from its host."""

    name: str
    sim: Simulator

    def transmit(self, packet: Packet) -> None:
        """Hand a packet to the NIC."""
        ...  # pragma: no cover - protocol definition


class SenderState(Enum):
    """Congestion control phase."""

    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"
    FAST_RECOVERY = "fast_recovery"


class TcpSender:
    """One unidirectional New Reno data transfer.

    Parameters
    ----------
    host:
        The endpoint that owns this connection.
    dst:
        Destination node name.
    src_port, dst_port:
        Transport ports (must be unique per host pair per flow).
    total_bytes:
        Flow size; the sender stops and reports completion once the
        final byte is cumulatively acknowledged.
    config:
        Protocol knobs.
    on_complete:
        Callback ``(flow_completion_time_s) -> None``.
    rtt_samples:
        Optional list that every valid RTT sample is appended to — this
        feeds the paper's Figure 4 CDFs ("RTTs observed by hosts").
    """

    def __init__(
        self,
        host: SenderHost,
        dst: str,
        src_port: int,
        dst_port: int,
        total_bytes: int,
        config: TcpConfig,
        on_complete: Optional[Callable[[float], None]] = None,
        rtt_samples: Optional[list[float]] = None,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        self.host = host
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.total_bytes = total_bytes
        self.config = config
        self.on_complete = on_complete
        self.rtt_samples = rtt_samples
        #: The flow's ECMP hash, stamped on every segment (computed once
        #: here so no switch on the path rehashes the 5-tuple).
        self.path_hash = flow_hash_of(host.name, dst, src_port, dst_port)

        self.snd_una = 0
        self.snd_nxt = 0
        self.highest_sent = 0
        self.cwnd = float(config.initial_cwnd_bytes)
        self.ssthresh = float(config.initial_ssthresh_bytes)
        self.state = SenderState.SLOW_START
        self.dup_acks = 0
        self.recover = 0  # New Reno recovery point
        self.completed = False
        self.started_at: Optional[float] = None

        self.rtt = RttEstimator(config.min_rto_s, config.max_rto_s, config.initial_rto_s)
        self._rto_timer = Timer(host.sim, self._on_rto)
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._ecn_recover = 0  # one cwnd reduction per window of ECN echoes
        # DCTCP state (config.dctcp): alpha estimates the fraction of
        # marked bytes; counters accumulate over one observation window.
        self.dctcp_alpha = 0.0
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = 0

        # Statistics.
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def effective_window(self) -> int:
        """min(cwnd, receiver window), in whole bytes."""
        return int(min(self.cwnd, self.config.receive_window_bytes))

    def start(self) -> None:
        """Begin transmitting (idempotent)."""
        if self.started_at is None:
            self.started_at = self.host.sim.now
            self._send_segments()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_segments(self) -> None:
        """Send as much new data as the window allows."""
        while not self.completed:
            window_limit = self.snd_una + self.effective_window
            if self.snd_nxt >= window_limit or self.snd_nxt >= self.total_bytes:
                break
            payload = min(self.config.mss, self.total_bytes - self.snd_nxt, window_limit - self.snd_nxt)
            if payload <= 0:
                break
            self._transmit_segment(self.snd_nxt, payload)
            self.snd_nxt += payload
            self.highest_sent = max(self.highest_sent, self.snd_nxt)
        if self.flight_size > 0 and not self._rto_timer.armed:
            self._rto_timer.arm(self.rtt.rto_s)

    def _transmit_segment(self, seq: int, payload: int) -> None:
        """Emit one data segment starting at ``seq``."""
        is_retx = seq < self.highest_sent
        packet = Packet(
            src=self.host.name,
            dst=self.dst,
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=seq,
            flags=TcpFlags.NONE,
            payload_bytes=payload,
            created_at=self.host.sim.now,
            ecn_capable=self.config.ecn_enabled,
            retransmission=is_retx,
            path_hash=self.path_hash,
        )
        self.segments_sent += 1
        if is_retx:
            self.retransmissions += 1
            # Karn: a retransmission overlapping the timed segment
            # invalidates the RTT measurement in progress.
            if self._timed_seq is not None and seq <= self._timed_seq < seq + payload:
                self._timed_seq = None
        elif self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = self.host.sim.now
        self.host.transmit(packet)

    def _retransmit_first_unacked(self) -> None:
        """Retransmit the segment at ``snd_una``."""
        payload = min(self.config.mss, self.total_bytes - self.snd_una)
        if payload > 0:
            self._transmit_segment(self.snd_una, payload)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        """Process an incoming (possibly duplicate) cumulative ACK."""
        if self.completed:
            return
        if self.config.dctcp:
            self._dctcp_observe(packet)
        elif self.config.ecn and packet.ecn_marked:
            self._on_ecn_echo()
        ackno = packet.ack
        if ackno > self.snd_una:
            self._on_new_ack(ackno)
        elif ackno == self.snd_una and self.flight_size > 0 and packet.is_ack_only():
            self._on_dup_ack()
        self._send_segments()

    def _on_new_ack(self, ackno: int) -> None:
        acked = ackno - self.snd_una
        self._maybe_sample_rtt(ackno)
        if self.state is SenderState.FAST_RECOVERY:
            if ackno >= self.recover:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.cwnd = self.ssthresh
                self.state = SenderState.CONGESTION_AVOIDANCE
                self.dup_acks = 0
                self.snd_una = ackno
            else:
                # Partial ACK (RFC 6582): retransmit the next hole,
                # deflate by the amount acked, stay in recovery.
                self.snd_una = ackno
                self._retransmit_first_unacked()
                self.cwnd = max(self.cwnd - acked + self.config.mss, float(self.config.mss))
                self._rto_timer.arm(self.rtt.rto_s)
        else:
            self.dup_acks = 0
            self.snd_una = ackno
            self._grow_cwnd(acked)
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        if self.snd_una >= self.total_bytes:
            self._complete()
            return
        if self.flight_size > 0:
            self._rto_timer.arm(self.rtt.rto_s)
        else:
            self._rto_timer.cancel()

    def _grow_cwnd(self, acked_bytes: int) -> None:
        """Slow start / congestion avoidance window growth."""
        mss = self.config.mss
        if self.state is SenderState.SLOW_START:
            self.cwnd += min(acked_bytes, mss)
            if self.cwnd >= self.ssthresh:
                self.state = SenderState.CONGESTION_AVOIDANCE
        else:
            # Standard per-ACK additive increase: MSS^2 / cwnd.
            self.cwnd += mss * mss / self.cwnd

    def _on_dup_ack(self) -> None:
        if self.state is SenderState.FAST_RECOVERY:
            # Window inflation: each dupACK signals a departed packet.
            self.cwnd += self.config.mss
            return
        self.dup_acks += 1
        if self.dup_acks == self.config.dupack_threshold:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        mss = self.config.mss
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * mss)
        self.recover = self.snd_nxt
        self.state = SenderState.FAST_RECOVERY
        self.fast_retransmits += 1
        self._retransmit_first_unacked()
        self.cwnd = self.ssthresh + self.config.dupack_threshold * mss
        self._rto_timer.arm(self.rtt.rto_s)

    def _dctcp_observe(self, packet: Packet) -> None:
        """DCTCP alpha estimation and per-window cwnd scaling.

        Every new cumulative ACK contributes its acked bytes to the
        window counters (marked bytes when the ACK echoes CE).  Once a
        window's worth of data (one cwnd at window start) is acked,
        ``alpha <- (1-g) alpha + g F`` and, if anything was marked,
        ``cwnd <- cwnd (1 - alpha/2)`` — reduction proportional to the
        *extent* of congestion, DCTCP's defining property.
        """
        ackno = packet.ack
        if ackno <= self.snd_una:
            return
        acked = ackno - self.snd_una
        self._dctcp_acked += acked
        if packet.ecn_marked:
            self._dctcp_marked += acked
        if ackno < self._dctcp_window_end:
            return
        if self._dctcp_acked > 0:
            fraction = self._dctcp_marked / self._dctcp_acked
            g = self.config.dctcp_g
            self.dctcp_alpha = (1.0 - g) * self.dctcp_alpha + g * fraction
            if self._dctcp_marked > 0 and self.state is not SenderState.FAST_RECOVERY:
                self.cwnd = max(
                    self.cwnd * (1.0 - self.dctcp_alpha / 2.0), float(self.config.mss)
                )
                # RFC 8257: the reduction also sets ssthresh, ending
                # slow start — otherwise exponential growth outruns the
                # proportional decrease and the queue never stabilizes.
                self.ssthresh = self.cwnd
                if self.state is SenderState.SLOW_START:
                    self.state = SenderState.CONGESTION_AVOIDANCE
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = self.snd_nxt

    def _on_ecn_echo(self) -> None:
        """Halve cwnd at most once per window of ECN echoes."""
        if self.snd_una >= self._ecn_recover and self.state is not SenderState.FAST_RECOVERY:
            self.cwnd = max(self.cwnd / 2.0, float(self.config.mss))
            self.ssthresh = self.cwnd
            self.state = SenderState.CONGESTION_AVOIDANCE
            self._ecn_recover = self.snd_nxt

    def _maybe_sample_rtt(self, ackno: int) -> None:
        if self._timed_seq is not None and ackno > self._timed_seq:
            sample = self.host.sim.now - self._timed_at
            self.rtt.observe(sample)
            if self.rtt_samples is not None:
                self.rtt_samples.append(sample)
            self._timed_seq = None

    # ------------------------------------------------------------------
    # Timeout
    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        """Retransmission timeout: go-back-N restart in slow start."""
        if self.completed:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.config.mss)
        self.cwnd = float(self.config.mss)
        self.snd_nxt = self.snd_una
        self.state = SenderState.SLOW_START
        self.dup_acks = 0
        self.rtt.backoff()
        self._timed_seq = None
        self._send_segments()
        self._rto_timer.arm(self.rtt.rto_s)

    def _complete(self) -> None:
        self.completed = True
        self._rto_timer.cancel()
        if self.on_complete is not None:
            assert self.started_at is not None
            self.on_complete(self.host.sim.now - self.started_at)
