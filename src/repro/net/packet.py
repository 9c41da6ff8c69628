"""The packet model.

Packets carry exactly the header state the rest of the system needs:
endpoints and ports (flow identity, ECMP hashing), TCP sequence/ack
numbers and flags (the New Reno state machines), ECN bits (optional
marking), and creation/boundary timestamps (RTT and region-latency
measurement).  Section 4.2 of the paper notes all model features "can
be calculated directly from the packet header information, simulation
time, and knowledge of routing strategy" — this header is that
information.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntFlag
from typing import Optional

from repro.topology.routing import ecmp_hash, name_key

#: Combined IP + TCP header size in bytes (20 + 20, no options).
HEADER_BYTES = 40
#: Maximum segment size (payload bytes per packet) for 1500-byte MTU.
DEFAULT_MSS = 1460

_packet_ids = itertools.count()


class TcpFlags(IntFlag):
    """TCP flag bits used by the simulator."""

    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4


def flow_hash_of(src: str, dst: str, src_port: int, dst_port: int) -> int:
    """Deterministic ECMP hash of a flow's 5-tuple.

    Uses a *symmetric-free* encoding: the hash of the reverse direction
    differs, matching real ECMP (each direction may take a different
    path).  TCP endpoints compute it once per connection and stamp it
    on every packet they build.
    """
    return ecmp_hash(name_key(src), name_key(dst), src_port, dst_port)


@dataclass(slots=True, init=False)
class Packet:
    """A simulated TCP/IP packet.

    Attributes
    ----------
    src, dst:
        Endpoint node names (node names double as addresses).
    src_port, dst_port:
        Transport ports; with the addresses they form the flow 5-tuple.
    seq:
        First payload byte's sequence number (sender byte stream).
    ack:
        Cumulative acknowledgment number (next byte expected).
    flags:
        TCP flags.
    payload_bytes:
        Application payload length (0 for pure ACKs).
    created_at:
        Simulated time the packet was handed to the sender's NIC queue.
    ecn_capable / ecn_marked:
        ECN transport capability and congestion-experienced mark.
    retransmission:
        True if this segment is a retransmit (Karn's algorithm skips
        RTT samples from these, and it is a model feature candidate).
    size_bytes:
        Total wire size (headers + payload), fixed at construction.
    path_hash:
        The flow's ECMP hash (:func:`flow_hash_of`): passed in by the
        TCP endpoint that stamps it once per connection, computed here
        when not given.  Switches forward on it without rehashing.
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: TcpFlags
    payload_bytes: int
    created_at: float
    ecn_capable: bool
    ecn_marked: bool
    retransmission: bool
    packet_id: int
    size_bytes: int
    path_hash: int

    def __init__(
        self,
        src: str,
        dst: str,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        payload_bytes: int = 0,
        created_at: float = 0.0,
        ecn_capable: bool = False,
        ecn_marked: bool = False,
        retransmission: bool = False,
        packet_id: Optional[int] = None,
        path_hash: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_bytes = payload_bytes
        self.created_at = created_at
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.retransmission = retransmission
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.size_bytes = HEADER_BYTES + payload_bytes
        self.path_hash = (
            flow_hash_of(src, dst, src_port, dst_port) if path_hash is None else path_hash
        )

    @property
    def flow_tuple(self) -> tuple[str, str, int, int]:
        """The flow identity (src, dst, sport, dport)."""
        return (self.src, self.dst, self.src_port, self.dst_port)

    def flow_hash(self) -> int:
        """The flow's ECMP hash (see :func:`flow_hash_of`)."""
        return self.path_hash

    def is_ack_only(self) -> bool:
        """True for packets that carry no payload (pure control)."""
        return self.payload_bytes == 0
