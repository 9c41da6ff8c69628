"""Fluid/packet path identity across tier handoffs.

Regression for a flow-identity bug: the fluid tier used to hash flows
with a synthetic ``10_000 + flow_id`` source port while the packet tier
hashed the host-allocated ephemeral port, so a promoted flow could be
charged on one path and transmitted on another.  Every spec now carries
its real port pair; both tiers must name the same links.
"""

from __future__ import annotations

from repro.des.kernel import Simulator
from repro.flowsim.epoch import EpochFlowSimulator
from repro.flowsim.simulator import FlowSpec
from repro.net.network import Network
from repro.net.packet import Packet
from repro.topology.clos import ClosParams, build_clos
from repro.topology.routing import EcmpRouting

SRC, DST = "server-c0-t0-s0", "server-c1-t1-s3"


def _packet_links(routing: EcmpRouting, src_port: int, dst_port: int):
    packet = Packet(
        src=SRC, dst=DST, src_port=src_port, dst_port=dst_port, payload_bytes=1
    )
    path = routing.path(SRC, DST, packet.flow_hash())
    return list(zip(path[:-1], path[1:]))


def test_fluid_links_match_packet_path_for_real_ports():
    topology = build_clos(ClosParams(clusters=2))
    routing = EcmpRouting(topology)
    fluid = EpochFlowSimulator(topology, routing=routing)
    # Every ephemeral port a host could allocate must agree, not just
    # one lucky hash.
    for src_port in range(10_000, 10_040):
        spec = FlowSpec(
            flow_id=7, src=SRC, dst=DST, size_bytes=10_000,
            start_time=0.0, src_port=src_port, dst_port=80,
        )
        assert fluid._flow_links(spec) == _packet_links(routing, src_port, 80)


def test_diversion_port_matches_later_packet_launch():
    """The generator takes the host's next ephemeral port at arrival,
    before the cascade diverts the flow; a packet flow launched with
    that port must traverse exactly the links the fluid tier charged."""
    topology = build_clos(ClosParams(clusters=2))
    sim = Simulator(seed=5)
    routing = EcmpRouting(topology)
    network = Network(sim, topology, routing=routing)
    fluid = EpochFlowSimulator(topology, routing=routing)

    src_port = network.host(SRC).allocate_port()  # what number_flow does
    spec = FlowSpec(
        flow_id=0, src=SRC, dst=DST, size_bytes=50_000,
        start_time=0.0, src_port=src_port, dst_port=80,
    )
    charged = fluid._flow_links(spec)
    assert charged == _packet_links(routing, src_port, 80)

    # Promotion relaunch: the packet flow pins the reserved port, so
    # its first data packet hashes onto the charged path.
    sender = network.host(SRC).open_flow(
        network.host(DST), 50_000, src_port=spec.src_port
    )
    assert sender.src_port == src_port
    # Port sequences stay aligned: the next host allocation continues
    # after the reserved port rather than reusing it.
    assert network.host(SRC).allocate_port() == src_port + 1
