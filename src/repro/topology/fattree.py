"""Builder for k-ary fat-trees (Al-Fares et al., SIGCOMM 2008).

The paper's Section 2 grounds its architecture discussion in "Clos
networks" citing the fat-tree paper; this builder provides that
canonical instance.  A k-ary fat-tree (k even) has:

* k pods, each with k/2 edge (ToR) switches and k/2 aggregation
  switches, fully meshed inside the pod;
* (k/2)^2 core switches; aggregation switch j of every pod connects to
  cores [j*k/2, (j+1)*k/2);
* k/2 servers per edge switch — k^3/4 servers total.

Pods map directly onto the paper's *clusters* (``Node.cluster`` = pod
index), so the entire approximation pipeline — trace collection,
training, hybrid substitution — applies to fat-trees unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.clos import DEFAULT_DELAY_S, DEFAULT_RATE_BPS
from repro.topology.graph import Node, NodeRole, Topology


@dataclass(frozen=True)
class FatTreeParams:
    """Parameters of a k-ary fat-tree.

    Attributes
    ----------
    k:
        Arity (ports per switch); must be even and >= 2.
    rate_bps, delay_s:
        Uniform link capacity and propagation delay.
    """

    k: int = 4
    rate_bps: float = DEFAULT_RATE_BPS
    delay_s: float = DEFAULT_DELAY_S

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"k must be an even integer >= 2, got {self.k}")

    @property
    def pods(self) -> int:
        """Number of pods (= k)."""
        return self.k

    @property
    def cores(self) -> int:
        """Core switches: (k/2)^2."""
        return (self.k // 2) ** 2

    @property
    def total_servers(self) -> int:
        """k^3 / 4 servers."""
        return self.k**3 // 4


def build_fat_tree(params: FatTreeParams) -> Topology:
    """Construct a k-ary fat-tree with pods labelled as clusters."""
    k = params.k
    half = k // 2
    topo = Topology(name=f"fattree-k{k}")
    for core in range(params.cores):
        topo.add_node(Node(f"core-{core}", NodeRole.CORE, cluster=None, index=core))
    for pod in range(k):
        for agg in range(half):
            topo.add_node(
                Node(f"agg-p{pod}-{agg}", NodeRole.CLUSTER, cluster=pod, index=agg)
            )
        for edge in range(half):
            topo.add_node(
                Node(f"tor-p{pod}-{edge}", NodeRole.TOR, cluster=pod, index=edge)
            )
            for slot in range(half):
                server_index = edge * half + slot
                topo.add_node(
                    Node(
                        f"server-p{pod}-e{edge}-s{slot}",
                        NodeRole.SERVER,
                        cluster=pod,
                        index=server_index,
                    )
                )
                topo.add_link(
                    f"server-p{pod}-e{edge}-s{slot}",
                    f"tor-p{pod}-{edge}",
                    params.rate_bps,
                    params.delay_s,
                )
        # Pod-internal full mesh edge <-> agg.
        for edge in range(half):
            for agg in range(half):
                topo.add_link(
                    f"tor-p{pod}-{edge}",
                    f"agg-p{pod}-{agg}",
                    params.rate_bps,
                    params.delay_s,
                )
        # Stride-pattern core wiring: agg j -> cores [j*half, (j+1)*half).
        for agg in range(half):
            for i in range(half):
                topo.add_link(
                    f"agg-p{pod}-{agg}",
                    f"core-{agg * half + i}",
                    params.rate_bps,
                    params.delay_s,
                )
    topo.validate_connected()
    return topo
