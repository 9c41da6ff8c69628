"""Flow specs, results and workload validation of the fluid simulator.

Events are flow arrivals and flow completions only — no packets, no
queues, no TCP.  Between consecutive events every active flow drains at
its max-min fair rate; rates are recomputed whenever the active set
changes (:class:`~repro.flowsim.epoch.EpochFlowSimulator`).  Complexity
is O(events x links), orders of magnitude below packet DES — and
correspondingly blind to queuing delay, drops, and burst effects, which
is the trade the paper criticizes.

Flows follow the same ECMP-hash-selected path the packet simulator
would pick, so the two simulators are directly comparable per flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.topology.graph import NodeRole, Topology
from repro.topology.routing import EcmpRouting


@dataclass(frozen=True)
class FlowSpec:
    """One flow to simulate: endpoints, size, arrival time, and ports.

    A generated flow's ``flow_id`` and ``src_port`` are assigned once,
    at arrival (:meth:`~repro.traffic.apps.TrafficGenerator.number_flow`):
    the generator's arrival index and the port its source host
    allocates, so every engine gives the flow the same id and trace id
    and hashes it onto the *same* ECMP path.
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: int
    start_time: float
    src_port: int
    dst_port: int = 80


@dataclass
class FlowResult:
    """Outcome of one simulated flow."""

    spec: FlowSpec
    completion_time: float

    @property
    def fct(self) -> float:
        """Flow completion time in seconds."""
        return self.completion_time - self.spec.start_time


def validate_flow_spec(
    spec: FlowSpec,
    topology: Topology,
    routing: Optional[EcmpRouting] = None,
) -> None:
    """Reject malformed flows before they reach the rate solver.

    Checks size, start time, and routability (both endpoints must be
    distinct servers of ``topology``; with ``routing`` given, a route
    must actually exist).  Raises ``ValueError`` with the offending
    field named — previously a zero-byte flow silently completed with
    a zero-duration FCT and an unknown endpoint surfaced as a
    ``KeyError`` deep inside the rate recomputation.
    """
    if spec.size_bytes <= 0:
        raise ValueError(
            f"flow {spec.flow_id}: size_bytes must be positive, got {spec.size_bytes}"
        )
    if not math.isfinite(spec.start_time) or spec.start_time < 0:
        raise ValueError(
            f"flow {spec.flow_id}: start_time must be finite and >= 0, "
            f"got {spec.start_time}"
        )
    for label, endpoint in (("src", spec.src), ("dst", spec.dst)):
        if endpoint not in topology:
            raise ValueError(
                f"flow {spec.flow_id}: {label} {endpoint!r} is not in the topology"
            )
        if topology.node(endpoint).role is not NodeRole.SERVER:
            raise ValueError(
                f"flow {spec.flow_id}: {label} {endpoint!r} is a "
                f"{topology.node(endpoint).role.value}, not a server — unroutable"
            )
    if spec.src == spec.dst:
        raise ValueError(
            f"flow {spec.flow_id}: src == dst ({spec.src!r}); same-host "
            "transfers have no network path"
        )
    if routing is not None:
        try:
            routing.distance(spec.src, spec.dst)
        except KeyError as error:
            raise ValueError(
                f"flow {spec.flow_id}: no route {spec.src!r} -> {spec.dst!r}"
            ) from error


def check_flow_identities(flows: Sequence[FlowSpec]) -> None:
    """Refuse duplicate flow ids and two flows that share a
    (src, src_port) pair: the second would cross-wire TCP demux."""
    if len({f.flow_id for f in flows}) != len(flows):
        raise ValueError("duplicate flow ids in workload")
    owner: dict[tuple[str, int], int] = {}
    for spec in flows:
        first = owner.setdefault((spec.src, spec.src_port), spec.flow_id)
        if first != spec.flow_id:
            raise ValueError(
                f"flows {first} and {spec.flow_id} share source port "
                f"{spec.src}:{spec.src_port}"
            )


def validate_flow_specs(
    flows: Sequence[FlowSpec],
    topology: Topology,
    routing: Optional[EcmpRouting] = None,
) -> None:
    """Validate a whole workload: per-flow checks plus unique ids and
    source ports."""
    check_flow_identities(flows)
    for spec in flows:
        validate_flow_spec(spec, topology, routing)


class _ActiveFlow:
    """Mutable progress state of an in-flight fluid flow."""

    __slots__ = ("spec", "remaining_bits", "rate", "links")

    def __init__(self, spec: FlowSpec, links: list[tuple[str, str]]) -> None:
        self.spec = spec
        self.remaining_bits = spec.size_bytes * 8.0
        self.rate = 0.0
        self.links = links
