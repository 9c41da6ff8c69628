"""Pre-drawn workloads: a seeded flow schedule, and workload files.

The PDES engine needs the complete flow schedule up front (flows span
partitions and processes), and fair cross-simulator comparisons need
all simulators to see the *identical* workload.
:func:`generate_workload` draws that schedule from the live
:class:`~repro.traffic.apps.TrafficGenerator`
(:func:`~repro.traffic.apps.draw_flow_schedule`), so every flow, and
the source port its host gives it, is the one a packet-level run with
the same seed launches.  A saved workload file pins the schedule
exactly, ports included.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.flowsim.simulator import FlowSpec, check_flow_identities
from repro.net.host import host_shims
from repro.topology.graph import Topology
from repro.traffic.apps import TrafficGenerator, draw_flow_schedule
from repro.traffic.arrivals import PoissonArrivals, arrival_rate_for_load
from repro.traffic.distributions import EmpiricalSizeDistribution
from repro.traffic.matrix import TrafficMatrix, UniformMatrix


def generate_workload(
    topology: Topology,
    duration_s: float,
    load: float,
    sizes: EmpiricalSizeDistribution,
    seed: int,
    link_rate_bps: float = 10e9,
    matrix: TrafficMatrix | None = None,
) -> list[FlowSpec]:
    """The flows a live :class:`TrafficGenerator` with this seed, load,
    size distribution and matrix (default uniform) launches in
    ``duration_s``, each with its host-allocated source port."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    rate = arrival_rate_for_load(
        load, len(topology.servers()), link_rate_bps, sizes.mean()
    )
    return draw_flow_schedule(
        topology,
        seed,
        duration_s,
        lambda sim, network: TrafficGenerator(
            sim,
            network,
            matrix=matrix or UniformMatrix(topology),
            sizes=sizes,
            arrivals=PoissonArrivals(rate),
        ),
    )


def save_workload(flows: list[FlowSpec], path: str | Path) -> None:
    """Persist a flow schedule, ports included, as JSON.

    A saved schedule pins an experiment's workload exactly — across
    simulators, machines, and future versions of the samplers — which
    is stronger than pinning the seed.
    """
    rows = [
        {
            "flow_id": f.flow_id,
            "src": f.src,
            "dst": f.dst,
            "size_bytes": f.size_bytes,
            "start_time": f.start_time,
            "src_port": f.src_port,
            "dst_port": f.dst_port,
        }
        for f in flows
    ]
    Path(path).write_text(json.dumps(rows, indent=1))


def load_workload(path: str | Path) -> list[FlowSpec]:
    """Inverse of :func:`save_workload`.

    A row without a ``src_port`` gets the port its source host would
    allocate, numbered per host in file order.  Duplicate flow ids and
    shared (src, src_port) pairs are refused.
    """
    rows = json.loads(Path(path).read_text())
    hosts = host_shims()
    flows = [
        FlowSpec(**row) if "src_port" in row
        else FlowSpec(**row, src_port=hosts[row.get("src")].allocate_port())
        for row in rows
    ]
    try:
        check_flow_identities(flows)
    except ValueError as error:
        raise ValueError(f"workload file {path}: {error}") from None
    return flows
