#!/usr/bin/env python3
"""DCTCP vs. New Reno on the web-search workload.

The paper's traffic comes from the DCTCP measurement study (its
reference [3]), and its "Modularity" design goal (Section 3) demands
the framework "be able to model different protocols".  This example
exercises that: the same cluster, the same web-search flows, run once
under loss-based New Reno and once under DCTCP with ECN marking at the
switches — and prints the operator-facing difference: queue occupancy,
drops, and flow completion times.

Run:  python examples/dctcp_vs_newreno.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.net.tcp.config import TcpConfig
from repro.topology.clos import ClosParams, build_clos
from repro.traffic.apps import TrafficGenerator
from repro.traffic.arrivals import PoissonArrivals, arrival_rate_for_load
from repro.traffic.distributions import web_search_sizes
from repro.traffic.matrix import UniformMatrix

DURATION_S = 0.02
LOAD = 0.35


def run_variant(name: str, tcp: TcpConfig, ecn_threshold: int | None) -> dict:
    """One full-fidelity single-cluster run under a protocol variant."""
    topo = build_clos(ClosParams(clusters=1, cores=2))
    sim = Simulator(seed=21)
    net = Network(
        sim,
        topo,
        config=NetworkConfig(
            tcp=tcp,
            queue_capacity_bytes=300_000,
            ecn_threshold_bytes=ecn_threshold,
        ),
    )
    sizes = web_search_sizes()
    rate = arrival_rate_for_load(LOAD, len(topo.servers()), 10e9, sizes.mean())
    gen = TrafficGenerator(
        sim, net, matrix=UniformMatrix(topo), sizes=sizes,
        arrivals=PoissonArrivals(rate),
    )
    gen.start()

    queue_peak = 0

    def sample():
        nonlocal queue_peak
        queue_peak = max(queue_peak, net.total_queued_bytes())
        sim.schedule(5e-5, sample)

    sim.schedule(5e-5, sample)
    sim.run(until=DURATION_S)

    fcts = np.asarray(gen.completed_fcts())
    return {
        "name": name,
        "flows_done": gen.flows_completed,
        "drops": net.total_drops,
        "queue_peak_kb": queue_peak / 1000,
        "fct_p50_ms": float(np.percentile(fcts, 50)) * 1e3 if fcts.size else float("nan"),
        "fct_p99_ms": float(np.percentile(fcts, 99)) * 1e3 if fcts.size else float("nan"),
        "rtt_p99_us": float(np.percentile(net.rtt_samples(0), 99)) * 1e6,
    }


def main() -> None:
    print(f"Web-search traffic @ {LOAD:.0%} load, {DURATION_S * 1e3:.0f} ms simulated\n")
    variants = [
        run_variant("newreno", TcpConfig(), ecn_threshold=None),
        run_variant("dctcp", TcpConfig(dctcp=True), ecn_threshold=65_000),
    ]
    rows = [
        [v["name"], v["flows_done"], v["drops"], f"{v['queue_peak_kb']:.0f}",
         f"{v['fct_p50_ms']:.3f}", f"{v['fct_p99_ms']:.2f}", f"{v['rtt_p99_us']:.0f}"]
        for v in variants
    ]
    print(format_table(
        ["protocol", "flows done", "drops", "peak queue (KB)",
         "FCT p50 (ms)", "FCT p99 (ms)", "RTT p99 (us)"],
        rows,
    ))
    print(
        "\nDCTCP trades ECN marks for queue headroom: shorter peak\n"
        "queues and fewer (often zero) drops at similar completion\n"
        "times — the behaviour its designers measured on this same\n"
        "workload, here reproduced inside the simulation substrate."
    )


if __name__ == "__main__":
    main()
