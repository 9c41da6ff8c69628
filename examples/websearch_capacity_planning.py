#!/usr/bin/env python3
"""Capacity planning for a cluster under web-search traffic.

The motivating use case from the paper's introduction: a researcher or
operator wants to know how a data center cluster behaves as load rises
— where flow completion times blow up, where drops begin, when TCP
enters the pathological regime of Section 2.1.

This example runs the full packet-level simulator (no approximation)
on one cluster at a sweep of offered loads and prints the operator-
facing metrics: FCT percentiles, RTT inflation, drop counts, and
retransmission/timeouts.

Run:  python examples/websearch_capacity_planning.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.slowdown import flow_slowdowns, format_slowdown_table, slowdown_by_bucket
from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.topology.clos import ClosParams, build_clos
from repro.traffic.apps import TrafficGenerator
from repro.traffic.arrivals import PoissonArrivals, arrival_rate_for_load
from repro.traffic.distributions import web_search_sizes
from repro.traffic.matrix import UniformMatrix

DURATION_S = 0.01
LOADS = (0.1, 0.3, 0.5, 0.7)


def run_at_load(load: float, seed: int = 3) -> dict[str, float]:
    """One full-fidelity run of a single cluster at the given load."""
    topo = build_clos(ClosParams(clusters=1, cores=2))
    sim = Simulator(seed=seed)
    net = Network(sim, topo, NetworkConfig())
    sizes = web_search_sizes()
    rate = arrival_rate_for_load(load, len(topo.servers()), 10e9, sizes.mean())
    gen = TrafficGenerator(
        sim, net,
        matrix=UniformMatrix(topo),
        sizes=sizes,
        arrivals=PoissonArrivals(rate),
    )
    gen.start()
    sim.run(until=DURATION_S)

    fcts = np.asarray(gen.completed_fcts())
    rtts = np.asarray(net.rtt_samples(0))
    # 4-hop base RTT (same-cluster cross-rack) for slowdown normalization.
    slowdowns = slowdown_by_bucket(gen.flows, 10e9, base_rtt_s=13e-6)
    return {
        "slowdowns": slowdowns,
        "load": load,
        "flows": gen.flows_started,
        "done": gen.flows_completed,
        "fct_p50_ms": float(np.percentile(fcts, 50)) * 1e3 if fcts.size else float("nan"),
        "fct_p99_ms": float(np.percentile(fcts, 99)) * 1e3 if fcts.size else float("nan"),
        "rtt_p50_us": float(np.percentile(rtts, 50)) * 1e6 if rtts.size else float("nan"),
        "rtt_p99_us": float(np.percentile(rtts, 99)) * 1e6 if rtts.size else float("nan"),
        "drops": net.total_drops,
        "events": sim.events_executed,
    }


def main() -> None:
    print(f"Single-cluster web-search sweep ({DURATION_S * 1e3:.0f} ms simulated per load)\n")
    rows = []
    results = []
    for load in LOADS:
        result = run_at_load(load)
        results.append(result)
        rows.append([
            f"{result['load']:.0%}",
            result["flows"],
            result["done"],
            result["fct_p50_ms"],
            result["fct_p99_ms"],
            result["rtt_p50_us"],
            result["rtt_p99_us"],
            result["drops"],
        ])
        print(f"  load {load:.0%} done ({result['events']:,} events)")
    print()
    print(format_table(
        ["load", "flows", "done", "FCT p50 (ms)", "FCT p99 (ms)",
         "RTT p50 (us)", "RTT p99 (us)", "drops"],
        rows,
    ))
    print("\nFCT slowdown by flow size at the heaviest load "
          f"({LOADS[-1]:.0%}):")
    print(format_slowdown_table(results[-1]["slowdowns"]))
    print(
        "\nReading the table: tail FCT and RTT inflate and drops appear\n"
        "well before the average load reaches capacity — the congestion\n"
        "regimes the paper's macro model classifies (Section 4.1)."
    )


if __name__ == "__main__":
    main()
