"""Ablation A3: the classic alternative — flow-level simulation.

Sections 2.1 and 8 position the paper against flow-level simulators:
enormously faster, but blind to packet effects ("miss out on many
important network effects, particularly in the presence of bursty
traffic").  This benchmark runs the identical workload through the
packet-level DES and the max-min fluid simulator and reports both
sides: the wall-clock gap and the FCT distribution gap.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.analysis.reporting import format_table
from repro.analysis.stats import ks_distance
from repro.core.pipeline import ExperimentConfig
from repro.flowsim import EpochFlowSimulator
from repro.flowsim.workload import generate_workload
from repro.pdes.engine import run_single_threaded
from repro.topology.clos import ClosParams, build_clos
from repro.traffic.distributions import web_search_sizes

DURATION_S = 0.01
LOAD = 0.3
SEED = 501


def test_flowsim_vs_packet(benchmark):
    topo = build_clos(ClosParams(clusters=2))
    flows = generate_workload(
        topo, duration_s=DURATION_S, load=LOAD, sizes=web_search_sizes(), seed=SEED
    )
    # Packet-level: run far past the workload window so flows finish.
    packet = run_single_threaded(
        ExperimentConfig(duration_s=10 * DURATION_S, seed=SEED), topology=topo, flows=flows
    )

    fluid_wall_s = 0.0

    def run_fluid():
        nonlocal fluid_wall_s
        started = time.perf_counter()
        results = EpochFlowSimulator(topo).run(flows)
        fluid_wall_s = time.perf_counter() - started
        return results

    fluid_results = benchmark.pedantic(run_fluid, rounds=1, iterations=1)

    fluid_fcts = [r.fct for r in fluid_results]
    packet_fcts = packet.fcts
    assert len(fluid_fcts) == len(flows)
    assert len(packet_fcts) > 0

    speed_ratio = packet.wallclock_seconds / max(fluid_wall_s, 1e-9)
    fct_ks = ks_distance(packet_fcts, fluid_fcts)
    median_ratio = float(np.median(packet_fcts) / np.median(fluid_fcts))

    table = format_table(
        ["metric", "value"],
        [
            ["flows", len(flows)],
            ["packet_wall_s", f"{packet.wallclock_seconds:.2f}"],
            ["fluid_wall_s", f"{fluid_wall_s:.4f}"],
            ["speed_ratio (packet/fluid)", f"{speed_ratio:.0f}x"],
            ["fct_ks_distance", f"{fct_ks:.3f}"],
            ["fct_median_ratio (packet/fluid)", f"{median_ratio:.2f}"],
            ["packet_drops", packet.drops],
            ["fluid_drops (by construction)", 0],
        ],
    )
    write_result("ablation_a3_flowsim", table)
    benchmark.extra_info["speed_ratio"] = speed_ratio
    benchmark.extra_info["fct_ks"] = fct_ks

    # The trade the paper describes: fluid is orders of magnitude
    # faster but misses packet effects — it sees zero drops and its
    # FCT distribution diverges measurably.
    assert speed_ratio > 20
    assert packet.drops > 0
    assert fct_ks > 0.05
