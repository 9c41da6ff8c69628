#!/usr/bin/env python3
"""Why parallelism alone does not fix simulation speed (Section 2.2).

Runs the same leaf-spine workload single-threaded and under the
conservative PDES engine with 2 and 4 worker processes, at two network
sizes.  On the small fabric parallel workers have little to talk about;
as the fabric grows, the number of cut links (and with it the null-
message volume every synchronization window) grows quadratically while
useful work grows linearly — and the parallel runs fall behind the
single thread, exactly the effect the paper's Figure 1 demonstrates
with OMNeT++'s MPI-based PDES.

Run:  python examples/parallel_simulation_tradeoff.py
(Needs a machine with >= 4 usable cores to be meaningful.)
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.pipeline import ExperimentConfig
from repro.flowsim.workload import generate_workload
from repro.pdes.engine import HybridShardConfig, run_parallel_simulation, run_single_threaded
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.traffic.distributions import web_search_sizes

DURATION_S = 0.003
LOAD = 0.2
SIZES = (4, 16)
WORKER_COUNTS = (2, 4)


def main() -> None:
    rows = []
    for size in SIZES:
        topo = build_leaf_spine(LeafSpineParams(tors=size, spines=size))
        flows = generate_workload(
            topo, duration_s=DURATION_S, load=LOAD, sizes=web_search_sizes(), seed=9
        )
        print(f"leaf-spine {size}x{size} ({len(topo.servers())} servers, "
              f"{len(flows)} flows)...")
        config = ExperimentConfig(duration_s=DURATION_S, seed=9)
        single = run_single_threaded(config, topology=topo, flows=flows)
        row = [f"{size}x{size}", f"{single.sim_seconds_per_second:.2e}"]
        for workers in WORKER_COUNTS:
            parallel = run_parallel_simulation(
                config, HybridShardConfig(workers=workers), topology=topo, flows=flows
            )
            row.append(f"{parallel.sim_seconds_per_second:.2e}")
            print(f"  {workers} workers: {parallel.pdes['messages']:,} "
                  f"cross-partition messages over {parallel.pdes['cut_links']} cut links")
        rows.append(row)
    print()
    print(format_table(
        ["topology", "single (sim-s/s)"] + [f"{w} workers" for w in WORKER_COUNTS],
        rows,
    ))
    print(
        "\nHigher is better.  Synchronization (null messages per window\n"
        "per cut link, plus barrier latency) eats the parallel gains as\n"
        "the fabric becomes more interconnected — Figure 1's lesson."
    )


if __name__ == "__main__":
    main()
