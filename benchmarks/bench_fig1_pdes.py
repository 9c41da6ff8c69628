"""Figure 1: simulator performance vs. topology size, DES vs. PDES.

The paper's Figure 1 plots simulated-seconds-per-wall-clock-second of
OMNeT++ on leaf-spine topologies as the number of ToRs/spines grows
from 4 to 64 (racks of four servers, 10 GbE, constant oversubscription
and average load), for a single thread and for MPI-based PDES across
1/2/4 machines.  The finding: parallelism helps at best marginally and
loses to the single thread as interconnection grows.

Here the same sweep runs on our DES and our conservative PDES engine
with 2 and 4 worker processes (one container cannot be several
machines; the synchronization economics per machine-count are what the
experiment measures).  Default sizes 4/8/16 keep the suite fast;
``REPRO_BENCH_SCALE=large`` (or ``paper``) extends to 32 and 64.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale, full_sweep, write_result
from repro.analysis.reporting import format_series, format_table
from repro.core.pipeline import ExperimentConfig
from repro.flowsim.workload import generate_workload
from repro.pdes.engine import HybridShardConfig, run_parallel_simulation, run_single_threaded
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.traffic.distributions import web_search_sizes

DURATION_S = 0.002
LOAD = 0.2
SEED = 201

SIZES = (4, 8, 16, 32, 64) if full_sweep() else (4, 8, 16)
MODES = ("single", "pdes-2", "pdes-4")

_results: dict[tuple[str, int], float] = {}


def _workload(size: int):
    topo = build_leaf_spine(LeafSpineParams(tors=size, spines=size))
    flows = generate_workload(
        topo, duration_s=DURATION_S, load=LOAD, sizes=web_search_sizes(), seed=SEED
    )
    return topo, flows


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_fig1_point(benchmark, mode: str, size: int):
    """One (mode, size) point of Figure 1."""
    topo, flows = _workload(size)
    config = ExperimentConfig(duration_s=DURATION_S, seed=SEED)

    if mode == "single":
        def run():
            return run_single_threaded(config, topology=topo, flows=flows)
    else:
        shard = HybridShardConfig(workers=int(mode.split("-")[1]))

        def run():
            return run_parallel_simulation(config, shard, topology=topo, flows=flows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[(mode, size)] = result.sim_seconds_per_second
    benchmark.extra_info["sim_seconds_per_second"] = result.sim_seconds_per_second
    benchmark.extra_info["events"] = result.events_executed
    assert result.flows_completed >= 0  # the run finished


def test_fig1_report(benchmark):
    """Assemble and persist the Figure 1 series."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _results:
        pytest.skip("no points collected (ran with filtering?)")
    blocks = []
    rows = []
    for mode in MODES:
        xs = [size for size in SIZES if (mode, size) in _results]
        ys = [_results[(mode, size)] for size in xs]
        if xs:
            blocks.append(format_series(f"fig1/{mode}", xs, ys))
    for size in SIZES:
        row = [size] + [f"{_results.get((mode, size), float('nan')):.3e}" for mode in MODES]
        rows.append(row)
    table = format_table(["tors_and_spines"] + list(MODES), rows)
    write_result("fig1_pdes", table + "\n\n" + "\n\n".join(blocks))

    # Shape assertions (the paper's qualitative findings):
    # 1. everything slows as the topology grows;
    largest, smallest = max(SIZES), min(SIZES)
    assert _results[("single", largest)] < _results[("single", smallest)]
    # 2. at the largest size, the single thread beats parallel PDES.
    assert _results[("single", largest)] > _results[("pdes-2", largest)]
    assert _results[("single", largest)] > _results[("pdes-4", largest)]
