"""Whole-run determinism: the foundation of every comparison here.

Identical seeds must give bit-identical measurements for full runs,
hybrid runs, flow-level runs, and trained models — otherwise speedup
and accuracy comparisons would measure noise.
"""

from __future__ import annotations

import numpy as np

from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig, run_full_simulation
from repro.core.training import train_cluster_model
from repro.core.features import RegionFeatureExtractor
from repro.core.world import build_world
from repro.flowsim import EpochFlowSimulator
from repro.flowsim.workload import generate_workload
from repro.topology.clos import ClosParams, build_clos
from repro.traffic.distributions import web_search_sizes

CONFIG = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.2, duration_s=0.004, seed=91
)


def test_full_simulation_bit_identical():
    a = run_full_simulation(CONFIG).result
    b = run_full_simulation(CONFIG).result
    assert a.events_executed == b.events_executed
    assert a.drops == b.drops
    assert a.rtt_samples == b.rtt_samples
    assert a.fcts == b.fcts


def test_different_seed_differs():
    a = run_full_simulation(CONFIG).result
    from dataclasses import replace

    b = run_full_simulation(replace(CONFIG, seed=92)).result
    assert a.rtt_samples != b.rtt_samples


def test_trace_collection_deterministic():
    a = run_full_simulation(CONFIG, collect_cluster=1)
    b = run_full_simulation(CONFIG, collect_cluster=1)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.entry_time == rb.entry_time
        assert ra.exit_time == rb.exit_time
        assert ra.dropped == rb.dropped


def test_trained_weights_bit_identical():
    micro = MicroModelConfig(
        hidden_size=8, num_layers=1, window=8, train_batches=10
    )
    outputs = []
    for _ in range(2):
        run = run_full_simulation(CONFIG, collect_cluster=1)
        extractor = RegionFeatureExtractor(
            run.extractor.topology, run.extractor.routing, 1
        )
        trained = train_cluster_model(run.records, extractor, config=micro)
        bundle = next(iter(trained.directions.values()))
        outputs.append(
            np.concatenate([p.value.ravel() for p in bundle.model.parameters()])
        )
    np.testing.assert_array_equal(outputs[0], outputs[1])


def test_flow_level_deterministic():
    topo = build_clos(CONFIG.clos)
    flows = generate_workload(topo, 0.004, 0.2, web_search_sizes(), seed=91)
    a = EpochFlowSimulator(topo).run(flows)
    b = EpochFlowSimulator(topo).run(flows)
    assert [(r.spec.flow_id, r.completion_time) for r in a] == [
        (r.spec.flow_id, r.completion_time) for r in b
    ]


def test_pre_drawn_workload_is_the_live_generators():
    """The same seed, drawn ahead or live: the same flows in the same
    order."""
    world = build_world(CONFIG)
    world.run()
    live = world.traffic.flows
    topology = build_clos(CONFIG.clos)
    drawn = generate_workload(
        topology, CONFIG.duration_s, CONFIG.load, CONFIG.sizes(), CONFIG.seed
    )
    assert live
    assert [(f.src, f.dst, f.size_bytes, f.start_time) for f in drawn] == [
        (r.src, r.dst, r.size_bytes, r.start_time) for r in live
    ]
