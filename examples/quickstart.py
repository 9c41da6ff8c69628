#!/usr/bin/env python3
"""Quickstart: the paper's workflow end to end in under a minute.

Three stages (Figure 3 of the paper):

1. Simulate a small two-cluster data center at full packet fidelity,
   recording every packet that crosses one cluster's fabric boundary.
2. Train the LSTM micro models (drop + latency heads) on that trace.
3. Rebuild the network with that cluster replaced by the trained model
   and compare behaviour and cost against the full simulation.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import ks_distance, percentile_summary
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import (
    ExperimentConfig,
    run_hybrid_simulation,
    train_reusable_model,
)
from repro.topology.clos import ClosParams


def main() -> None:
    # The paper's evaluation cluster shape: four switches and eight
    # servers per cluster, 10 GbE links, web-search traffic.
    config = ExperimentConfig(
        clos=ClosParams(clusters=2),
        load=0.25,
        duration_s=0.01,  # 10 ms of simulated time keeps this quick
        seed=7,
    )
    # A small model trains in seconds on CPU; raise hidden_size to 128
    # and train_batches to >50_000 for the paper's full configuration.
    micro = MicroModelConfig(
        hidden_size=32, num_layers=1, window=16,
        train_batches=200, learning_rate=3e-3,
    )

    print("=== Stage 1+2: full-fidelity simulation + training ===")
    trained, full_output = train_reusable_model(config, micro=micro)
    full = full_output.result
    print(f"  simulated {full.sim_seconds * 1e3:.0f} ms "
          f"in {full.wallclock_seconds:.2f} s wall "
          f"({full.events_executed:,} events)")
    print(f"  recorded {len(full_output.records):,} region crossings")
    for key, value in trained.training_summary.items():
        print(f"  {key}: {value:.4g}")

    print("\n=== Stage 3: hybrid simulation (cluster 1 approximated) ===")
    hybrid_result, hybrid = run_hybrid_simulation(config, trained)
    print(f"  simulated {hybrid_result.sim_seconds * 1e3:.0f} ms "
          f"in {hybrid_result.wallclock_seconds:.2f} s wall "
          f"({hybrid_result.events_executed:,} events)")
    print(f"  model handled {hybrid_result.model_packets:,} packets, "
          f"dropped {hybrid_result.model_drops}")
    print(f"  flows elided (both endpoints approximated): "
          f"{hybrid_result.flows_elided}")

    print("\n=== Accuracy: RTT distributions (the paper's Figure 4) ===")
    truth = np.asarray(full.rtt_samples)
    approx = np.asarray(hybrid_result.rtt_samples)
    for name, sample in (("ground truth", truth), ("approximate", approx)):
        stats = percentile_summary(sample, percentiles=(50, 95, 99))
        print(f"  {name:12s}: n={int(stats['count']):5d}  "
              f"p50={stats['p50'] * 1e6:8.1f} us  "
              f"p95={stats['p95'] * 1e6:8.1f} us  "
              f"p99={stats['p99'] * 1e6:8.1f} us")
    print(f"  KS distance between the two RTT CDFs: "
          f"{ks_distance(truth, approx):.3f}")

    print("\n=== Cost ===")
    print(f"  event-count ratio (full/hybrid): "
          f"{full.events_executed / hybrid_result.events_executed:.2f}x")
    print(f"  wall-clock ratio  (full/hybrid): "
          f"{full.wallclock_seconds / hybrid_result.wallclock_seconds:.2f}x")
    print("\nSpeedups grow with cluster count; the Figure 5 sweep is "
          "`repro runs submit --spec examples/specs/paper/fig5.toml --out runs/fig5` "
          "then `repro runs report runs/fig5 --table fig5`.")


if __name__ == "__main__":
    main()
