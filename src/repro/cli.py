"""Command-line interface.

Exposes the Figure 3 workflow without writing Python::

    python -m repro simulate --clusters 2 --load 0.25 --duration 0.01
    python -m repro train    --output cluster_model/ --duration 0.01
    python -m repro hybrid   --model cluster_model/ --clusters 8
    python -m repro validate --model cluster_model/ --duration 0.004
    python -m repro runs     submit --spec sweep.json --out runs/
    python -m repro runs     status --out runs/
    python -m repro models   ls --registry runs/models
    python -m repro obs      show runs/<run_id>/manifest.json
    python -m repro info

``simulate`` runs full fidelity and prints workload statistics (with
optional CSV packet traces); ``train`` performs the full-fidelity +
training stages and saves a reusable model directory; ``hybrid`` loads
such a directory and runs the approximate simulation at any size.
All commands print aligned plain-text tables and return a process exit
code (0 on success), so they compose with shell pipelines.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile_summary
from repro.core.features import FEATURE_NAMES
from repro.core.hybrid import HybridConfig
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import (
    ExperimentConfig,
    RunResult,
    run_hybrid_simulation,
    train_reusable_model,
)
from repro.core.training import TrainedClusterModel
from repro.core.world import build_world
from repro.topology.clos import ClosParams, build_clos


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clusters", type=int, default=2, help="number of clusters")
    parser.add_argument("--load", type=float, default=0.25, help="offered load fraction")
    parser.add_argument(
        "--duration", type=float, default=0.01, help="simulated seconds"
    )
    parser.add_argument("--seed", type=int, default=1, help="master seed")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """AI-factory scenario knobs: routing policy, link failures, and
    collective (AllReduce) workloads — shared by the packet-carrying
    stages (simulate/hybrid/cascade/validate)."""
    parser.add_argument(
        "--routing", choices=("ecmp", "flowlet", "adaptive"), default="ecmp",
        help="switch routing policy (flowlet: gap-based re-hashing; "
        "adaptive: least-loaded egress among shortest paths)",
    )
    parser.add_argument(
        "--flowlet-gap-s", type=float, default=50e-6, metavar="SECONDS",
        help="idle gap that opens a new flowlet (with --routing flowlet)",
    )
    parser.add_argument(
        "--fail-link", action="append", default=None, metavar="TIME:A:B[:ACTION]",
        help="deterministic link event at simulated TIME seconds between "
        "nodes A and B; ACTION is down (default) or up (repeatable, e.g. "
        "--fail-link 0.004:core-0:agg-c0-0 --fail-link 0.007:core-0:agg-c0-0:up)",
    )
    parser.add_argument(
        "--collective", choices=("ring", "tree"), default=None, metavar="ALGO",
        help="drive an AllReduce collective (ring or tree) over all "
        "servers instead of only background traffic",
    )
    parser.add_argument(
        "--collective-ranks", type=int, default=None, metavar="N",
        help="participating ranks (default: every server)",
    )
    parser.add_argument(
        "--collective-dp-groups", type=int, default=1, metavar="N",
        help="independent data-parallel replica groups",
    )
    parser.add_argument(
        "--chunk-bytes", type=int, default=262_144, metavar="BYTES",
        help="AllReduce chunk size per step",
    )
    parser.add_argument(
        "--collective-rounds", type=int, default=1, metavar="N",
        help="training iterations to run (each: TP/PP phases, AllReduce, compute)",
    )
    parser.add_argument(
        "--collective-compute-s", type=float, default=0.0, metavar="SECONDS",
        help="compute phase between iterations (the communicate/compute barrier)",
    )
    parser.add_argument(
        "--collective-jitter", type=float, default=0.0, metavar="FRACTION",
        help="uniform jitter fraction on the compute phase (seeded)",
    )
    parser.add_argument(
        "--tp-bytes", type=int, default=0, metavar="BYTES",
        help="tensor-parallel pairwise exchange before each AllReduce",
    )
    parser.add_argument(
        "--pp-bytes", type=int, default=0, metavar="BYTES",
        help="pipeline-parallel stage-to-stage transfer before each AllReduce",
    )


def _parse_fail_links(specs: Optional[Sequence[str]]) -> list[tuple]:
    """Parse repeated ``--fail-link TIME:A:B[:ACTION]`` arguments."""
    events = []
    for text in specs or ():
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"--fail-link expects TIME:A:B[:ACTION], got {text!r}"
            )
        try:
            time_s = float(parts[0])
        except ValueError:
            raise ValueError(
                f"--fail-link time must be a number, got {parts[0]!r}"
            ) from None
        events.append(tuple([time_s, *parts[1:]]))
    return events


def _experiment_from_args(args: argparse.Namespace) -> ExperimentConfig:
    collective = None
    if getattr(args, "collective", None) is not None:
        collective = {
            "algorithm": args.collective,
            "ranks": args.collective_ranks,
            "dp_groups": args.collective_dp_groups,
            "chunk_bytes": args.chunk_bytes,
            "rounds": args.collective_rounds,
            "compute_s": args.collective_compute_s,
            "compute_jitter": args.collective_jitter,
            "tp_bytes": args.tp_bytes,
            "pp_bytes": args.pp_bytes,
        }
    try:
        return ExperimentConfig(
            clos=ClosParams(clusters=args.clusters),
            load=args.load,
            duration_s=args.duration,
            seed=args.seed,
            matrix=getattr(args, "matrix", "uniform"),
            routing={
                "policy": getattr(args, "routing", "ecmp"),
                "flowlet_gap_s": getattr(args, "flowlet_gap_s", 50e-6),
            },
            failures=_parse_fail_links(getattr(args, "fail_link", None)),
            collective=collective,
        )
    except ValueError as error:
        # Scenario knobs validate at construction; fail like argparse does.
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="export observability metrics (spans, counters, histograms, "
        "sim-time probe samples) as JSONL to this file",
    )


def _add_batching_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="event-horizon inference batching window; 0 disables "
        "(clamped to the minimum region latency for causality)",
    )
    parser.add_argument(
        "--memoize", action="store_true",
        help="cache steady-state inference outcomes (requires --batch-window)",
    )
    parser.add_argument(
        "--memo-approximate", action="store_true",
        help="accept quantized-key memo hits without exact verification "
        "(faster; validate fidelity with `repro validate`)",
    )


def _batching_options(args: argparse.Namespace) -> dict:
    """``--batch-window/--memoize/--memo-approximate`` as config fields
    (same names on Hybrid-, Cascade- and ValidateConfig)."""
    return {
        "batch_window_s": args.batch_window,
        "memoize_inference": args.memoize,
        "memo_exact": not args.memo_approximate,
    }


def _add_hybrid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--full-cluster", type=int, default=0)
    parser.add_argument(
        "--keep-remote-traffic", action="store_true",
        help="simulate traffic between approximated clusters too",
    )
    _add_batching_arguments(parser)
    _add_trace_arguments(parser)


def _hybrid_config(args: argparse.Namespace) -> HybridConfig:
    return HybridConfig(
        full_cluster=args.full_cluster,
        elide_remote_traffic=not args.keep_remote_traffic,
        single_black_box=getattr(args, "single_black_box", False),
        **_batching_options(args),
    )


def _load_model(path: str) -> Optional[TrainedClusterModel]:
    """The trained bundle at ``path``, or ``None`` after saying why not."""
    try:
        return TrainedClusterModel.load(path)
    except FileNotFoundError as error:
        print(f"error: cannot load model bundle: {error}", file=sys.stderr)
        return None


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record a deterministic flight-recorder trace (flow "
        "admissions/completions, model decisions, batching rounds, tier "
        "handoffs, cross-worker exchanges); sim-time only, draws no "
        "randomness, seeded outcomes are byte-identical on and off",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the trace as JSONL to this file (implies --trace)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=None, metavar="N",
        help="flight-recorder ring size per process (default 4096; the "
        "oldest records evict first when a run outgrows it)",
    )


def _trace_capacity(args: argparse.Namespace) -> Optional[int]:
    """The flight-recorder ring size iff --trace/--trace-out was given."""
    if not (getattr(args, "trace", False) or getattr(args, "trace_out", None)):
        return None
    from repro.obs.trace import DEFAULT_TRACE_CAPACITY

    return getattr(args, "trace_capacity", None) or DEFAULT_TRACE_CAPACITY


def _tracer_from_args(args: argparse.Namespace, seed: int):
    """A FlightRecorder iff --trace/--trace-out was given, else None."""
    capacity = _trace_capacity(args)
    if capacity is None:
        return None
    from repro.obs.trace import FlightRecorder

    return FlightRecorder(seed=seed, capacity=capacity)


def _export_trace(
    args: argparse.Namespace,
    events: list,
    recorded: int,
    evicted: int,
    stage: str,
    seed: int,
    workers: int = 1,
) -> None:
    """Print the trace summary line; write ``--trace-out`` if given."""
    print(f"trace: {recorded} records ({evicted} evicted from the ring)")
    if getattr(args, "trace_out", None):
        from repro.obs.trace import write_trace_jsonl

        meta = {"stage": stage, "seed": seed, "workers": workers}
        rows = write_trace_jsonl(args.trace_out, events, meta=meta)
        print(f"wrote {rows} trace records to {args.trace_out}")


def _metrics_from_args(args: argparse.Namespace):
    """An enabled registry iff ``--metrics-out`` was given, else None."""
    if getattr(args, "metrics_out", None) is None:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry(enabled=True)


def _export_metrics(args: argparse.Namespace, metrics) -> None:
    if metrics is None:
        return
    rows = metrics.write_jsonl(args.metrics_out)
    print(f"wrote {rows} metrics records to {args.metrics_out}")


def _print_percentiles(name: str, sample: Sequence[float], scale: float) -> None:
    """The ``name: n= p50= p95= p99=`` line (nothing for no samples)."""
    if not sample:
        return
    stats = percentile_summary(sample, percentiles=(50, 95, 99))
    print(
        f"{name}: n={int(stats['count'])} "
        f"p50={stats['p50'] * scale:.1f} "
        f"p95={stats['p95'] * scale:.1f} "
        f"p99={stats['p99'] * scale:.1f}"
    )


def _speed_rows(result) -> list[list]:
    """The rows every result type shares: how far, how fast."""
    return [
        ["simulated (ms)", result.sim_seconds * 1e3],
        ["wall-clock (s)", result.wallclock_seconds],
        ["sim-seconds/second", result.sim_seconds_per_second],
        ["events executed", result.events_executed],
    ]


def _print_run(result: RunResult, title: str) -> None:
    rows = [
        *_speed_rows(result),
        ["flows started", result.flows_started],
        ["flows completed", result.flows_completed],
        ["flows elided", result.flows_elided],
        ["drops", result.drops],
    ]
    if result.model_packets:
        rows.append(["model packets", result.model_packets])
        rows.append(["model drops", result.model_drops])
        rows.append(["inference wall-clock (s)", result.model_inference_seconds])
        rows.append(["inference share", result.inference_share])
        rows.append(["model packets/sec", result.model_packets_per_sec])
    if result.collective is not None:
        rows.append([
            "collective rounds",
            f"{result.collective['rounds_completed']}"
            f"/{result.collective['rounds_requested']}",
        ])
        rows.append(["collective flows", result.collective["flows_launched"]])
    print(f"== {title} ==")
    print(format_table(["metric", "value"], rows))
    for event in result.failure_events:
        a, b = event["link"]
        print(
            f"link {event['action']} {a}-{b} at {event['time'] * 1e3:.3f} ms"
            f" ({'applied' if event['changed'] else 'no-op'})"
        )
    _print_percentiles("RTT (us)", result.rtt_samples, 1e6)
    _print_percentiles("FCT (ms)", result.fcts, 1e3)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _experiment_from_args(args)
    metrics = _metrics_from_args(args)
    world = build_world(config, metrics=metrics)
    packet_trace = None
    if args.trace_csv:
        from repro.net.tracing import PacketTracer

        packet_trace = PacketTracer(world.network)
    world.run()
    if packet_trace is not None:
        count = packet_trace.write_csv(args.trace_csv)
        print(f"wrote {count} trace events to {args.trace_csv}")
    _print_run(
        world.result(), f"full simulation: {args.clusters} clusters @ {args.load:.0%}"
    )
    _export_metrics(args, metrics)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _experiment_from_args(args)
    micro = MicroModelConfig(
        hidden_size=args.hidden,
        num_layers=args.layers,
        cell=args.cell,
        alpha=args.alpha,
        window=args.window,
        train_batches=args.batches,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    print(
        f"training on a {args.clusters}-cluster full simulation "
        f"({config.duration_s * 1e3:.0f} ms @ {config.load:.0%} load)..."
    )
    metrics = _metrics_from_args(args)
    trained, full_output = train_reusable_model(config, micro=micro, metrics=metrics)
    trained.save(args.output)
    rows = [[key, value] for key, value in sorted(trained.training_summary.items())]
    print(format_table(["training metric", "value"], rows))
    print(f"saved model bundle to {args.output}")
    _print_run(full_output.result, "ground-truth run")
    _export_metrics(args, metrics)
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    trained = _load_model(args.model)
    if trained is None:
        return 2
    config = _experiment_from_args(args)
    metrics = _metrics_from_args(args)
    tracer = _tracer_from_args(args, config.seed)
    result, _ = run_hybrid_simulation(
        config, trained, hybrid=_hybrid_config(args), metrics=metrics, tracer=tracer
    )
    mode = "single-black-box" if args.single_black_box else "per-cluster"
    _print_run(result, f"hybrid simulation ({mode}): {args.clusters} clusters")
    _export_metrics(args, metrics)
    if tracer is not None:
        _export_trace(
            args, tracer.records(), tracer.recorded, tracer.evicted,
            "hybrid", config.seed,
        )
    return 0


def _cmd_pdes(args: argparse.Namespace) -> int:
    config = _experiment_from_args(args)
    if args.hybrid:
        if args.model is None:
            print("error: --hybrid requires --model", file=sys.stderr)
            return 2
        trained = _load_model(args.model)
        if trained is None:
            return 2
        from repro.pdes import HybridShardConfig, run_hybrid_sharded

        capacity = _trace_capacity(args)
        shard_kwargs = (
            {} if capacity is None else {"trace": True, "trace_capacity": capacity}
        )
        shard_config = HybridShardConfig(
            workers=args.workers, window_s=args.window,
            metrics=args.worker_metrics, **shard_kwargs,
        )
        result = run_hybrid_sharded(
            config, trained, shard=shard_config, hybrid=_hybrid_config(args)
        )
        rows = [
            ["workers", result.workers],
            ["window (us)", result.window_s * 1e6],
            ["windows", result.windows],
            ["cut links", result.cut_links],
            ["exchanges", result.exchanges],
            ["messages", result.messages],
            ["stall wall-clock (s)", result.stall_seconds],
            ["lookahead violations", result.lookahead_violations],
            ["invariant violations", result.invariant_violations],
            *_speed_rows(result),
            ["flows completed", result.flows_completed],
            ["drops", result.drops],
            ["model packets", result.model_packets],
            ["model drops", result.model_drops],
        ]
        print(
            f"== sharded hybrid ({result.workers} workers): "
            f"{args.clusters} clusters =="
        )
        print(format_table(["metric", "value"], rows))
        _print_percentiles("RTT (us)", result.rtt_samples, 1e6)
        _print_percentiles("FCT (ms)", result.fcts, 1e3)
        if shard_config.trace:
            _export_trace(
                args, result.merged_trace(), result.trace_recorded,
                result.trace_evicted, "pdes-hybrid", config.seed, result.workers,
            )
        return 0

    # Classic full-fidelity PDES (the Figure 1 reproduction).
    from repro.pdes import PdesConfig, run_parallel_simulation

    topology, flows = _generated_workload(config)
    result = run_parallel_simulation(
        topology,
        flows,
        PdesConfig(
            workers=args.workers,
            duration_s=config.duration_s,
            window_s=args.window,
            seed=config.seed,
        ),
        net_config=config.net,
    )
    rows = [
        ["workers", result.workers],
        ["cut links", result.cut_links],
        ["cross-partition messages", result.cross_partition_messages],
        *_speed_rows(result),
        ["flows completed", result.flows_completed],
        ["drops", result.drops],
    ]
    print(f"== parallel DES ({result.workers} workers): {args.clusters} clusters ==")
    print(format_table(["metric", "value"], rows))
    return 0


def _parse_pin_tiers(pins: Optional[Sequence[str]]):
    """Parse repeated ``--pin-tier REGION=TIER`` arguments."""
    from repro.cascade import Tier

    parsed = {}
    for pin in pins or ():
        region_text, sep, tier_text = pin.partition("=")
        if not sep:
            raise ValueError(f"--pin-tier expects REGION=TIER, got {pin!r}")
        try:
            region = int(region_text)
        except ValueError:
            raise ValueError(
                f"--pin-tier region must be an integer, got {region_text!r}"
            ) from None
        parsed[region] = Tier.parse(tier_text)
    return parsed


def _cmd_cascade(args: argparse.Namespace) -> int:
    trained = _load_model(args.model)
    if trained is None:
        return 2
    from repro.cascade import CascadeConfig, Tier, TierBudget, run_cascade_simulation

    config = _experiment_from_args(args)
    cascade_config = CascadeConfig(
        focal_cluster=args.focal_cluster,
        epoch_s=args.epoch_s,
        window_epochs=args.window_epochs,
        initial_tier=Tier.parse(args.initial_tier),
        budget=TierBudget(
            ks=args.budget,
            wasserstein_s=args.wasserstein_budget,
            drop_delta=args.drop_budget,
        ),
        pin_tiers=_parse_pin_tiers(args.pin_tier),
        min_window_samples=args.min_window_samples,
        demote_fraction=args.demote_fraction,
        demote_patience=args.demote_patience,
        cooldown_epochs=args.cooldown_epochs,
        max_promotions_per_epoch=args.max_promotions,
        **_batching_options(args),
    )
    metrics = _metrics_from_args(args)
    tracer = _tracer_from_args(args, config.seed)
    result, cascade_sim = run_cascade_simulation(
        config, trained, cascade=cascade_config, metrics=metrics, tracer=tracer
    )
    _print_run(
        result.result,
        f"cascade simulation: {args.clusters} clusters, "
        f"focal cluster {args.focal_cluster}",
    )
    summary = result.summary
    print(
        f"controller: {summary['epochs']} epochs, "
        f"{summary['promotions']} promotion(s), "
        f"{summary['demotions']} demotion(s), "
        f"{summary['decisions']} decision-log record(s)"
    )
    rows = []
    for region in sorted(summary["tier_residency"], key=int):
        residency = summary["tier_residency"][region]
        rows.append([
            region,
            summary["final_tiers"][region],
            residency.get("flowsim", 0),
            residency.get("hybrid", 0),
            residency.get("des", 0),
        ])
    print(format_table(
        ["region", "final tier", "flowsim epochs", "hybrid epochs", "des epochs"],
        rows,
    ))
    print(format_table(
        ["tier", "packets", "flows"],
        [
            [tier, f"{summary['per_tier_packets'][tier]:.0f}",
             summary["per_tier_flows"][tier]]
            for tier in ("flowsim", "hybrid", "des")
        ],
    ))
    fluid = summary["fluid"]
    print(
        f"fluid tier: {fluid['flows_admitted']} admitted, "
        f"{fluid['flows_completed']} completed, "
        f"{fluid['active_at_end']} in flight at end, "
        f"{fluid['rate_recomputes']} rate recomputes"
    )
    _print_percentiles("fluid FCT (ms)", result.fluid_fcts, 1e3)
    if args.decision_log:
        cascade_sim.decision_log.save(args.decision_log)
        print(f"wrote decision log to {args.decision_log}")
    _export_metrics(args, metrics)
    if tracer is not None:
        _export_trace(
            args, tracer.records(), tracer.recorded, tracer.evicted,
            "cascade", config.seed,
        )
    return 0


def _generated_workload(config: ExperimentConfig):
    """``(topology, flows)``: the experiment as a pre-drawn flow list."""
    from repro.flowsim.workload import generate_workload

    topology = build_clos(config.clos)
    flows = generate_workload(
        topology,
        duration_s=config.duration_s,
        load=config.load,
        sizes=config.sizes(),
        seed=config.seed,
    )
    return topology, flows


def _cmd_flowsim(args: argparse.Namespace) -> int:
    from repro.flowsim import FlowLevelSimulator
    from repro.flowsim.workload import load_workload

    config = _experiment_from_args(args)
    if args.workload:
        topology = build_clos(config.clos)
        try:
            flows = load_workload(args.workload)
        except (OSError, ValueError, TypeError) as error:
            print(f"error: cannot load workload: {error}", file=sys.stderr)
            return 2
    else:
        topology, flows = _generated_workload(config)
    metrics = _metrics_from_args(args)
    simulator = FlowLevelSimulator(topology, metrics=metrics)
    try:
        results = simulator.run(flows)
    except ValueError as error:
        print(f"error: invalid workload: {error}", file=sys.stderr)
        return 2
    rows = [
        ["flows simulated", len(results)],
        ["wall-clock (s)", simulator.wallclock_elapsed],
        ["rate recomputes", simulator.rate_recomputations],
        ["bytes transferred", sum(r.spec.size_bytes for r in results)],
    ]
    print(f"== flow-level simulation: {args.clusters} clusters @ {args.load:.0%} ==")
    print(format_table(["metric", "value"], rows))
    _print_percentiles("FCT (ms)", [r.fct for r in results], 1e3)
    _export_metrics(args, metrics)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import ValidateConfig, render_report, run_differential_pair

    config = _experiment_from_args(args)
    metrics = _metrics_from_args(args)
    if args.model is not None:
        trained = _load_model(args.model)
        if trained is None:
            return 2
    else:
        training = ExperimentConfig(
            clos=ClosParams(clusters=2),
            load=config.load,
            duration_s=args.train_duration,
            seed=config.seed,
        )
        micro = MicroModelConfig(
            hidden_size=args.hidden,
            num_layers=args.layers,
            window=args.window,
            train_batches=args.batches,
            seed=config.seed,
        )
        print(
            f"no --model given: training a bundle on a 2-cluster run "
            f"({training.duration_s * 1e3:.0f} ms @ {training.load:.0%} load)..."
        )
        trained, _ = train_reusable_model(training, micro=micro)
    validate_config = ValidateConfig(
        region_cluster=args.region_cluster,
        full_cluster=args.full_cluster,
        elide_remote_traffic=args.elide_remote_traffic,
        **_batching_options(args),
    )
    diff = run_differential_pair(
        config, trained, validate=validate_config, metrics=metrics
    )
    print(
        f"== differential fidelity: {args.clusters} clusters @ "
        f"{args.load:.0%}, seed {config.seed} =="
    )
    print(render_report(diff.report))
    if args.report_json:
        sides = ("flows_completed", "drops", "events_executed")
        payload = {
            "experiment": {
                "clusters": args.clusters,
                "load": config.load,
                "duration_s": config.duration_s,
                "seed": config.seed,
            },
            "full": {key: getattr(diff.full, key) for key in sides},
            "hybrid": {
                **{key: getattr(diff.hybrid, key) for key in sides},
                "model_packets": diff.hybrid.model_packets,
            },
            "fidelity": diff.report.to_dict(),
        }
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote fidelity report to {args.report_json}")
    _export_metrics(args, metrics)
    violations = diff.checker.total
    if violations:
        print(f"error: {violations} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    trained = _load_model(args.model)
    if trained is None:
        return 2
    from repro.core.evaluation import evaluate_on_fresh_trace

    config = _experiment_from_args(args)
    print(
        f"collecting a held-out trace: {args.clusters}-cluster full "
        f"simulation ({config.duration_s * 1e3:.0f} ms @ {config.load:.0%})..."
    )
    results, _ = evaluate_on_fresh_trace(trained, config, args.region_cluster)
    rows = []
    for direction, ev in results.items():
        rows.append([
            direction.value,
            ev.samples,
            f"{ev.drop_rate_true:.4f}",
            f"{ev.drop_rate_predicted:.4f}",
            "-" if ev.drop_auc is None else f"{ev.drop_auc:.3f}",
            f"{ev.latency_log_mae:.3f}",
            f"{ev.latency_median_relative_error:.2f}",
        ])
    print(format_table(
        ["direction", "samples", "drop_true", "drop_pred", "drop_auc",
         "log_mae", "median_rel_err"],
        rows,
    ))
    return 0


def _format_axes(axes: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(axes.items())) or "-"


def _manifest_cells(manifest) -> list:
    """``[wall (s), model, axes]`` cells of a run-listing row."""
    cache = "-"
    if manifest.model is not None:
        cache = "hit" if manifest.model.get("cache_hit") else "miss"
    wall = (
        f"{manifest.wallclock_seconds:.2f}"
        if manifest.wallclock_seconds is not None
        else "-"
    )
    return [wall, cache, _format_axes(manifest.axes)]


def _cmd_runs_submit(args: argparse.Namespace) -> int:
    from repro.runs import SchedulerConfig, SweepScheduler, load_spec

    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError) as error:
        print(f"error: cannot load spec: {error}", file=sys.stderr)
        return 2
    config = SchedulerConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
    )
    scheduler = SweepScheduler(
        spec, args.out, registry_root=args.registry, config=config
    )
    print(
        f"submitting sweep {spec.name!r}: {len(spec.expand())} runs "
        f"({spec.stage} stage, {args.workers} workers) -> {args.out}"
    )
    manifests = scheduler.submit()
    rows = [
        [m.run_id, m.status, m.attempts, *_manifest_cells(m)] for m in manifests
    ]
    print(format_table(
        ["run", "status", "attempts", "wall (s)", "model", "axes"], rows
    ))
    failed = sum(1 for m in manifests if m.status != "completed")
    if failed:
        print(f"{failed}/{len(manifests)} runs did not complete", file=sys.stderr)
    return 1 if failed else 0


def _cmd_runs_status(args: argparse.Namespace) -> int:
    from repro.runs import RunStore, summarize_statuses

    store = RunStore(args.out)
    manifests = store.manifests(status=args.status, stage=args.stage)
    if not manifests:
        print(f"no run manifests under {args.out}")
        return 0
    rows = [
        [m.run_id, m.stage, m.status, m.attempts, *_manifest_cells(m)]
        for m in manifests
    ]
    print(format_table(
        ["run", "stage", "status", "attempts", "wall (s)", "model", "axes"], rows
    ))
    counts = summarize_statuses(manifests)
    print(", ".join(f"{status}: {count}" for status, count in sorted(counts.items())))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.runs import RunStore

    store = RunStore(args.out)
    try:
        manifest = store.get(args.run_id)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_models_ls(args: argparse.Namespace) -> int:
    from repro.runs import ModelRegistry

    registry = ModelRegistry(args.registry)
    entries = registry.entries()
    if not entries:
        print(f"no models under {args.registry}")
        return 0
    rows = []
    for entry in entries:
        micro = entry.inputs.get("micro", {})
        shape = "-"
        if micro:
            shape = (
                f"{micro.get('cell', '?')} h{micro.get('hidden_size', '?')}"
                f"x{micro.get('num_layers', '?')}"
            )
        rows.append([
            entry.fingerprint,
            shape,
            f"{entry.size_bytes / 1024:.0f}",
            datetime.datetime.fromtimestamp(entry.created_at).strftime("%Y-%m-%d %H:%M:%S"),
            datetime.datetime.fromtimestamp(entry.last_used_at).strftime("%Y-%m-%d %H:%M:%S"),
        ])
    print(format_table(
        ["fingerprint", "model", "size (KiB)", "created", "last used"], rows
    ))
    return 0


def _cmd_models_gc(args: argparse.Namespace) -> int:
    from repro.runs import ModelRegistry

    registry = ModelRegistry(args.registry)
    removed = registry.gc(keep=args.keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for entry in removed:
        print(f"{verb} {entry.fingerprint} ({entry.size_bytes / 1024:.0f} KiB)")
    kept = len(registry.entries())
    print(f"{verb} {len(removed)} model(s); {kept} kept under {args.registry}")
    return 0


def _load_trace_file(run: str):
    """Resolve a run directory / manifest path / trace file to
    ``(meta, records)``; ``None`` after saying why it cannot be read."""
    from pathlib import Path

    from repro.obs.trace import read_trace_jsonl

    path = Path(run)
    if path.is_dir():
        path = path / "trace.jsonl"
    elif path.name == "manifest.json":
        path = path.with_name("trace.jsonl")
    try:
        return read_trace_jsonl(path)
    except (OSError, ValueError) as error:
        print(f"error: cannot load trace: {error}", file=sys.stderr)
        return None


def _format_trace_args(record: dict) -> str:
    parts = []
    for key, value in sorted(record.get("args", {}).items()):
        if isinstance(value, float):
            parts.append(f"{key}={value:.3e}")
        else:
            parts.append(f"{key}={value}")
    return ",".join(parts) or "-"


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.obs.trace import flow_events, trace_id

    loaded = _load_trace_file(args.run)
    if loaded is None:
        return 2
    meta, records = loaded
    target = args.flow
    if target.isdigit() and meta.get("seed") is not None:
        target = trace_id(int(meta["seed"]), int(target), domain=args.domain)
    try:
        events = flow_events(records, target)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not events:
        print(f"no trace records for flow {args.flow!r}")
        return 1
    print(
        f"== flow {args.flow} (trace {events[0]['trace']}): "
        f"{len(events)} records =="
    )
    rows = []
    for record in events:
        duration = record["t1"] - record["t0"]
        rows.append([
            f"{record['t0'] * 1e3:.4f}",
            "-" if record["worker"] is None else record["worker"],
            record["kind"],
            record["name"],
            f"{duration * 1e6:.2f}" if duration > 0 else "-",
            _format_trace_args(record),
        ])
    print(format_table(
        ["t (ms)", "worker", "kind", "name", "dur (us)", "detail"], rows
    ))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.trace import to_chrome_trace

    loaded = _load_trace_file(args.run)
    if loaded is None:
        return 2
    meta, records = loaded
    payload = to_chrome_trace(records)
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"wrote {len(payload['traceEvents'])} Chrome trace events "
            f"to {args.out}"
        )
    else:
        print(text)
    return 0


def _cmd_trace_top(args: argparse.Namespace) -> int:
    from repro.obs.trace import top_spans

    loaded = _load_trace_file(args.run)
    if loaded is None:
        return 2
    meta, records = loaded
    ranked = top_spans(records, by=args.by, limit=args.limit)
    if not ranked:
        print("no spans in this trace")
        return 1
    if args.by == "count":
        print(format_table(
            ["name", "count"], [[row["name"], row["count"]] for row in ranked]
        ))
        return 0
    rows = [
        [
            row["name"],
            row["trace"] or "-",
            "-" if row["worker"] is None else row["worker"],
            f"{row['t0'] * 1e3:.4f}",
            f"{row['duration_s'] * 1e6:.2f}",
        ]
        for row in ranked
    ]
    print(format_table(
        ["span", "trace", "worker", "t0 (ms)", "duration (us)"], rows
    ))
    return 0


def _format_labels(labels: Optional[dict]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted((labels or {}).items())) or "-"


def _cmd_obs_show(args: argparse.Namespace) -> int:
    from repro.runs import RunManifest

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, json.JSONDecodeError, TypeError, KeyError) as error:
        print(f"error: cannot load manifest: {error}", file=sys.stderr)
        return 2
    pdes = (manifest.result or {}).get("pdes")
    if pdes and pdes.get("per_worker"):
        print(
            f"== pdes shards: run {manifest.run_id} "
            f"({pdes['workers']} workers, {pdes['windows']} windows, "
            f"{pdes['exchanges']} exchanges) =="
        )
        rows = [
            [
                worker["worker_index"],
                worker["events_executed"],
                worker["windows"],
                worker["exchanges"],
                worker["messages_sent"],
                worker["messages_received"],
                f"{worker['stall_seconds']:.4f}",
                f"{worker['cpu_seconds']:.4f}",
                worker["flows_completed"],
                worker["model_packets"],
                worker["invariant_violations"],
            ]
            for worker in pdes["per_worker"]
        ]
        print(format_table(
            ["worker", "events", "windows", "exch", "sent", "recv",
             "stall (s)", "cpu (s)", "flows", "model pkts", "viol"],
            rows,
        ))
        trace_info = pdes.get("trace")
        if trace_info:
            print(
                f"trace: {trace_info['recorded']} records merged across "
                f"workers ({trace_info['evicted']} evicted)"
            )
    snap = manifest.metrics
    if snap is None:
        print(f"run {manifest.run_id}: no observability snapshot in this manifest")
        return 1
    if not snap.get("enabled", False):
        print(f"run {manifest.run_id}: metrics were disabled for this run")
        return 0
    print(
        f"== observability: run {manifest.run_id} "
        f"({manifest.stage}, {manifest.status}) =="
    )
    spans = snap.get("spans", [])
    if spans:
        rows = []
        for span in spans:
            s = span["summary"]
            rows.append([
                span["name"], _format_labels(span.get("labels")),
                int(s["count"]), int(s["errors"]),
                f"{s['total_s']:.4f}",
                f"{s.get('seconds_mean', 0.0):.2e}" if s["count"] else "-",
            ])
        print(format_table(
            ["span", "labels", "count", "errors", "total (s)", "mean (s)"], rows
        ))
    for kind in ("counter", "gauge"):
        rows = [
            [entry["name"], _format_labels(entry.get("labels")), entry["value"]]
            for entry in snap.get(f"{kind}s", [])
        ]
        if rows:
            print(format_table([kind, "labels", "value"], rows))
    histograms = snap.get("histograms", [])
    if histograms:
        rows = []
        for hist in histograms:
            s = hist["summary"]
            count = int(s.get("count", 0))
            rows.append([
                hist["name"], _format_labels(hist.get("labels")), count,
                f"{s['mean']:.3e}" if count else "-",
                f"{s['p50']:.3e}" if count else "-",
                f"{s['p99']:.3e}" if count else "-",
                f"{s['max']:.3e}" if count else "-",
            ])
        print(format_table(
            ["histogram", "labels", "count", "mean", "p50", "p99", "max"], rows
        ))
    probes = snap.get("probes", {})
    samples = probes.get("samples", [])
    print(
        f"probe samples: {len(samples)} retained, "
        f"{probes.get('dropped', 0)} dropped"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print(
        "reproduction of: Kazer et al., 'Fast Network Simulation Through "
        "Approximation' (HotNets-XVII, 2018)"
    )
    print(f"micro-model features ({len(FEATURE_NAMES)}):")
    for name in FEATURE_NAMES:
        print(f"  - {name}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="approximate data center network simulation (HotNets'18 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="full packet-level simulation")
    _add_experiment_arguments(simulate)
    simulate.add_argument(
        "--matrix", choices=("uniform", "permutation", "incast"), default="uniform",
        help="traffic matrix (endpoint selection policy)",
    )
    simulate.add_argument(
        "--trace-csv", default=None, help="write a raw packet/event trace CSV here"
    )
    _add_scenario_arguments(simulate)
    _add_metrics_argument(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    train = commands.add_parser("train", help="train a reusable cluster model")
    _add_experiment_arguments(train)
    train.add_argument("--output", required=True, help="model bundle directory")
    train.add_argument("--hidden", type=int, default=32, help="hidden units per layer")
    train.add_argument("--layers", type=int, default=1, help="recurrent layers")
    train.add_argument("--cell", choices=("lstm", "gru"), default="lstm")
    train.add_argument("--alpha", type=float, default=0.5, help="joint-loss latency weight")
    train.add_argument("--window", type=int, default=16, help="BPTT window length")
    train.add_argument("--batches", type=int, default=300, help="SGD steps")
    train.add_argument("--learning-rate", type=float, default=3e-3)
    _add_metrics_argument(train)
    train.set_defaults(handler=_cmd_train)

    hybrid = commands.add_parser("hybrid", help="run an approximate simulation")
    _add_experiment_arguments(hybrid)
    hybrid.add_argument("--model", required=True, help="model bundle directory")
    hybrid.add_argument(
        "--single-black-box", action="store_true",
        help="replace everything outside the full cluster with one model (Section 7)",
    )
    _add_hybrid_arguments(hybrid)
    _add_scenario_arguments(hybrid)
    _add_metrics_argument(hybrid)
    hybrid.set_defaults(handler=_cmd_hybrid)

    pdes = commands.add_parser(
        "pdes",
        help="parallel DES across worker processes (add --hybrid to "
        "shard the hybrid simulation)",
    )
    _add_experiment_arguments(pdes)
    pdes.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    pdes.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="synchronization window (default: the maximum safe lookahead; "
        "larger values are rejected)",
    )
    pdes.add_argument(
        "--hybrid", action="store_true",
        help="shard the hybrid simulation (full-fidelity region split "
        "across workers, cluster models colocated with their attachment "
        "points); requires --model",
    )
    pdes.add_argument(
        "--model", default=None, help="model bundle directory (with --hybrid)"
    )
    pdes.add_argument(
        "--worker-metrics", action="store_true",
        help="collect a per-worker metrics snapshot (hybrid mode)",
    )
    _add_hybrid_arguments(pdes)
    pdes.set_defaults(handler=_cmd_pdes)

    cascade = commands.add_parser(
        "cascade",
        help="multi-fidelity cascade with validated auto-promotion",
    )
    _add_experiment_arguments(cascade)
    cascade.add_argument("--model", required=True, help="model bundle directory")
    cascade.add_argument(
        "--focal-cluster", type=int, default=0,
        help="cluster kept at full packet fidelity (the in-run reference)",
    )
    cascade.add_argument(
        "--budget", type=float, default=0.35, metavar="KS",
        help="per-region K-S fidelity budget on windowed FCTs vs the focal region",
    )
    cascade.add_argument(
        "--drop-budget", type=float, default=0.05, metavar="DELTA",
        help="max tolerated absolute drop-rate difference vs the focal region",
    )
    cascade.add_argument(
        "--wasserstein-budget", type=float, default=None, metavar="SECONDS",
        help="optional absolute Wasserstein-1 budget on windowed FCTs",
    )
    cascade.add_argument(
        "--epoch-s", type=float, default=0.002, metavar="SECONDS",
        help="controller cadence in simulated seconds",
    )
    cascade.add_argument(
        "--window-epochs", type=int, default=3,
        help="sliding scoring horizon, in epochs",
    )
    cascade.add_argument(
        "--min-window-samples", type=int, default=8,
        help="FCT samples both windows need before scores drive decisions",
    )
    cascade.add_argument(
        "--initial-tier", default="flowsim", metavar="TIER",
        help="starting tier of unpinned regions (flowsim|hybrid)",
    )
    cascade.add_argument(
        "--pin-tier", action="append", default=None, metavar="REGION=TIER",
        help="pin one region to a tier the controller must not move "
        "(repeatable, e.g. --pin-tier 2=hybrid)",
    )
    cascade.add_argument(
        "--demote-fraction", type=float, default=0.5,
        help="breach-ratio fraction under which an epoch counts as calm",
    )
    cascade.add_argument(
        "--demote-patience", type=int, default=2,
        help="consecutive calm epochs required before a demotion",
    )
    cascade.add_argument(
        "--cooldown-epochs", type=int, default=1,
        help="epochs a region sits out after any transition",
    )
    cascade.add_argument(
        "--max-promotions", type=int, default=1, metavar="N",
        help="promotion pacing per epoch (worst-breaching regions first)",
    )
    cascade.add_argument(
        "--decision-log", default=None, metavar="PATH",
        help="write the controller's auditable decision log (JSON) here",
    )
    _add_scenario_arguments(cascade)
    _add_batching_arguments(cascade)
    _add_metrics_argument(cascade)
    _add_trace_arguments(cascade)
    cascade.set_defaults(handler=_cmd_cascade)

    flowsim = commands.add_parser(
        "flowsim", help="flow-level (max-min fluid) simulation baseline"
    )
    _add_experiment_arguments(flowsim)
    flowsim.add_argument(
        "workload", nargs="?", default=None,
        help="pre-generated workload JSON (default: sample one from the "
        "experiment arguments)",
    )
    _add_metrics_argument(flowsim)
    flowsim.set_defaults(handler=_cmd_flowsim)

    validate = commands.add_parser(
        "validate",
        help="differential fidelity: score a hybrid against a matched full run",
    )
    _add_experiment_arguments(validate)
    validate.add_argument(
        "--model", default=None,
        help="model bundle directory (default: train a small bundle first)",
    )
    validate.add_argument(
        "--region-cluster", type=int, default=1,
        help="cluster traced in the full run and approximated in the hybrid",
    )
    validate.add_argument(
        "--full-cluster", type=int, default=0,
        help="cluster kept at full fidelity on the hybrid side",
    )
    validate.add_argument(
        "--elide-remote-traffic", action="store_true",
        help="elide flows between approximated clusters (off by default: "
        "the pair should carry identical workloads)",
    )
    validate.add_argument(
        "--train-duration", type=float, default=0.006,
        help="training-run simulated seconds when no --model is given",
    )
    validate.add_argument("--hidden", type=int, default=16, help="hidden units (training fallback)")
    validate.add_argument("--layers", type=int, default=1, help="recurrent layers (training fallback)")
    validate.add_argument("--window", type=int, default=8, help="BPTT window (training fallback)")
    validate.add_argument("--batches", type=int, default=40, help="SGD steps (training fallback)")
    validate.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the full fidelity report as JSON here",
    )
    _add_scenario_arguments(validate)
    _add_batching_arguments(validate)
    _add_metrics_argument(validate)
    validate.set_defaults(handler=_cmd_validate)

    evaluate = commands.add_parser(
        "evaluate", help="score a model bundle against a fresh ground-truth trace"
    )
    _add_experiment_arguments(evaluate)
    evaluate.add_argument("--model", required=True, help="model bundle directory")
    evaluate.add_argument(
        "--region-cluster", type=int, default=1,
        help="cluster whose boundary to trace and predict",
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    runs = commands.add_parser(
        "runs", help="experiment orchestration: sweeps, manifests, run store"
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    submit = runs_commands.add_parser(
        "submit", help="expand a scenario spec and execute its sweep"
    )
    submit.add_argument("--spec", required=True, help="scenario spec (.json or .toml)")
    submit.add_argument("--out", default="runs", help="sweep output directory")
    submit.add_argument(
        "--registry", default=None,
        help="model registry directory (default: <out>/models)",
    )
    submit.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0 = run inline in this process)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, help="per-attempt timeout in seconds"
    )
    submit.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts after a failed or timed-out run",
    )
    submit.add_argument(
        "--backoff", type=float, default=0.25, help="base retry backoff in seconds"
    )
    submit.set_defaults(handler=_cmd_runs_submit)

    status = runs_commands.add_parser("status", help="list a sweep's run manifests")
    status.add_argument("--out", default="runs", help="sweep output directory")
    status.add_argument(
        "--status", default=None,
        choices=("running", "completed", "failed", "timeout"),
        help="only show runs in this state",
    )
    status.add_argument("--stage", default=None, help="only show runs of this stage")
    status.set_defaults(handler=_cmd_runs_status)

    show = runs_commands.add_parser("show", help="print one run's full manifest")
    show.add_argument("run_id", help="run id (see 'repro runs status')")
    show.add_argument("--out", default="runs", help="sweep output directory")
    show.set_defaults(handler=_cmd_runs_show)

    models = commands.add_parser(
        "models", help="model registry: list and garbage-collect trained bundles"
    )
    models_commands = models.add_subparsers(dest="models_command", required=True)

    models_ls = models_commands.add_parser("ls", help="list stored cluster models")
    models_ls.add_argument(
        "--registry", default="runs/models", help="model registry directory"
    )
    models_ls.set_defaults(handler=_cmd_models_ls)

    models_gc = models_commands.add_parser(
        "gc", help="drop all but the most-recently-used models"
    )
    models_gc.add_argument(
        "--registry", default="runs/models", help="model registry directory"
    )
    models_gc.add_argument(
        "--keep", type=int, default=8, help="how many recently-used models to keep"
    )
    models_gc.add_argument(
        "--dry-run", action="store_true", help="report victims without deleting"
    )
    models_gc.set_defaults(handler=_cmd_models_gc)

    obs = commands.add_parser(
        "obs", help="observability: inspect a run's metrics snapshot"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_show = obs_commands.add_parser(
        "show", help="pretty-print the metrics snapshot of a run manifest"
    )
    obs_show.add_argument(
        "manifest", help="path to a manifest.json (or the run directory holding one)"
    )
    obs_show.set_defaults(handler=_cmd_obs_show)

    trace = commands.add_parser(
        "trace",
        help="causal tracing: follow one flow across tiers, shards, and "
        "workers (reads the trace.jsonl a traced run wrote)",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    trace_show = trace_commands.add_parser(
        "show", help="print every trace record of one flow, in causal order"
    )
    trace_show.add_argument(
        "run", help="run directory, manifest.json, or trace.jsonl path"
    )
    trace_show.add_argument(
        "flow", help="flow id (integer, resolved via the trace's seed) or "
        "a trace-id hex prefix",
    )
    trace_show.add_argument(
        "--domain", choices=("flow", "fluid"), default="flow",
        help="id domain when flow is an integer (packet flows vs the "
        "cascade's fluid flows)",
    )
    trace_show.set_defaults(handler=_cmd_trace_show)

    trace_export = trace_commands.add_parser(
        "export", help="export the trace for external viewers"
    )
    trace_export.add_argument(
        "run", help="run directory, manifest.json, or trace.jsonl path"
    )
    trace_export.add_argument(
        "--format", choices=("chrome",), default="chrome",
        help="output format (chrome://tracing / Perfetto JSON)",
    )
    trace_export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write here instead of stdout",
    )
    trace_export.set_defaults(handler=_cmd_trace_export)

    trace_top = trace_commands.add_parser(
        "top", help="rank trace records (longest spans or commonest names)"
    )
    trace_top.add_argument(
        "run", help="run directory, manifest.json, or trace.jsonl path"
    )
    trace_top.add_argument(
        "--by", choices=("span-duration", "count"), default="span-duration",
        help="ranking: longest spans, or record-name frequency",
    )
    trace_top.add_argument("--limit", type=int, default=10)
    trace_top.set_defaults(handler=_cmd_trace_top)

    info = commands.add_parser("info", help="version and model feature list")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as error:
        # The package raises ValueError for invalid user input (bad
        # scenario specs, nonexistent failure links, oversized PDES
        # windows, ...); render it as a CLI error, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
