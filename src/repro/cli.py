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

A stage command is a scenario spec typed as flags: :func:`spec_from_args`
turns argv into the ``experiment`` / ``hybrid`` tables a ``runs
submit`` file would carry (every flag sets the key of the config field
it names), and the run goes through the same
:func:`~repro.runs.executor.run_stage` a sweep worker calls.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import fields
from typing import Any, Optional, Sequence

from repro import __version__
from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile_summary
from repro.core.features import FEATURE_NAMES
from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig, RunResult, train_reusable_model
from repro.core.training import TrainedClusterModel
from repro.runs.executor import StageRun, run_stage, stage_option_keys
from repro.runs.spec import EXPERIMENT_KEYS, ScenarioSpec, experiment_from_dict
from repro.topology.clos import build_clos
from repro.traffic.collectives import CollectiveConfig

#: Keys of a spec's ``micro`` table and of its ``collective`` table.
_MICRO_KEYS = frozenset(f.name for f in fields(MicroModelConfig))
_COLLECTIVE_KEYS = frozenset(f.name for f in fields(CollectiveConfig))


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    arg = parser.add_argument
    arg("--clusters", type=int, default=2, help="number of clusters")
    arg("--load", type=float, default=0.25, help="offered load fraction")
    arg("--duration", type=float, default=0.01, dest="duration_s", metavar="DURATION",
        help="simulated seconds")
    arg("--seed", type=int, default=1, help="master seed")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """AI-factory scenario knobs: routing policy, link failures, and
    collective (AllReduce) workloads — shared by the packet-carrying
    stages (simulate/hybrid/cascade/validate)."""
    arg = parser.add_argument
    arg("--routing", choices=("ecmp", "flowlet", "adaptive"), default="ecmp", dest="policy",
        help="switch routing policy (flowlet: gap-based re-hashing; "
        "adaptive: least-loaded egress among shortest paths)")
    arg("--flowlet-gap-s", type=float, default=50e-6, metavar="SECONDS",
        help="idle gap that opens a new flowlet (with --routing flowlet)")
    arg("--fail-link", action="append", default=None, metavar="TIME:A:B[:ACTION]",
        help="deterministic link event at simulated TIME seconds between "
        "nodes A and B; ACTION is down (default) or up (repeatable, e.g. "
        "--fail-link 0.004:core-0:agg-c0-0 --fail-link 0.007:core-0:agg-c0-0:up)")
    arg("--collective", choices=("ring", "tree"), default=None, dest="algorithm", metavar="ALGO",
        help="drive an AllReduce collective (ring or tree) over all "
        "servers instead of only background traffic")
    arg("--collective-ranks", type=int, default=None, dest="ranks", metavar="N",
        help="participating ranks (default: every server)")
    arg("--collective-dp-groups", type=int, default=1, dest="dp_groups", metavar="N",
        help="independent data-parallel replica groups")
    arg("--chunk-bytes", type=int, default=262_144, metavar="BYTES",
        help="AllReduce chunk size per step")
    arg("--collective-rounds", type=int, default=1, dest="rounds", metavar="N",
        help="training iterations to run (each: TP/PP phases, AllReduce, compute)")
    arg("--collective-compute-s", type=float, default=0.0, dest="compute_s", metavar="SECONDS",
        help="compute phase between iterations (the communicate/compute barrier)")
    arg("--collective-jitter", type=float, default=0.0, dest="compute_jitter",
        metavar="FRACTION", help="uniform jitter fraction on the compute phase (seeded)")
    arg("--tp-bytes", type=int, default=0, metavar="BYTES",
        help="tensor-parallel pairwise exchange before each AllReduce")
    arg("--pp-bytes", type=int, default=0, metavar="BYTES",
        help="pipeline-parallel stage-to-stage transfer before each AllReduce")


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="export observability metrics (spans, counters, histograms, "
                        "sim-time probe samples) as JSONL to this file")


def _add_batching_arguments(parser: argparse.ArgumentParser) -> list:
    arg = parser.add_argument
    return [
        arg("--batch-window", type=float, default=0.0, dest="batch_window_s", metavar="SECONDS",
            help="event-horizon inference batching window; 0 disables "
            "(clamped to the minimum region latency for causality)"),
        arg("--memoize", action="store_true", dest="memoize_inference",
            help="cache steady-state inference outcomes (requires --batch-window)"),
        arg("--memo-approximate", action="store_false", dest="memo_exact",
            help="accept quantized-key memo hits without exact verification "
            "(faster; validate fidelity with `repro validate`)"),
    ]


def _add_trace_arguments(parser: argparse.ArgumentParser) -> list:
    arg = parser.add_argument
    return [
        arg("--trace", action="store_true",
            help="record a deterministic flight-recorder trace (flow "
            "admissions/completions, model decisions, batching rounds, tier "
            "handoffs, cross-worker exchanges); sim-time only, draws no "
            "randomness, seeded outcomes are byte-identical on and off"),
        arg("--trace-out", default=None, metavar="PATH",
            help="write the trace as JSONL to this file (implies --trace)"),
        arg("--trace-capacity", type=int, default=None, metavar="N",
            help="flight-recorder ring size per process (default 4096; the "
            "oldest records evict first when a run outgrows it)"),
    ]


def _add_hybrid_arguments(parser: argparse.ArgumentParser) -> list:
    arg = parser.add_argument
    return [
        arg("--full-cluster", type=int, default=0),
        arg("--keep-remote-traffic", action="store_false", dest="elide_remote_traffic",
            help="simulate traffic between approximated clusters too"),
        *_add_batching_arguments(parser),
        *_add_trace_arguments(parser),
    ]


def _parse_fail_links(specs: Optional[Sequence[str]]) -> list[tuple]:
    """Parse repeated ``--fail-link TIME:A:B[:ACTION]`` arguments."""
    events = []
    for text in specs or ():
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"--fail-link expects TIME:A:B[:ACTION], got {text!r}")
        try:
            time_s = float(parts[0])
        except ValueError:
            raise ValueError(f"--fail-link time must be a number, got {parts[0]!r}") from None
        events.append(tuple([time_s, *parts[1:]]))
    return events


def _parse_pin_tiers(pins: Optional[Sequence[str]]) -> dict[int, str]:
    """Parse repeated ``--pin-tier REGION=TIER`` arguments."""
    parsed = {}
    for pin in pins or ():
        region_text, sep, tier_text = pin.partition("=")
        if not sep:
            raise ValueError(f"--pin-tier expects REGION=TIER, got {pin!r}")
        try:
            region = int(region_text)
        except ValueError:
            raise ValueError(
                f"--pin-tier region must be an integer, got {region_text!r}") from None
        parsed[region] = tier_text
    return parsed


def _table(args: argparse.Namespace, keys) -> dict:
    """The spec table the flags whose dest is one of ``keys`` set."""
    return {key: value for key, value in vars(args).items() if key in keys}


def _experiment_table(args: argparse.Namespace) -> dict:
    """The spec ``experiment`` table the experiment/scenario flags set."""
    table = _table(args, EXPERIMENT_KEYS)
    if "policy" in vars(args):  # the scenario flags
        table["routing"] = _table(args, ("policy", "flowlet_gap_s"))
        table["failures"] = _parse_fail_links(args.fail_link)
        if args.algorithm is not None:
            table["collective"] = _table(args, _COLLECTIVE_KEYS)
    return table


def _hybrid_table(stage: str, args: argparse.Namespace) -> dict:
    """The spec ``hybrid`` table ``stage``'s flags set."""
    keys = stage_option_keys(stage)
    table = _table(args, keys)
    if "trace" in keys:
        table["trace"] = bool(args.trace or args.trace_out)
        if not args.trace_capacity:
            del table["trace_capacity"]
    if stage == "cascade":
        table["budget"] = _table(args, ("ks", "wasserstein_s", "drop_delta"))
        table["pin_tiers"] = _parse_pin_tiers(args.pin_tier)
    return table


def spec_from_args(args: argparse.Namespace) -> dict:
    """The scenario spec (less its ``name``) this stage command means.

    A flag's dest is the key it sets, so ``stage``, ``experiment`` and
    ``hybrid`` are what a ``runs submit`` file carries for the same run;
    ``train`` and a ``validate`` without ``--model`` add the
    ``training`` / ``micro`` tables of the model they train.
    """
    stage = "pdes-hybrid" if args.command == "pdes" else args.command
    experiment, hybrid = _experiment_table(args), _hybrid_table(stage, args)
    spec = {"stage": stage, "experiment": experiment, "hybrid": hybrid}
    if stage == "train":
        spec["training"] = experiment
    elif stage == "validate" and args.model is None:
        spec["training"] = {"clusters": 2, "load": args.load,
                            "duration_s": args.train_duration, "seed": args.seed}
    if "training" in spec:
        spec["micro"] = _table(args, _MICRO_KEYS)
    return spec


def _spec(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec.from_dict({"name": args.command, **spec_from_args(args)})


def _run(args: argparse.Namespace, model=None, **kwargs) -> tuple[ScenarioSpec, StageRun, Any]:
    """``(spec, run, metrics)``: the command's spec through the stage runner."""
    spec = _spec(args)
    metrics = _metrics_from_args(args)
    run = run_stage(
        spec.stage, spec.experiment, spec.hybrid, model,
        metrics=metrics, trace_path=getattr(args, "trace_out", None), **kwargs,
    )
    return spec, run, metrics


def _load_model(path: str) -> TrainedClusterModel:
    """The bundle at ``path``; a missing one is an input error (exit 2)."""
    try:
        return TrainedClusterModel.load(path)
    except FileNotFoundError as error:
        raise ValueError(f"cannot load model bundle: {error}") from None


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


def _finish(args: argparse.Namespace, run: StageRun, metrics) -> int:
    """Export ``--metrics-out``, report the trace; the exit code."""
    _export_metrics(args, metrics)
    if run.trace is None:
        return 0
    print(f"trace: {run.trace['recorded']} records ({run.trace['evicted']} evicted from the ring)")
    if args.trace_out is None:
        return 0
    if run.trace_written is None:
        print(f"error: cannot write trace to {args.trace_out}", file=sys.stderr)
        return 1
    print(f"wrote {run.trace_written} trace records to {args.trace_out}")
    return 0


def _print_percentiles(name: str, sample: Sequence[float], scale: float) -> None:
    """The ``name: n= p50= p95= p99=`` line (nothing for no samples)."""
    if not sample:
        return
    stats = percentile_summary(sample, percentiles=(50, 95, 99))
    quantiles = " ".join(f"{q}={stats[q] * scale:.1f}" for q in ("p50", "p95", "p99"))
    print(f"{name}: n={int(stats['count'])} {quantiles}")


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
        rows += [
            ["model packets", result.model_packets],
            ["model drops", result.model_drops],
            ["inference wall-clock (s)", result.model_inference_seconds],
            ["inference share", result.inference_share],
            ["model packets/sec", result.model_packets_per_sec],
        ]
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
    packet_traces = []

    def tap(world) -> None:
        from repro.net.tracing import PacketTracer

        packet_traces.append(PacketTracer(world.network))

    _, run, metrics = _run(args, tap=tap if args.trace_csv else None)
    for packet_trace in packet_traces:
        count = packet_trace.write_csv(args.trace_csv)
        print(f"wrote {count} trace events to {args.trace_csv}")
    _print_run(
        run.result, f"full simulation: {args.clusters} clusters @ {args.load:.0%}"
    )
    return _finish(args, run, metrics)


def _cmd_train(args: argparse.Namespace) -> int:
    spec = _spec(args)
    training = spec.training
    print(
        f"training on a {args.clusters}-cluster full simulation "
        f"({training.duration_s * 1e3:.0f} ms @ {training.load:.0%} load)..."
    )
    metrics = _metrics_from_args(args)
    trained, full_output = train_reusable_model(training, micro=spec.micro, metrics=metrics)
    trained.save(args.output)
    rows = [[key, value] for key, value in sorted(trained.training_summary.items())]
    print(format_table(["training metric", "value"], rows))
    print(f"saved model bundle to {args.output}")
    _print_run(full_output.result, "ground-truth run")
    _export_metrics(args, metrics)
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    _, run, metrics = _run(args, _load_model(args.model))
    mode = "single-black-box" if args.single_black_box else "per-cluster"
    _print_run(run.result, f"hybrid simulation ({mode}): {args.clusters} clusters")
    return _finish(args, run, metrics)


def _cmd_pdes(args: argparse.Namespace) -> int:
    if args.hybrid:
        return _cmd_pdes_hybrid(args)
    stray = [
        action.option_strings[0]
        for action in args.hybrid_only
        if getattr(args, action.dest) != action.default
    ]
    if stray:
        raise ValueError(f"{', '.join(stray)} requires --hybrid")

    # Classic full-fidelity PDES (the Figure 1 reproduction).
    from repro.pdes import PdesConfig, run_parallel_simulation

    config = experiment_from_dict(_experiment_table(args))
    topology, flows = _generated_workload(config)
    pdes_config = PdesConfig(
        workers=args.workers, duration_s=config.duration_s,
        window_s=args.window_s, seed=config.seed,
    )
    result = run_parallel_simulation(topology, flows, pdes_config, net_config=config.net)
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


def _cmd_pdes_hybrid(args: argparse.Namespace) -> int:
    if args.model is None:
        raise ValueError("--hybrid requires --model")
    _, run, metrics = _run(args, _load_model(args.model))
    result = run.result
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
    print(f"== sharded hybrid ({result.workers} workers): {args.clusters} clusters ==")
    print(format_table(["metric", "value"], rows))
    _print_percentiles("RTT (us)", result.rtt_samples, 1e6)
    _print_percentiles("FCT (ms)", result.fcts, 1e3)
    return _finish(args, run, metrics)


def _cmd_cascade(args: argparse.Namespace) -> int:
    _, run, metrics = _run(args, _load_model(args.model))
    result, cascade_sim = run.result, run.detail
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
    tiers = ("flowsim", "hybrid", "des")
    rows = [
        [region, summary["final_tiers"][region],
         *(summary["tier_residency"][region].get(tier, 0) for tier in tiers)]
        for region in sorted(summary["tier_residency"], key=int)
    ]
    print(format_table(
        ["region", "final tier", "flowsim epochs", "hybrid epochs", "des epochs"],
        rows,
    ))
    print(format_table(
        ["tier", "packets", "flows"],
        [
            [tier, f"{summary['per_tier_packets'][tier]:.0f}",
             summary["per_tier_flows"][tier]]
            for tier in tiers
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
    return _finish(args, run, metrics)


def _generated_workload(config: ExperimentConfig):
    """``(topology, flows)``: the experiment as a pre-drawn flow list."""
    from repro.flowsim.workload import generate_workload

    topology = build_clos(config.clos)
    flows = generate_workload(
        topology, duration_s=config.duration_s, load=config.load,
        sizes=config.sizes(), seed=config.seed,
    )
    return topology, flows


def _cmd_flowsim(args: argparse.Namespace) -> int:
    from repro.flowsim import FlowLevelSimulator
    from repro.flowsim.workload import load_workload

    config = experiment_from_dict(_experiment_table(args))
    if args.workload:
        topology = build_clos(config.clos)
        try:
            flows = load_workload(args.workload)
        except (OSError, ValueError, TypeError) as error:
            raise ValueError(f"cannot load workload: {error}") from None
    else:
        topology, flows = _generated_workload(config)
    metrics = _metrics_from_args(args)
    simulator = FlowLevelSimulator(topology, metrics=metrics)
    try:
        results = simulator.run(flows)
    except ValueError as error:
        raise ValueError(f"invalid workload: {error}") from None
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
    from repro.validate import render_report

    if args.model is not None:
        trained = _load_model(args.model)
    else:
        spec = _spec(args)
        training = spec.training
        print(
            f"no --model given: training a bundle on a 2-cluster run "
            f"({training.duration_s * 1e3:.0f} ms @ {training.load:.0%} load)..."
        )
        trained, _ = train_reusable_model(training, micro=spec.micro)
    spec, run, metrics = _run(args, trained)
    diff, config = run.result, spec.experiment
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
    print(
        f"collecting a held-out trace: {args.clusters}-cluster full "
        f"simulation ({args.duration_s * 1e3:.0f} ms @ {args.load:.0%})..."
    )
    _, run, _ = _run(args, trained, region_cluster=args.region_cluster)
    rows = [
        [
            direction.value,
            ev.samples,
            f"{ev.drop_rate_true:.4f}",
            f"{ev.drop_rate_predicted:.4f}",
            "-" if ev.drop_auc is None else f"{ev.drop_auc:.3f}",
            f"{ev.latency_log_mae:.3f}",
            f"{ev.latency_median_relative_error:.2f}",
        ]
        for direction, ev in run.result.items()
    ]
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
    wall = manifest.wallclock_seconds
    return ["-" if wall is None else f"{wall:.2f}", cache, _format_axes(manifest.axes)]


def _cmd_runs_submit(args: argparse.Namespace) -> int:
    from repro.runs import SchedulerConfig, SweepScheduler, load_spec

    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot load spec: {error}") from None
    config = SchedulerConfig(
        workers=args.workers, timeout_s=args.timeout,
        retries=args.retries, backoff_s=args.backoff,
    )
    scheduler = SweepScheduler(spec, args.out, registry_root=args.registry, config=config)
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

    try:
        manifest = RunStore(args.out).get(args.run_id)
    except KeyError as error:
        raise ValueError(str(error)) from None
    print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_models_ls(args: argparse.Namespace) -> int:
    from repro.runs import ModelRegistry

    entries = ModelRegistry(args.registry).entries()
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
            *(
                datetime.datetime.fromtimestamp(stamp).strftime("%Y-%m-%d %H:%M:%S")
                for stamp in (entry.created_at, entry.last_used_at)
            ),
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


def _load_trace_file(run: str) -> tuple[dict, list[dict]]:
    """``(meta, records)`` of a run directory / manifest path / trace file."""
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
        raise ValueError(f"cannot load trace: {error}") from None


def _format_trace_args(record: dict) -> str:
    parts = [
        f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"
        for key, value in sorted(record.get("args", {}).items())
    ]
    return ",".join(parts) or "-"


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.obs.trace import flow_events, trace_id

    meta, records = _load_trace_file(args.run)
    target = args.flow
    if target.isdigit() and meta.get("seed") is not None:
        target = trace_id(int(meta["seed"]), int(target), domain=args.domain)
    events = flow_events(records, target)
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
            f"{record['t0'] * 1e3:.4f}", "-" if record["worker"] is None else record["worker"],
            record["kind"], record["name"],
            f"{duration * 1e6:.2f}" if duration > 0 else "-", _format_trace_args(record),
        ])
    print(format_table(
        ["t (ms)", "worker", "kind", "name", "dur (us)", "detail"], rows
    ))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.trace import to_chrome_trace

    _, records = _load_trace_file(args.run)
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

    _, records = _load_trace_file(args.run)
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


#: Columns of ``obs show``'s per-worker shard table (manifest keys).
_SHARD_COLUMNS = {
    "worker": "worker_index", "events": "events_executed", "windows": "windows",
    "exch": "exchanges", "sent": "messages_sent", "recv": "messages_received",
    "stall (s)": "stall_seconds", "cpu (s)": "cpu_seconds",
    "flows": "flows_completed", "model pkts": "model_packets",
    "viol": "invariant_violations",
}


def _cmd_obs_show(args: argparse.Namespace) -> int:
    from repro.runs import RunManifest

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, json.JSONDecodeError, TypeError, KeyError) as error:
        raise ValueError(f"cannot load manifest: {error}") from None
    pdes = (manifest.result or {}).get("pdes")
    if pdes and pdes.get("per_worker"):
        print(
            f"== pdes shards: run {manifest.run_id} "
            f"({pdes['workers']} workers, {pdes['windows']} windows, "
            f"{pdes['exchanges']} exchanges) =="
        )
        rows = [
            [
                f"{worker[key]:.4f}" if key.endswith("_seconds") else worker[key]
                for key in _SHARD_COLUMNS.values()
            ]
            for worker in pdes["per_worker"]
        ]
        print(format_table(list(_SHARD_COLUMNS), rows))
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
            mean = f"{s.get('seconds_mean', 0.0):.2e}" if s["count"] else "-"
            rows.append([span["name"], _format_labels(span.get("labels")), int(s["count"]),
                         int(s["errors"]), f"{s['total_s']:.4f}", mean])
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
            stats = (f"{s[key]:.3e}" if count else "-" for key in ("mean", "p50", "p99", "max"))
            rows.append([hist["name"], _format_labels(hist.get("labels")), count, *stats])
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
def _command(group, name: str, handler, help: str) -> argparse.ArgumentParser:
    sub = group.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    return sub


def _stage(commands, name: str, handler, help: str) -> argparse.ArgumentParser:
    """A stage subcommand: the experiment flags come first."""
    stage = _command(commands, name, handler, help)
    _add_experiment_arguments(stage)
    return stage


def _group(commands, name: str, help: str):
    """The subcommands of ``repro <name>``."""
    group = commands.add_parser(name, help=help)
    return group.add_subparsers(dest=f"{name}_command", required=True)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs).

    A stage flag's ``dest`` is the spec key it sets (see
    :func:`spec_from_args`).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="approximate data center network simulation (HotNets'18 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = _stage(commands, "simulate", _cmd_simulate, "full packet-level simulation")
    arg = simulate.add_argument
    arg("--matrix", choices=("uniform", "permutation", "incast"), default="uniform",
        help="traffic matrix (endpoint selection policy)")
    arg("--trace-csv", default=None, help="write a raw packet/event trace CSV here")
    _add_scenario_arguments(simulate)
    _add_metrics_argument(simulate)

    train = _stage(commands, "train", _cmd_train, "train a reusable cluster model")
    arg = train.add_argument
    arg("--output", required=True, help="model bundle directory")
    arg("--hidden", type=int, default=32, dest="hidden_size", metavar="HIDDEN",
        help="hidden units per layer")
    arg("--layers", type=int, default=1, dest="num_layers", metavar="LAYERS",
        help="recurrent layers")
    arg("--cell", choices=("lstm", "gru"), default="lstm")
    arg("--alpha", type=float, default=0.5, help="joint-loss latency weight")
    arg("--window", type=int, default=16, help="BPTT window length")
    arg("--batches", type=int, default=300, dest="train_batches", metavar="BATCHES",
        help="SGD steps")
    arg("--learning-rate", type=float, default=3e-3)
    _add_metrics_argument(train)

    hybrid = _stage(commands, "hybrid", _cmd_hybrid, "run an approximate simulation")
    arg = hybrid.add_argument
    arg("--model", required=True, help="model bundle directory")
    arg("--single-black-box", action="store_true",
        help="replace everything outside the full cluster with one model (Section 7)")
    _add_hybrid_arguments(hybrid)
    _add_scenario_arguments(hybrid)
    _add_metrics_argument(hybrid)

    pdes = _stage(
        commands, "pdes", _cmd_pdes,
        "parallel DES across worker processes (add --hybrid to "
        "shard the hybrid simulation)",
    )
    arg = pdes.add_argument
    arg("--workers", type=int, default=2, help="worker processes")
    arg("--window", type=float, default=None, dest="window_s", metavar="SECONDS",
        help="synchronization window (default: the maximum safe lookahead; "
        "larger values are rejected)")
    arg("--hybrid", action="store_true",
        help="shard the hybrid simulation (full-fidelity region split "
        "across workers, cluster models colocated with their attachment "
        "points); requires --model")
    # Flags that only mean something with --hybrid (rejected without it).
    hybrid_only = [
        arg("--model", default=None, help="model bundle directory (with --hybrid)"),
        arg("--worker-metrics", action="store_true", dest="metrics",
            help="collect a per-worker metrics snapshot (hybrid mode)"),
        *_add_hybrid_arguments(pdes),
    ]
    pdes.set_defaults(hybrid_only=hybrid_only)

    cascade = _stage(
        commands, "cascade", _cmd_cascade,
        "multi-fidelity cascade with validated auto-promotion",
    )
    arg = cascade.add_argument
    arg("--model", required=True, help="model bundle directory")
    arg("--focal-cluster", type=int, default=0,
        help="cluster kept at full packet fidelity (the in-run reference)")
    arg("--budget", type=float, default=0.35, dest="ks", metavar="KS",
        help="per-region K-S fidelity budget on windowed FCTs vs the focal region")
    arg("--drop-budget", type=float, default=0.05, dest="drop_delta", metavar="DELTA",
        help="max tolerated absolute drop-rate difference vs the focal region")
    arg("--wasserstein-budget", type=float, default=None, dest="wasserstein_s",
        metavar="SECONDS", help="optional absolute Wasserstein-1 budget on windowed FCTs")
    arg("--epoch-s", type=float, default=0.002, metavar="SECONDS",
        help="controller cadence in simulated seconds")
    arg("--window-epochs", type=int, default=3, help="sliding scoring horizon, in epochs")
    arg("--min-window-samples", type=int, default=8,
        help="FCT samples both windows need before scores drive decisions")
    arg("--initial-tier", default="flowsim", metavar="TIER",
        help="starting tier of unpinned regions (flowsim|hybrid)")
    arg("--pin-tier", action="append", default=None, metavar="REGION=TIER",
        help="pin one region to a tier the controller must not move "
        "(repeatable, e.g. --pin-tier 2=hybrid)")
    arg("--demote-fraction", type=float, default=0.5,
        help="breach-ratio fraction under which an epoch counts as calm")
    arg("--demote-patience", type=int, default=2,
        help="consecutive calm epochs required before a demotion")
    arg("--cooldown-epochs", type=int, default=1,
        help="epochs a region sits out after any transition")
    arg("--max-promotions", type=int, default=1, dest="max_promotions_per_epoch",
        metavar="N", help="promotion pacing per epoch (worst-breaching regions first)")
    arg("--decision-log", default=None, metavar="PATH",
        help="write the controller's auditable decision log (JSON) here")
    _add_scenario_arguments(cascade)
    _add_batching_arguments(cascade)
    _add_metrics_argument(cascade)
    _add_trace_arguments(cascade)

    flowsim = _stage(
        commands, "flowsim", _cmd_flowsim, "flow-level (max-min fluid) simulation baseline"
    )
    flowsim.add_argument(
        "workload", nargs="?", default=None,
        help="pre-generated workload JSON (default: sample one from the "
        "experiment arguments)",
    )
    _add_metrics_argument(flowsim)

    validate = _stage(
        commands, "validate", _cmd_validate,
        "differential fidelity: score a hybrid against a matched full run",
    )
    arg = validate.add_argument
    arg("--model", default=None,
        help="model bundle directory (default: train a small bundle first)")
    arg("--region-cluster", type=int, default=1,
        help="cluster traced in the full run and approximated in the hybrid")
    arg("--full-cluster", type=int, default=0,
        help="cluster kept at full fidelity on the hybrid side")
    arg("--elide-remote-traffic", action="store_true",
        help="elide flows between approximated clusters (off by default: "
        "the pair should carry identical workloads)")
    arg("--train-duration", type=float, default=0.006,
        help="training-run simulated seconds when no --model is given")
    arg("--hidden", type=int, default=16, dest="hidden_size", metavar="HIDDEN",
        help="hidden units (training fallback)")
    arg("--layers", type=int, default=1, dest="num_layers", metavar="LAYERS",
        help="recurrent layers (training fallback)")
    arg("--window", type=int, default=8, help="BPTT window (training fallback)")
    arg("--batches", type=int, default=40, dest="train_batches", metavar="BATCHES",
        help="SGD steps (training fallback)")
    arg("--report-json", default=None, metavar="PATH",
        help="write the full fidelity report as JSON here")
    _add_scenario_arguments(validate)
    _add_batching_arguments(validate)
    _add_metrics_argument(validate)

    evaluate = _stage(
        commands, "evaluate", _cmd_evaluate,
        "score a model bundle against a fresh ground-truth trace",
    )
    arg = evaluate.add_argument
    arg("--model", required=True, help="model bundle directory")
    arg("--region-cluster", type=int, default=1,
        help="cluster whose boundary to trace and predict")

    runs = _group(commands, "runs", "experiment orchestration: sweeps, manifests, run store")
    arg = _command(
        runs, "submit", _cmd_runs_submit, "expand a scenario spec and execute its sweep"
    ).add_argument
    arg("--spec", required=True, help="scenario spec (.json or .toml)")
    arg("--out", default="runs", help="sweep output directory")
    arg("--registry", default=None, help="model registry directory (default: <out>/models)")
    arg("--workers", type=int, default=1,
        help="worker processes (0 = run inline in this process)")
    arg("--timeout", type=float, default=None, help="per-attempt timeout in seconds")
    arg("--retries", type=int, default=1,
        help="extra attempts after a failed or timed-out run")
    arg("--backoff", type=float, default=0.25, help="base retry backoff in seconds")
    arg = _command(runs, "status", _cmd_runs_status, "list a sweep's run manifests").add_argument
    arg("--out", default="runs", help="sweep output directory")
    arg("--status", default=None, choices=("running", "completed", "failed", "timeout"),
        help="only show runs in this state")
    arg("--stage", default=None, help="only show runs of this stage")
    arg = _command(runs, "show", _cmd_runs_show, "print one run's full manifest").add_argument
    arg("run_id", help="run id (see 'repro runs status')")
    arg("--out", default="runs", help="sweep output directory")

    models = _group(
        commands, "models", "model registry: list and garbage-collect trained bundles"
    )
    arg = _command(models, "ls", _cmd_models_ls, "list stored cluster models").add_argument
    arg("--registry", default="runs/models", help="model registry directory")
    arg = _command(
        models, "gc", _cmd_models_gc, "drop all but the most-recently-used models"
    ).add_argument
    arg("--registry", default="runs/models", help="model registry directory")
    arg("--keep", type=int, default=8, help="how many recently-used models to keep")
    arg("--dry-run", action="store_true", help="report victims without deleting")

    obs = _group(commands, "obs", "observability: inspect a run's metrics snapshot")
    _command(
        obs, "show", _cmd_obs_show, "pretty-print the metrics snapshot of a run manifest"
    ).add_argument(
        "manifest", help="path to a manifest.json (or the run directory holding one)"
    )

    trace = _group(
        commands, "trace",
        "causal tracing: follow one flow across tiers, shards, and "
        "workers (reads the trace.jsonl a traced run wrote)",
    )
    trace_show, trace_export, trace_top = [
        _command(trace, "show", _cmd_trace_show,
                 "print every trace record of one flow, in causal order"),
        _command(trace, "export", _cmd_trace_export, "export the trace for external viewers"),
        _command(trace, "top", _cmd_trace_top,
                 "rank trace records (longest spans or commonest names)"),
    ]
    for sub in (trace_show, trace_export, trace_top):
        sub.add_argument("run", help="run directory, manifest.json, or trace.jsonl path")
    arg = trace_show.add_argument
    arg("flow", help="flow id (integer, resolved via the trace's seed) or "
        "a trace-id hex prefix")
    arg("--domain", choices=("flow", "fluid"), default="flow",
        help="id domain when flow is an integer (packet flows vs the "
        "cascade's fluid flows)")
    arg = trace_export.add_argument
    arg("--format", choices=("chrome",), default="chrome",
        help="output format (chrome://tracing / Perfetto JSON)")
    arg("--out", default=None, metavar="PATH", help="write here instead of stdout")
    arg = trace_top.add_argument
    arg("--by", choices=("span-duration", "count"), default="span-duration",
        help="ranking: longest spans, or record-name frequency")
    arg("--limit", type=int, default=10)

    _command(commands, "info", _cmd_info, "version and model feature list")
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
