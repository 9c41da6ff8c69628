"""Paper tables from a finished sweep (``repro runs report``).

The spec echoed into ``<out>/sweep.json`` is expanded again, so each
run's stage and options are known; its manifest supplies the numbers.
Each table runs the shape checks of its result (DESIGN.md §6).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from statistics import mean

from repro.analysis.reporting import format_table
from repro.runs.manifest import RunStore
from repro.runs.scheduler import SWEEP_SUMMARY_NAME
from repro.runs.spec import ScenarioSpec

#: A6's K-S bound, and the smallest Fig. 5 speedup that is a clear win.
KS_BOUND = 0.9
MIN_SPEEDUP = 1.5


def _check(failures: list[str], ok: bool, name: str, detail: str) -> None:
    if not ok:
        failures.append(f"check '{name}' failed: {detail}")


def _pairs(cells, side_of, failures):
    """``[((clusters, seed), {side_of(request): result})]`` of the
    workloads that ran on both sides; one side alone fails 'paired'."""
    groups: dict[tuple[int, int], dict] = defaultdict(dict)
    for request, manifest in cells:
        key = (request.experiment.clos.clusters, request.seed_derived)
        groups[key][side_of(request)] = manifest.result
    for (clusters, seed), group in sorted(groups.items()):
        _check(failures, len(group) == 2, "paired",
               f"clusters={clusters} seed={seed} ran only on side {list(group)}")
    return [(key, group) for key, group in sorted(groups.items()) if len(group) == 2]


_FIG5_MEANS = ("wallclock_seconds", "events_executed", "flows_elided", "model_packets")


def _fig5(cells, failures):
    by_size: dict[int, list[tuple[dict, dict]]] = defaultdict(list)
    for (clusters, _), pair in _pairs(cells, lambda r: r.stage, failures):
        by_size[clusters].append((pair["simulate"], pair["hybrid"]))
    rows, speedup = [], {}
    for clusters, runs in sorted(by_size.items()):
        speedup[clusters] = mean(f["wallclock_seconds"] / h["wallclock_seconds"] for f, h in runs)
        full, hybrid = ({k: mean(run[side][k] for run in runs) for k in _FIG5_MEANS}
                        for side in (0, 1))
        rows.append([clusters, len(runs), f"{full['wallclock_seconds']:.2f}",
                     f"{hybrid['wallclock_seconds']:.2f}", f"{speedup[clusters]:.2f}",
                     round(full["events_executed"]), round(hybrid["events_executed"]),
                     round(hybrid["flows_elided"]), round(hybrid["model_packets"])])
    if speedup:
        small, large = min(speedup), max(speedup)
        _check(failures, speedup[large] > speedup[small], "speedup grows",
               f"{speedup[large]:.2f}x at {large} clusters, {speedup[small]:.2f}x at {small}")
        _check(failures, speedup[large] > MIN_SPEEDUP, "clear win",
               f"{speedup[large]:.2f}x at {large} clusters is not above {MIN_SPEEDUP}x")
    return ["clusters", "seeds", "full_s", "hybrid_s", "speedup", "full_events",
            "hybrid_events", "flows_elided", "model_packets"], rows


def _events(cells, failures):
    rows = []
    for (clusters, _), side in _pairs(
        cells, lambda r: bool(r.hybrid.get("elide_remote_traffic", False)), failures
    ):
        full, kept, elided = side[False]["full"], side[False]["hybrid"], side[True]["hybrid"]
        events = [full["events_executed"], kept["events_executed"], elided["events_executed"]]
        rows.append([clusters, *events, f"{events[0] / max(events[1], 1):.2f}",
                     f"{events[0] / max(events[2], 1):.2f}", elided["flows_elided"]])
        _check(failures, kept["flows_started"] == full["flows_started"], "same flows",
               f"clusters={clusters}: the hybrid with traffic kept started "
               f"{kept['flows_started']} flows, the full run {full['flows_started']}")
        _check(failures, elided["flows_elided"] == 0 or events[2] <= events[1],
               "elision shrinks", f"clusters={clusters}: {events[2]} events with "
               f"traffic elided, {events[1]} with it kept")
    largest = max((row[0] for row in rows), default=None)
    for row in rows:
        if row[0] == largest:
            _check(failures, row[2] < row[1], "fabric elision at scale",
                   f"clusters={row[0]}: {row[2]} events with traffic kept, {row[1]} full")
    return ["clusters", "full_events", "hybrid_keep_traffic", "hybrid_elide_traffic",
            "fabric_ratio", "total_ratio", "flows_elided"], rows


def _scored(cells, failures, score):
    """One row per cell: its axes, ``score``'s columns, training time."""
    axes = sorted(cells[0][0].axes)
    rows, names = [], []
    for request, manifest in cells:
        names, columns = score(request, manifest, failures)
        train = manifest.model or {"cache_hit": True}
        rows.append([*(request.axes[a] for a in axes), *columns,
                     "hit" if train["cache_hit"] else f"{train['train_wallclock_s']:.1f}"])
    return [*axes, *names, "train_s"], rows


def _model(request, manifest, failures):
    ingress = manifest.result["directions"]["ingress"]
    auc, mae = ingress["drop_auc"], ingress["latency_log_mae"]
    _check(failures, mae is not None and math.isfinite(mae), "finite latency error",
           f"run {request.run_id}: latency_log_mae is {mae}")
    return ["drop_auc", "latency_log_mae", "median_rel_err"], [
        "-" if auc is None else f"{auc:.3f}", f"{mae:.3f}",
        f"{ingress['latency_median_relative_error']:.2f}"]


def _fidelity(request, manifest, failures):
    fidelity = manifest.result["fidelity"]
    ks = [fidelity[side]["ks"] for side in ("fct", "latency")]
    for side, value in zip(("fct", "latency"), ks):
        _check(failures, value is not None and value < KS_BOUND, f"K-S below {KS_BOUND}",
               f"run {request.run_id}: {side} K-S is {value}")
    per_packet = manifest.hot_path_counters["inference_seconds_per_packet"]
    return ["fct_ks", "latency_ks", "drop_delta", "us_per_model_packet"], [
        *("-" if value is None else f"{value:.3f}" for value in ks),
        f"{fidelity['drop_rate']['delta']:.4f}", f"{per_packet * 1e6:.1f}"]


#: Table name -> (the stages its runs must be, builder).
TABLES = {
    "fig5": (("simulate", "hybrid"), _fig5),
    "events": (("validate",), _events),
    "model": (("evaluate",), lambda cells, failures: _scored(cells, failures, _model)),
    "fidelity": (("validate",), lambda cells, failures: _scored(cells, failures, _fidelity)),
}


def sweep_report(out_dir: str | Path, table: str) -> tuple[str, list[str]]:
    """``(table text, failures)``: each failure names a failed check, or a
    run that failed or is missing (then no table is built)."""
    stages, build = TABLES[table]
    path = Path(out_dir) / SWEEP_SUMMARY_NAME
    try:
        spec = ScenarioSpec.from_dict(json.loads(path.read_text())["spec"])
    except (OSError, ValueError, KeyError) as error:
        raise ValueError(f"cannot read sweep {path}: {error}") from None
    store, cells, failures = RunStore(out_dir), [], []
    for request in spec.expand():
        if request.stage not in stages:
            raise ValueError(f"table {table!r} reads {'/'.join(stages)} runs; "
                             f"{request.run_id} is a {request.stage} run")
        try:
            manifest = store.get(request.run_id)
        except KeyError:
            failures.append(f"run {request.run_id} is missing")
            continue
        if manifest.status != "completed":
            error = manifest.error or {}
            failures.append(f"run {request.run_id} {manifest.status}: "
                            f"{error.get('type')}: {error.get('message')}")
        else:
            cells.append((request, manifest))
    if failures:
        return "", failures
    headers, rows = build(cells, failures)
    return format_table(headers, rows), failures
