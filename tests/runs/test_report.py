"""``repro runs report``: paper tables and their shape checks from a
sweep's manifests, exercised on hand-built manifests."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.runs import RunManifest, ScenarioSpec, load_spec
from repro.runs.report import TABLES
from repro.runs.scheduler import SWEEP_SUMMARY_NAME

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: Each paper table's spec (EXPERIMENTS.md gives the two commands).
PAPER_SPECS = {
    "paper/fig5.toml": "fig5", "paper/fig5_large.toml": "fig5",
    "paper/a1_events.toml": "events", "alpha_sweep.toml": "model",
    "paper/a5_capacity.toml": "fidelity", "paper/a6_generality.toml": "fidelity",
    "paper/a9_heads.toml": "model",
}

_EXPERIMENT = {"load": 0.25, "duration_s": 0.004, "seed": 301}

SPECS = {
    "fig5": {"sweep": {"stage": ["simulate", "hybrid"], "clusters": [2, 4], "seed": [1, 2]}},
    "events": {
        "stage": "validate",
        "sweep": {"clusters": [2, 4], "elide_remote_traffic": [False, True]},
    },
    "model": {"stage": "evaluate", "sweep": {"heads": ["shared", "per_macro"]}},
    "fidelity": {"stage": "validate", "sweep": {"hidden_size": [16, 32]}},
}


def _fig5(request, slow_hybrid=False):
    clusters = request.experiment.clos.clusters
    if request.stage == "simulate":
        return {"wallclock_seconds": 0.5 * clusters, "events_executed": 1000 * clusters,
                "flows_elided": 0, "model_packets": 0}
    wall = 0.5 * clusters if slow_hybrid else 0.5
    return {"wallclock_seconds": wall, "events_executed": 900,
            "flows_elided": 3 * clusters, "model_packets": 100}


def _events(request, grow_kept=False):
    clusters = request.experiment.clos.clusters
    elide = request.hybrid.get("elide_remote_traffic", False)
    full = {"events_executed": 1000 * clusters, "flows_started": 10 * clusters}
    kept = 1000 * clusters + (100 if grow_kept else -100)
    hybrid = {
        "events_executed": kept // 2 if elide else kept,
        "flows_started": 4 * clusters if elide else 10 * clusters,
        "flows_elided": 6 * clusters if elide else 0,
    }
    return {"full": full, "hybrid": hybrid}


def _model(request, mae=0.4):
    scores = {"drop_auc": 0.7, "latency_log_mae": mae,
              "latency_median_relative_error": 0.3}
    return {"directions": {"ingress": scores, "egress": dict(scores, drop_auc=None)}}


def _fidelity(request, ks=0.2):
    return {"fidelity": {"fct": {"ks": ks}, "latency": {"ks": 0.3},
                         "drop_rate": {"delta": -0.001}}}


RESULTS = {"fig5": _fig5, "events": _events, "model": _model, "fidelity": _fidelity}


def _write_sweep(out, table, result=None, status=None, missing=(), spec=None):
    """Manifests for every run of ``table``'s spec, as a sweep leaves them."""
    spec = ScenarioSpec.from_dict({"name": f"t-{table}", "experiment": _EXPERIMENT,
                                   **(spec or SPECS[table])})
    requests = spec.expand()
    out.mkdir(parents=True, exist_ok=True)
    (out / SWEEP_SUMMARY_NAME).write_text(json.dumps({
        "spec": spec.to_dict(), "run_ids": [r.run_id for r in requests],
    }))
    result = result or RESULTS[table]
    for request in requests:
        if request.run_id in missing:
            continue
        failed = status is not None and request.index == 1
        model = None
        if request.needs_model:
            model = {"fingerprint": f"fp{request.axes.get('hidden_size', 0)}",
                     "cache_hit": request.index > 1, "train_wallclock_s": 12.5}
        RunManifest(
            run_id=request.run_id, spec_name=spec.name, stage=request.stage,
            status=status if failed else "completed", attempts=1,
            axes=request.axes, seed_master=request.seed_master,
            seed_derived=request.seed_derived, config={}, config_hash="-",
            result=None if failed else result(request),
            hot_path_counters={"inference_seconds_per_packet": 2.5e-5},
            model=model,
            error={"type": "RuntimeError", "message": "boom"} if failed else None,
        ).save(out / request.run_id)
    return requests


@pytest.mark.parametrize("table,expected", [
    ("fig5", ["clusters  seeds  full_s", "2         2      1.00    0.50      2.00     2000",
              "4         2      2.00    0.50      4.00     4000"]),
    ("events", ["hybrid_keep_traffic  hybrid_elide_traffic  fabric_ratio  total_ratio",
                "2         2000         1900                 950                   1.05"
                "          2.11         12"]),
    ("model", ["heads      drop_auc  latency_log_mae", "per_macro  0.700     0.400",
               "shared     0.700     0.400            0.30            12.5"]),
    ("fidelity", ["hidden_size  fct_ks  latency_ks  drop_delta  us_per_model_packet",
                  "16           0.200   0.300       -0.0010     25.0"]),
])
def test_table_renders(table, expected, tmp_path, capsys):
    _write_sweep(tmp_path / table, table)
    assert main(["runs", "report", str(tmp_path / table), "--table", table]) == 0
    captured = capsys.readouterr()
    for line in expected:
        assert line in captured.out, captured.out
    assert captured.err == ""


@pytest.mark.parametrize("table,result,check", [
    ("fig5", lambda r: _fig5(r, slow_hybrid=True), "speedup grows"),
    ("fig5", lambda r: _fig5(r, slow_hybrid=True), "clear win"),
    ("events", lambda r: _events(r, grow_kept=True), "fabric elision at scale"),
    ("model", lambda r: _model(r, mae=float("nan")), "finite latency error"),
    ("fidelity", lambda r: _fidelity(r, ks=None), "K-S below 0.9"),
    ("fidelity", lambda r: _fidelity(r, ks=0.95), "K-S below 0.9"),
], ids=["fig5-growth", "fig5-win", "events-scale", "model-nan", "fidelity-none",
        "fidelity-bound"])
def test_failed_check_exits_1_naming_it(table, result, check, tmp_path, capsys):
    _write_sweep(tmp_path / table, table, result=result)
    assert main(["runs", "report", str(tmp_path / table), "--table", table]) == 1
    captured = capsys.readouterr()
    assert f"check '{check}' failed" in captured.err
    assert captured.out  # the table still renders


def test_events_checks_flows_and_elision(tmp_path, capsys):
    def broken(request):
        result = _events(request)
        if request.hybrid["elide_remote_traffic"]:
            result["hybrid"]["events_executed"] = 10**6
        else:
            result["hybrid"]["flows_started"] -= 1
        return result

    _write_sweep(tmp_path / "a1", "events", result=broken)
    assert main(["runs", "report", str(tmp_path / "a1"), "--table", "events"]) == 1
    err = capsys.readouterr().err
    assert "check 'same flows' failed: clusters=2" in err
    assert "check 'elision shrinks' failed: clusters=4" in err


@pytest.mark.parametrize("status", ["failed", "timeout"])
def test_failed_run_exits_1_naming_it(status, tmp_path, capsys):
    _write_sweep(tmp_path / "s", "fig5", status=status)
    assert main(["runs", "report", str(tmp_path / "s"), "--table", "fig5"]) == 1
    captured = capsys.readouterr()
    assert f"run t-fig5-0001 {status}: RuntimeError: boom" in captured.err
    assert captured.out == ""


def test_missing_run_exits_1_naming_it(tmp_path, capsys):
    _write_sweep(tmp_path / "s", "model", missing={"t-model-0000"})
    assert main(["runs", "report", str(tmp_path / "s"), "--table", "model"]) == 1
    assert "run t-model-0000 is missing" in capsys.readouterr().err


@pytest.mark.parametrize("table,spec,message", [
    ("fig5", {"stage": "hybrid", "sweep": {"clusters": [2, 4]}},
     r"clusters=2 seed=\d+ ran only on side \['hybrid'\]"),
    ("events", {"stage": "validate", "sweep": {"clusters": [2, 4]}},
     r"clusters=2 seed=\d+ ran only on side \[False\]"),
], ids=["fig5", "events"])
def test_unpaired_cell_fails_a_check(table, spec, message, tmp_path, capsys):
    """A table that compares two runs of one workload names a cell
    whose twin the sweep never ran."""
    _write_sweep(tmp_path / "s", table, spec=spec)
    assert main(["runs", "report", str(tmp_path / "s"), "--table", table]) == 1
    assert re.search(f"check 'paired' failed: {message}", capsys.readouterr().err)


@pytest.mark.parametrize("table", ["events", "model"])
def test_table_of_another_stage_exits_2(table, tmp_path, capsys):
    _write_sweep(tmp_path / "s", "fig5")
    assert main(["runs", "report", str(tmp_path / "s"), "--table", table]) == 2
    assert "is a simulate run" in capsys.readouterr().err


def test_no_sweep_exits_2(tmp_path, capsys):
    assert main(["runs", "report", str(tmp_path), "--table", "fig5"]) == 2
    assert "cannot read sweep" in capsys.readouterr().err


@pytest.mark.parametrize("path,table", sorted(PAPER_SPECS.items()))
def test_paper_spec_loads_with_its_tables_stages(path, table):
    spec = load_spec(SPEC_DIR / path)
    assert set(spec.stages) <= set(TABLES[table][0])
    assert len(spec.expand()) > 1
