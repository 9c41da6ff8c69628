"""Tests for the command-line interface (in-process, via main())."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from tests.bad_bundles import BAD_BUNDLES


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.clusters == 2
        assert args.load == 0.25


class TestInfo:
    def test_lists_features(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro " in out
        assert "gap_log_us" in out
        assert "macro_minimal" in out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code = main([
            "simulate", "--clusters", "2", "--load", "0.15",
            "--duration", "0.002", "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "full simulation" in out
        assert "events executed" in out
        assert "flows started" in out

    def test_failed_run_is_an_error_not_a_traceback(self):
        """Isolating a host makes a later packet to it unroutable: the
        run fails with exit 1 and a one-line error plus its details."""
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--clusters", "2",
             "--duration", "0.003", "--load", "0.3",
             "--fail-link", "0.0005:server-c0-t0-s0:tor-c0-0"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: UnroutablePacketError: ")
        assert '"failed_links"' in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_trace_csv(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code = main([
            "simulate", "--duration", "0.001", "--load", "0.1",
            "--trace-csv", str(trace_path),
        ])
        assert code == 0
        assert trace_path.exists()
        header = trace_path.read_text().splitlines()[0]
        assert header.startswith("time,kind")

    def test_trace_csv_runs_the_same_scenario(self, tmp_path, capsys, monkeypatch):
        """``--trace-csv`` used to assemble its own network: plain ECMP,
        no failure injector, no collective — a silently different run."""
        import repro.cli

        results = []
        monkeypatch.setattr(
            repro.cli, "_print_run", lambda result, title: results.append(result)
        )
        scenario = [
            "simulate", "--clusters", "2", "--load", "0.15",
            "--duration", "0.006", "--seed", "31", "--routing", "flowlet",
            "--fail-link", "0.002:core-0:agg-c0-0",
            "--fail-link", "0.004:core-0:agg-c0-0:up",
            "--collective", "ring", "--collective-ranks", "4",
            "--chunk-bytes", "20000", "--collective-rounds", "2",
        ]
        assert main(scenario) == 0
        assert main([*scenario, "--trace-csv", str(tmp_path / "trace.csv")]) == 0
        plain, traced = results
        assert len(plain.failure_events) == 2
        assert plain.collective["rounds_completed"] == 2
        assert traced.determinism_signature() == plain.determinism_signature()
        assert (tmp_path / "trace.csv").stat().st_size > 0


class TestTrainAndHybrid:
    def test_full_cli_workflow(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code = main([
            "train", "--clusters", "2", "--load", "0.25",
            "--duration", "0.005", "--seed", "12",
            "--output", str(model_dir),
            "--hidden", "16", "--layers", "1", "--batches", "20",
        ])
        assert code == 0
        assert (model_dir / "bundle.json").exists()
        out = capsys.readouterr().out
        assert "saved model bundle" in out

        code = main([
            "hybrid", "--model", str(model_dir),
            "--clusters", "4", "--duration", "0.002", "--seed", "13",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid simulation (per-cluster)" in out
        assert "model packets" in out

    def test_hybrid_missing_model_exits_2(self, tmp_path, capsys):
        code = main([
            "hybrid", "--model", str(tmp_path / "nope"), "--duration", "0.001",
        ])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("command,kind", [
        pytest.param(command, kind, id=f"{prefix}{kind}")
        for prefix, command in (
            ("", ["hybrid"]), ("pdes-", ["pdes", "--hybrid", "--workers", "2"]),
        )
        for kind in sorted(BAD_BUNDLES)
    ])
    def test_hybrid_bad_model_exits_2(self, command, kind, tmp_path, capsys, trained_bundle):
        """A corrupt or wrong-width bundle is refused before the run,
        and before a sharded run forks its workers."""
        message = BAD_BUNDLES[kind](trained_bundle, tmp_path / kind)
        code = main([
            *command, "--model", str(tmp_path / kind),
            "--clusters", "4", "--duration", "1e-4",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "Traceback" not in err

    def test_evaluate_subcommand(self, tmp_path, capsys):
        model_dir = tmp_path / "eval_model"
        assert main([
            "train", "--duration", "0.005", "--seed", "15",
            "--output", str(model_dir), "--hidden", "16", "--batches", "20",
        ]) == 0
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(model_dir),
            "--duration", "0.004", "--seed", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "drop_pred" in out
        assert "ingress" in out

class TestFlowsim:
    def test_generated_workload(self, capsys):
        code = main([
            "flowsim", "--clusters", "2", "--load", "0.2",
            "--duration", "0.01", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flow-level simulation" in out
        assert "rate recomputes" in out
        assert "FCT (ms)" in out

    def test_workload_file(self, tmp_path, capsys):
        from repro.flowsim.workload import generate_workload, save_workload
        from repro.topology.clos import ClosParams, build_clos
        from repro.traffic.distributions import web_search_sizes

        topology = build_clos(ClosParams(clusters=2))
        flows = generate_workload(
            topology, duration_s=0.005, load=0.2,
            sizes=web_search_sizes(), seed=3,
        )
        path = tmp_path / "workload.json"
        save_workload(flows, path)
        code = main(["flowsim", str(path), "--clusters", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"flows simulated    {len(flows)}" in out

    def test_bad_workload_file_exits_2(self, tmp_path, capsys):
        code = main(["flowsim", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load workload" in capsys.readouterr().err

    def test_metrics_export(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        code = main([
            "flowsim", "--duration", "0.005", "--load", "0.2",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert metrics_path.exists()
        assert "flowsim.flows_completed" in metrics_path.read_text()


class TestCascade:
    @pytest.fixture()
    def model_dir(self, tmp_path, trained_bundle):
        path = tmp_path / "bundle"
        trained_bundle.save(path)
        return path

    def test_cascade_run_reports_tiers(self, model_dir, tmp_path, capsys):
        log_path = tmp_path / "decisions.json"
        code = main([
            "cascade", "--model", str(model_dir),
            "--clusters", "3", "--duration", "0.003", "--seed", "9",
            "--epoch-s", "0.001", "--budget", "0.2",
            "--min-window-samples", "4",
            "--decision-log", str(log_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cascade simulation" in out
        assert "controller:" in out
        assert "final tier" in out
        assert "fluid tier:" in out
        assert log_path.exists()

    def test_pin_tier_parsing(self, model_dir, capsys):
        code = main([
            "cascade", "--model", str(model_dir),
            "--clusters", "3", "--duration", "0.002", "--seed", "9",
            "--pin-tier", "2=hybrid",
        ])
        assert code == 0

    def test_bad_pin_tier_exits_2(self, model_dir, capsys):
        code = main([
            "cascade", "--model", str(model_dir),
            "--duration", "0.001", "--pin-tier", "2:hybrid",
        ])
        assert code == 2
        assert "REGION=TIER" in capsys.readouterr().err

    def test_pin_to_des_rejected(self, model_dir, capsys):
        code = main([
            "cascade", "--model", str(model_dir), "--clusters", "3",
            "--duration", "0.001", "--pin-tier", "2=des",
        ])
        assert code == 2
        assert "cannot pin region 2 to des" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch_s", ["nan", "inf"])
    def test_non_finite_epoch_exits_2(self, model_dir, epoch_s, capsys):
        code = main([
            "cascade", "--model", str(model_dir), "--epoch-s", epoch_s,
        ])
        assert code == 2
        assert "epoch_s must be positive and finite" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = main([
            "cascade", "--model", str(tmp_path / "nope"),
            "--duration", "0.001",
        ])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

