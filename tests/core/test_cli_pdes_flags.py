"""Plain ``repro pdes`` rejects the flags that only mean something with
``--hybrid`` (it used to accept them, exit 0 and ignore them), and
takes the metrics and trace flags both engines share: ``--metrics-out``
collects every worker's metrics and sets no shard field."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.pdes import HybridShardConfig
from repro.runs.executor import stage_configs


@pytest.mark.parametrize("flag", [
    ["--memoize"],
    ["--batch-window", "1e-6"],
    ["--model", "bundle"],
    ["--full-cluster", "1"],
    ["--keep-remote-traffic"],
])
def test_plain_pdes_rejects_hybrid_only_flags(flag, capsys):
    code = main([
        "pdes", "--workers", "2", "--clusters", "2", "--duration", "0.001", *flag,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "--hybrid" in err


@pytest.mark.parametrize("flag, shard", [
    (["--trace"], HybridShardConfig(trace=True)),
    (["--trace-out", "trace.jsonl"], HybridShardConfig(trace=True)),
    (["--trace-capacity", "8"], HybridShardConfig(trace_capacity=8)),
    (["--metrics-out", "metrics.jsonl"], HybridShardConfig()),
])
def test_plain_pdes_takes_worker_metrics_and_trace_flags(flag, shard):
    spec = spec_from_args(build_parser().parse_args(["pdes", *flag]))
    assert spec["stage"] == "pdes"
    assert stage_configs("pdes", spec["hybrid"]) == {"shard": shard}
