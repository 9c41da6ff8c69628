"""Plain ``repro pdes`` rejects the flags that only mean something with
``--hybrid`` (it used to accept them, exit 0 and ignore them)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.mark.parametrize("flag", [
    ["--memoize"],
    ["--batch-window", "1e-6"],
    ["--model", "bundle"],
    ["--full-cluster", "1"],
    ["--keep-remote-traffic"],
    ["--trace"],
    ["--trace-out", "trace.jsonl"],
    ["--trace-capacity", "8"],
    ["--worker-metrics"],
])
def test_plain_pdes_rejects_hybrid_only_flags(flag, capsys):
    code = main([
        "pdes", "--workers", "2", "--clusters", "2", "--duration", "0.001", *flag,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "--hybrid" in err
