"""Fault matrix: a run that fails mid-simulation ends in a failed
manifest that carries the structured error, never a hang or a bare
traceback."""

from __future__ import annotations

from repro.runs import ScenarioSpec
from repro.runs.executor import execute_run


def test_isolated_host_ends_in_failed_manifest(tmp_path):
    """Taking down a server's only link makes a later packet to it
    unroutable; the manifest names the switch, the destination and the
    failed links."""
    spec = ScenarioSpec.from_dict({
        "name": "isolate-host",
        "stage": "simulate",
        "experiment": {"clusters": 2, "load": 0.3, "duration_s": 0.003, "seed": 0},
        "failures": [
            {"time": 0.0005, "link": ["server-c0-t0-s0", "tor-c0-0"], "action": "down"},
        ],
    })
    (request,) = spec.expand()
    manifest = execute_run(request, str(tmp_path), None, attempt=1)
    assert manifest["status"] == "failed"
    error = manifest["error"]
    assert error["type"] == "UnroutablePacketError"
    details = error["details"]
    assert details["dst"] == "server-c0-t0-s0"
    assert details["switch"].startswith("tor-")
    assert details["failed_links"] == [["server-c0-t0-s0", "tor-c0-0"]]
