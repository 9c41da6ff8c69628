"""Fault matrix: a run that fails mid-simulation ends in a failed
manifest that carries the structured error, never a hang or a bare
traceback."""

from __future__ import annotations

import re

import pytest

from repro.runs import ModelRegistry, ScenarioSpec, model_fingerprint
from repro.runs.executor import execute_run
from tests.bad_bundles import BAD_BUNDLES


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


@pytest.mark.parametrize("stage,kind", [
    pytest.param(stage, kind, id=f"{prefix}{kind}")
    for prefix, stage in (("", "hybrid"), ("pdes-", "pdes-hybrid"))
    for kind in sorted(BAD_BUNDLES)
])
def test_bad_model_bundle_ends_in_failed_manifest(stage, kind, tmp_path, trained_bundle):
    """A corrupt or wrong-width bundle in the registry fails the run at
    load or world build, with a message naming what is wrong; the
    sharded stage reads a registry bundle's width from its
    ``bundle.json`` before it forks a worker."""
    spec = ScenarioSpec.from_dict({
        "name": f"bad-bundle-{kind}",
        "stage": stage,
        "experiment": {"clusters": 2, "load": 0.25, "duration_s": 1e-4, "seed": 0},
        "training": {"clusters": 2, "load": 0.25, "duration_s": 0.004, "seed": 7},
    })
    (request,) = spec.expand()
    registry = ModelRegistry(tmp_path / "models")
    entry = registry.entry_dir(model_fingerprint(request.training, request.micro))
    message = BAD_BUNDLES[kind](trained_bundle, entry)
    manifest = execute_run(request, str(tmp_path / "runs"), str(registry.root), attempt=1)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "ValueError"
    assert re.search(message, manifest["error"]["message"])
