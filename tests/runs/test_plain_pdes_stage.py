"""Plain PDES is a spec stage: ``{"stage": "pdes"}`` runs through
``repro runs submit`` like every other stage, and its manifest carries
the window loop's ``pdes`` block that ``repro obs show`` renders."""

from __future__ import annotations

from pathlib import Path

from repro.cli import main
from repro.runs import RunStore

SPEC = Path(__file__).resolve().parents[2] / "examples" / "specs" / "pdes_plain_smoke.json"


def test_pdes_stage_through_runs_submit(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([
        "runs", "submit", "--spec", str(SPEC), "--out", str(out),
        "--workers", "0", "--retries", "0",
    ]) == 0
    (manifest,) = RunStore(str(out)).manifests()
    assert manifest.status == "completed", manifest.error
    assert manifest.model is None
    pdes = manifest.result["pdes"]
    assert pdes["workers"] == 2 and len(pdes["per_worker"]) == 2
    assert pdes["exchanges"] > 0
    assert pdes["lookahead_violations"] == 0
    assert pdes["trace"]["recorded"] > 0
    assert Path(manifest.artifacts["trace"]).is_file()
    capsys.readouterr()

    assert main(["obs", "show", str(out / manifest.run_id)]) == 0
    shown = capsys.readouterr().out
    assert "pdes shards" in shown and "2 workers" in shown
    assert "trace:" in shown
