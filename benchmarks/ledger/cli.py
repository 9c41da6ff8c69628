"""The ledger around ``bench.py``: run, compare, selftest, manifest.

``run`` measures every workload (each run of ``bench.py`` is its own
child process, one at a time) and writes one ledger file with a host
fingerprint; ``compare`` judges two ledger files with the bounds in
``BENCHMARK.json``; ``selftest`` is the harness's own test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.ledger import metrics
from benchmarks.ledger.bench import THREAD_VARIABLES
from benchmarks.ledger.workloads import BY_NAME, WORKLOADS

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
DEFAULT_OUT = LEDGER_DIR / "out" / "latest.json"
MIN_PAIRS_FOR_GAIN = 10


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """What a timing depends on besides the program: host and toolchain."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(
            str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")
        ).strip()
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        # bench.py pins these in every child, whatever the caller's shell has.
        "threads": dict.fromkeys(THREAD_VARIABLES, "1"),
        "git_commit": commit or "unknown",
    }


def _measure(workload: str, seed: int, seconds: float, trace: int, profile: str) -> dict:
    """One child run of ``bench.py``; returns its detailed report."""
    with tempfile.TemporaryDirectory(dir=LEDGER_DIR / "out") as scratch:
        detail = Path(scratch) / "detail.json"
        child = subprocess.run(
            [
                sys.executable,
                str(LEDGER_DIR / "bench.py"),
                *("--workload", workload, "--seed", str(seed)),
                *("--seconds", str(seconds), "--trace", str(trace)),
                *("--profile", profile, "--detail", str(detail)),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Everything but the machine-readable last line is for the reader.
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        if not detail.exists():
            return {
                "attempted": 1,
                "failed": 1,
                "failures": ["run ended without a report"],
                "metrics": {},
                "samples": {},
                "signature": "",
            }
        return json.loads(detail.read_text())


def _quartiles(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def run(args) -> int:
    (LEDGER_DIR / "out").mkdir(exist_ok=True)
    names = args.workload or [w.name for w in WORKLOADS]
    ledger = {
        "schema": "benchmarks.ledger/1",
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "preparation": {},
        "workloads": {},
    }
    for name in names:
        plain = _measure(name, args.seed, args.seconds, 0, args.profile)
        traced = _measure(name, args.seed, args.seconds, 1, args.profile)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        end_to_end = {}
        for metric in metrics.END_TO_END:
            if metric.name not in plain["metrics"]:
                continue
            # peak_rss_mb is one reading per run; the others have one per trial.
            values = plain["samples"].get(
                metric.name, [plain["metrics"][metric.name]["value"]]
            )
            end_to_end[metric.name] = {"unit": metric.unit, **_quartiles(values)}
        ledger["workloads"][name] = {
            "why": BY_NAME[name].why,
            "signature": plain["signature"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": plain.get("failures", []) + traced.get("failures", []),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        if "model" in plain:
            ledger["preparation"] = {
                "core.training.train_s": {"value": plain["model"]["train_s"], "unit": "s"}
            }
    ledger["claim"] = None
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    failed = {n: w["failures"] for n, w in ledger["workloads"].items() if w["failed"]}
    print(f"wrote {args.out}" + (f"; FAILED: {failed}" if failed else ""))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(base: list, new: list, better: str, bound: float) -> tuple[dict, str]:
    """``new`` against ``base`` for one workload and end-to-end metric.

    Trial *i* of both files drew the same traffic, so the files are
    compared pair by pair: returns the quartiles of new/base over the
    pairs and one of better / within-bound / worse / unresolved.  When
    the ratios spread wider than the bound, the runs cannot resolve a
    change of that size and nothing is claimed either way.
    """
    pairs = [n / b for b, n in zip(base, new)]
    ratios = _quartiles(pairs)
    worsening = ratios["median"] - 1.0 if better == "lower" else 1.0 - ratios["median"]
    spread = (ratios["q3"] - ratios["q1"]) / ratios["median"]
    if spread > bound:
        return ratios, "unresolved"
    if worsening > bound:
        return ratios, "worse"
    # A gain needs ten pairs, nine tenths of them won, and a median
    # beyond the pairs' own spread; anything less is noise between runs.
    wins = sum((ratio < 1.0) == (better == "lower") for ratio in pairs if ratio != 1.0)
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) and worsening < -spread:
        return ratios, "better"
    return ratios, "within-bound"


def compare(args) -> int:
    base, new = (json.loads(path.read_text()) for path in (args.base, args.new))
    if (base["seed"], base["profile"]) != (new["seed"], new["profile"]):
        print("refusing to compare: the files ran different seeds or profiles", file=sys.stderr)
        return 2
    differing = [
        key
        for key in ("nproc", "numpy", "blas")
        if base["fingerprint"][key] != new["fingerprint"][key]
    ]
    if differing and not args.force:
        print(
            f"refusing to compare: host fingerprints differ in {differing} "
            "(--force to compare anyway)",
            file=sys.stderr,
        )
        return 2
    bounds = {
        m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    bad = 0
    print(
        f"{'workload':20s} {'metric':13s} {'base median':>12s} {'new median':>12s} "
        f"{'new/base median [q1, q3] pairs':>34s}  verdict"
    )
    for name, old in base["workloads"].items():
        if name not in new["workloads"]:
            continue
        cur = new["workloads"][name]
        for metric, spec in bounds.items():
            if metric not in old["end_to_end"] or metric not in cur["end_to_end"]:
                continue
            a, b = old["end_to_end"][metric], cur["end_to_end"][metric]
            ratios, word = verdict(a["values"], b["values"], spec["better"], spec["bound"])
            bad += word == "worse"
            cell = (
                f"{ratios['median']:.3f} [{ratios['q1']:.3f}, {ratios['q3']:.3f}] "
                f"n={ratios['n']}"
            )
            print(
                f"{name:20s} {metric:13s} {a['median']:12.5g} {b['median']:12.5g} "
                f"{cell:>34s}  {word}"
            )
        if cur["failed_share"] > old["failed_share"]:
            bad += 1
            print(
                f"{name:20s} failed_share {old['failed_share']:.3f} -> "
                f"{cur['failed_share']:.3f}  worse"
            )
        # Simulated statistics repeat exactly with the same seed, so any
        # difference means the two programs simulate something different.
        if old["signature"] != cur["signature"]:
            print(f"{name:20s} signature differs: outputs are not the same simulation")
        for metric in metrics.EXACT:
            a = old["per_layer"].get(metric, {}).get("value")
            b = cur["per_layer"].get(metric, {}).get("value")
            if a == b:
                continue
            word = "differs"
            if metric.endswith("_ks") and None not in (a, b) and b > a + metrics.KS_SLACK:
                word = "worse"
                bad += 1
            print(f"{name:20s} {metric} {a} -> {b}  {word}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------
def selftest(args) -> int:
    """Quick profile through every path; every named metric must appear."""
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest(), (
        "BENCHMARK.json is stale: regenerate with `python -m benchmarks.ledger manifest`"
    )
    out = LEDGER_DIR / "out" / "selftest.json"
    status = run(
        argparse.Namespace(workload=None, seed=42, seconds=0.0, profile="quick", out=out)
    )
    assert status == 0, "a quick-profile run failed"
    ledger = json.loads(out.read_text())
    assert list(ledger)[-1] == "claim" and ledger["claim"] is None
    assert list(ledger["workloads"]) == [w["name"] for w in committed["workloads"]]
    for name, workload in ledger["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric in committed[kind]:
                cell = workload[kind][metric["name"]]
                value = cell["median"] if kind == "end_to_end" else cell["value"]
                assert math.isfinite(value), (name, metric["name"], value)
                assert cell["unit"] == metric["unit"], (name, metric["name"])
    status = compare(argparse.Namespace(base=out, new=out, force=False))
    assert status == 0, "a ledger file does not compare clean against itself"
    print("selftest ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="measure workloads into a ledger file")
    run_parser.add_argument("--seed", type=int, default=42, help="traffic seed")
    run_parser.add_argument("--workload", action="append", choices=sorted(BY_NAME))
    run_parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    run_parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    run_parser.add_argument("--profile", choices=("full", "quick"), default="full")
    run_parser.set_defaults(handler=run)

    compare_parser = commands.add_parser("compare", help="judge NEW against BASE")
    compare_parser.add_argument("base", type=Path)
    compare_parser.add_argument("new", type=Path)
    compare_parser.add_argument("--force", action="store_true")
    compare_parser.set_defaults(handler=compare)

    commands.add_parser("selftest", help=selftest.__doc__).set_defaults(handler=selftest)
    commands.add_parser(
        "manifest", help="print BENCHMARK.json as the catalogue defines it"
    ).set_defaults(handler=lambda args: print(json.dumps(metrics.manifest(), indent=2)) or 0)

    args = parser.parse_args(argv)
    return args.handler(args)
