"""Measure one workload; the command ``BENCHMARK.json`` names.

``python3 benchmarks/ledger/bench.py --workload NAME --seed N
--seconds S --trace 0|1`` prints every metric by name with its unit
and, as the last line, one JSON object ``{correct, attempted, failed,
metrics}``.  Exits non-zero when a check fails or nothing could be
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    # BLAS threads are pinned before numpy loads, and inherited by workers.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from benchmarks.ledger.metrics import RUN_SECONDS
    from benchmarks.ledger.workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=42, help="traffic seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "quick"), default="full")
    parser.add_argument("--detail", type=Path, help="also write the full report here")
    args = parser.parse_args(argv)

    # Imported late: without the program under test this fails, and the
    # run ends non-zero before printing any result.
    from benchmarks.ledger.measure import PROFILES, Runner

    runner = Runner(BY_NAME[args.workload], args.seed, PROFILES[args.profile])
    report = runner.traced() if args.trace else runner.untraced(args.seconds)
    if args.detail is not None:
        args.detail.write_text(json.dumps(vars(report) | {"model": runner.model_info}))
    if not report.metrics:
        print(f"{args.workload}: nothing measured: {report.failures}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} signature={report.signature}")
    for name, metric in report.metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report.result_line()))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
