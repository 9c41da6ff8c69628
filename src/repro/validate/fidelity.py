"""Distributional fidelity metrics for matched full/hybrid run pairs.

Section 5 of the paper argues the approximation by *comparing
distributions* against full-fidelity simulation; learned-simulator
follow-ups (m4, Scalable Tail Latency Estimation) made distribution
distances against packet-level ground truth the standard headline
metric.  This module computes those scores for one matched pair:

* K-S statistic and Wasserstein-1 distance on per-flow FCT samples and
  on per-packet region latency samples (full side: measured boundary
  crossings; hybrid side: the model's predicted latencies — exactly
  the interval the model replaces),
* drop-rate and throughput deltas,
* a per-bucket macro-state agreement/confusion matrix: both runs'
  outcome streams are replayed through identically calibrated
  :class:`~repro.core.macro.AutoRegressiveMacroClassifier` instances
  and compared bucket by bucket, so the question "did the hybrid live
  in the same congestion regime as ground truth?" gets a number.

Everything here is computed over *simulated* time and seeded inputs —
no wall clocks, no RNG — so a fidelity report is a pure function of
the pair and re-running the same pair yields identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.stats import ks_distance, wasserstein_distance
from repro.core.macro import (
    MACRO_BUCKET_S,
    AutoRegressiveMacroClassifier,
    MacroCalibration,
    MacroState,
)

#: Row/column order of the confusion matrix (state value order).
MACRO_STATE_NAMES = tuple(state.name.lower() for state in MacroState)

#: One packet outcome: (sim time, latency seconds or None, dropped).
Outcome = tuple[float, Optional[float], bool]


def compare_samples(full: Sequence[float], hybrid: Sequence[float]) -> dict[str, Any]:
    """K-S and Wasserstein-1 between two sample sets, with size guards.

    Distances need both sides non-empty; a starved side yields ``None``
    scores (visible, not a crash) because tiny smoke scenarios can
    legitimately complete zero flows on one side.
    """
    result: dict[str, Any] = {
        "full_samples": len(full),
        "hybrid_samples": len(hybrid),
        "ks": None,
        "wasserstein": None,
        "full_mean": float(np.mean(full)) if len(full) else None,
        "hybrid_mean": float(np.mean(hybrid)) if len(hybrid) else None,
    }
    if len(full) and len(hybrid):
        result["ks"] = ks_distance(full, hybrid)
        result["wasserstein"] = wasserstein_distance(full, hybrid)
    return result


def rate_delta(full: float, hybrid: float) -> dict[str, float]:
    """A pair of rates and their signed difference (hybrid - full)."""
    return {"full": full, "hybrid": hybrid, "delta": hybrid - full}


def macro_timeline(
    outcomes: Sequence[Outcome],
    calibration: MacroCalibration,
    duration_s: float,
    bucket_s: float = MACRO_BUCKET_S,
    ema_alpha: float = 0.2,
) -> list[int]:
    """Per-bucket macro states from replaying an outcome stream.

    Feeds ``(time, latency, dropped)`` outcomes — in time order —
    through a fresh classifier and samples its state at every bucket
    close, producing one :class:`~repro.core.macro.MacroState` value
    per bucket of ``duration_s``.  Both sides of a differential pair
    replay through *identical* calibration, so timeline disagreement
    measures the hybrid's regime fidelity, not threshold skew.
    """
    if bucket_s <= 0:
        raise ValueError(f"bucket_s must be positive, got {bucket_s}")
    clf = AutoRegressiveMacroClassifier(
        calibration, bucket_s=bucket_s, ema_alpha=ema_alpha
    )
    buckets = max(int(round(duration_s / bucket_s)), 1)
    ordered = sorted(outcomes, key=lambda o: o[0])
    states: list[int] = []
    i = 0
    clf.advance(0.5 * bucket_s)  # pin the bucket clock to bucket 0
    for k in range(buckets):
        close = (k + 1) * bucket_s
        while i < len(ordered) and ordered[i][0] < close:
            t, latency, dropped = ordered[i]
            clf.observe(t, latency_s=latency, dropped=dropped)
            i += 1
        # Sample mid-bucket k+1: lands strictly inside the next bucket
        # regardless of float rounding at the close boundary, which is
        # exactly the advance that closes (reclassifies) bucket k.
        clf.advance((k + 1.5) * bucket_s)
        states.append(int(clf.state.value))
    return states


def macro_agreement(
    truth: Sequence[int], hybrid: Sequence[int]
) -> dict[str, Any]:
    """Confusion matrix and agreement rate between two state timelines.

    Rows are ground-truth states, columns hybrid states, both in
    :data:`MACRO_STATE_NAMES` order; ``agreement`` is the diagonal
    fraction.  Timelines are truncated to the shorter length (they
    only differ if the runs had different horizons).
    """
    n = min(len(truth), len(hybrid))
    confusion = [[0] * len(MacroState) for _ in MacroState]
    agree = 0
    for k in range(n):
        t, h = truth[k], hybrid[k]
        confusion[t - 1][h - 1] += 1
        if t == h:
            agree += 1
    return {
        "buckets": n,
        "agreement": agree / n if n else None,
        "states": list(MACRO_STATE_NAMES),
        "confusion": confusion,
    }


@dataclass
class FidelityReport:
    """All fidelity scores of one matched full/hybrid pair.

    Attributes
    ----------
    fct:
        :func:`compare_samples` over per-flow completion times.
    latency:
        :func:`compare_samples` over per-packet region latencies
        (measured vs model-predicted).
    drop_rate:
        :func:`rate_delta` over region drop fractions.
    throughput:
        :func:`rate_delta` over completed flows per simulated second.
    macro:
        :func:`macro_agreement` over the per-bucket state timelines.
    invariants:
        :meth:`~repro.validate.invariants.InvariantChecker.summary`
        of the hybrid run's checker.
    """

    fct: dict[str, Any]
    latency: dict[str, Any]
    drop_rate: dict[str, float]
    throughput: dict[str, float]
    macro: dict[str, Any]
    invariants: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (embedded in run manifests)."""
        return {
            "fct": dict(self.fct),
            "latency": dict(self.latency),
            "drop_rate": dict(self.drop_rate),
            "throughput": dict(self.throughput),
            "macro": dict(self.macro),
            "invariants": dict(self.invariants),
        }

    @property
    def invariant_violations(self) -> int:
        """Total structural violations observed on the hybrid side."""
        return int(self.invariants.get("total", 0))


def _fmt(value: Optional[float], spec: str = ".4g") -> str:
    return "-" if value is None else format(value, spec)


def render_report(report: FidelityReport) -> str:
    """Aligned plain-text rendering (the ``repro validate`` output)."""
    sections: list[str] = []
    rows = []
    for name, comparison in (("fct_s", report.fct), ("latency_s", report.latency)):
        rows.append([
            name,
            comparison["full_samples"],
            comparison["hybrid_samples"],
            _fmt(comparison["ks"], ".4f"),
            _fmt(comparison["wasserstein"], ".3e"),
        ])
    sections.append(format_table(
        ["distribution", "n_full", "n_hybrid", "ks", "wasserstein"], rows
    ))
    rows = [
        [name, _fmt(delta["full"]), _fmt(delta["hybrid"]), _fmt(delta["delta"])]
        for name, delta in (
            ("drop_rate", report.drop_rate),
            ("flows_per_s", report.throughput),
        )
    ]
    sections.append(format_table(["rate", "full", "hybrid", "delta"], rows))
    macro = report.macro
    agreement = _fmt(macro["agreement"], ".3f")
    sections.append(
        f"macro-state agreement: {agreement} over {macro['buckets']} bucket(s)"
    )
    rows = [
        [name] + list(macro["confusion"][i])
        for i, name in enumerate(macro["states"])
    ]
    sections.append(format_table(["truth \\ hybrid"] + list(macro["states"]), rows))
    total = report.invariant_violations
    sections.append(f"invariant violations: {total}")
    for violation in report.invariants.get("violations", []):
        sections.append(
            f"  [{violation['invariant']}] t={violation['time']:.6f}: "
            f"{violation['detail']}"
        )
    return "\n".join(sections)
