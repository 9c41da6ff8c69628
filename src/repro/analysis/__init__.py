"""Measurement analysis: CDFs, distribution distances, reporting.

Figure 4 of the paper compares full and approximate simulations by the
*distribution* of observed RTTs rather than per-packet error, "because
TCP interaction with the model makes these measurements unreliable"
(Section 6.1).  This package provides the empirical CDF machinery and
the distribution distances (Kolmogorov-Smirnov, Wasserstein) used to
quantify that comparison, plus plain-text table/series rendering for
the benchmark harness.
"""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.stats import (
    ks_distance,
    percentile_summary,
    roc_auc,
    wasserstein_distance,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.streaming import StreamingStats
from repro.analysis.slowdown import (
    SlowdownSummary,
    flow_slowdowns,
    format_slowdown_table,
    ideal_fct_s,
    slowdown_by_bucket,
)

__all__ = [
    "EmpiricalCdf",
    "format_series",
    "format_table",
    "ks_distance",
    "percentile_summary",
    "SlowdownSummary",
    "flow_slowdowns",
    "format_slowdown_table",
    "ideal_fct_s",
    "roc_auc",
    "slowdown_by_bucket",
    "StreamingStats",
    "wasserstein_distance",
]
