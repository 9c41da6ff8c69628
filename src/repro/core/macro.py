"""The macro model: a four-state auto-regressive congestion classifier.

Section 4.1 of the paper identifies four macro states in cluster
latency/drop data and classifies them with "a simple and fast
auto-regressive model": based on previously observed latency and drop
rates, low latency means state (1) minimal congestion; high drops mean
the high-congestion regime; otherwise states (2) increasing and (4)
decreasing congestion are distinguished by whether latency and drops
are rising or falling relative to the recent past.

(The paper's text assigns the "drops are relatively high" rule to
state (4); given the state definitions — (3) is "high congestion,
where a significant number of packets are being dropped due to full
queues" — that is a typo, and we map high drops to state (3).  The
discrepancy only relabels one state; the classifier structure is
unchanged.)

The classifier is *auto-regressive* in the simple sense the paper
means: its inputs are exponential moving averages of its own past
observations, and the rising/falling decision compares the current
EMA against its previous value (a first-order AR comparison).  The
same object serves training (fed ground-truth observations) and hybrid
simulation (fed the micro model's own predictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Optional

import numpy as np


class MacroState(IntEnum):
    """The four congestion regimes of Section 4.1."""

    MINIMAL = 1
    INCREASING = 2
    HIGH = 3
    DECREASING = 4

    def one_hot(self) -> np.ndarray:
        """4-vector encoding used as a micro-model feature."""
        vec = np.zeros(4)
        vec[self.value - 1] = 1.0
        return vec


@dataclass(frozen=True)
class MacroCalibration:
    """Thresholds learned from a training trace.

    Attributes
    ----------
    latency_low_s:
        Below this EMA latency the cluster is in MINIMAL congestion.
    drop_rate_high:
        Above this EMA drop fraction the cluster is in HIGH congestion.
    """

    latency_low_s: float
    drop_rate_high: float

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Serialization helper."""
        return {
            "latency_low_s": np.asarray(self.latency_low_s),
            "drop_rate_high": np.asarray(self.drop_rate_high),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "MacroCalibration":
        """Inverse of :meth:`as_arrays`."""
        return cls(
            latency_low_s=float(arrays["latency_low_s"]),
            drop_rate_high=float(arrays["drop_rate_high"]),
        )


def calibrate_macro(
    latencies_s: Iterable[float],
    drop_flags: Iterable[int],
    latency_quantile: float = 0.25,
    drop_scale: float = 2.0,
) -> MacroCalibration:
    """Derive thresholds from a ground-truth region trace.

    ``latency_low_s`` is the given quantile of observed latencies
    (periods calmer than the lower quartile count as minimal
    congestion); ``drop_rate_high`` is ``drop_scale`` times the mean
    drop rate, floored at 0.5% so noise-free traces don't make every
    stray drop scream HIGH.
    """
    latencies = np.asarray(list(latencies_s), dtype=np.float64)
    drops = np.asarray(list(drop_flags), dtype=np.float64)
    if latencies.size == 0:
        raise ValueError("cannot calibrate on an empty latency trace")
    latency_low = float(np.quantile(latencies, latency_quantile))
    drop_high = max(float(drops.mean()) * drop_scale, 0.005) if drops.size else 0.005
    return MacroCalibration(latency_low_s=latency_low, drop_rate_high=drop_high)


#: The macro classifier's bucket of simulated time.  Training, the
#: hybrid's runtime classifiers, evaluation and the fidelity replay all
#: bucket by it, so a trained model sees the regimes it learned.
MACRO_BUCKET_S = 0.001


class AutoRegressiveMacroClassifier:
    """Streaming four-state classifier over per-packet observations.

    Parameters
    ----------
    calibration:
        Thresholds (see :func:`calibrate_macro`).
    bucket_s:
        State is re-evaluated once per bucket of simulated time —
        the "seconds scale" of the paper's two-timescale analysis,
        scaled down with our shorter simulations.  Every stage uses
        :data:`MACRO_BUCKET_S`; tests drive other buckets.
    ema_alpha:
        Smoothing factor for the latency/drop EMAs.

    Attributes
    ----------
    on_transition:
        Optional hook ``(previous, new) -> None`` fired whenever a
        bucket re-classification lands on a *different* state.  The
        observability layer counts regime transitions through it;
        ``None`` (default) costs one comparison per bucket, nothing
        per packet.
    """

    def __init__(
        self,
        calibration: MacroCalibration,
        bucket_s: float = MACRO_BUCKET_S,
        ema_alpha: float = 0.2,
    ) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if not 0 < ema_alpha <= 1:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.calibration = calibration
        self.bucket_s = bucket_s
        self.ema_alpha = ema_alpha
        self.state = MacroState.MINIMAL
        #: ``state.value - 1`` maintained alongside ``state``: the
        #: micro-model head index for the current regime.  The hybrid
        #: hot path reads it per packet (and the batcher per batch
        #: row), so it is stored rather than recomputed from the enum.
        self.index = self.state.value - 1
        self.on_transition: Optional[
            "Callable[[MacroState, MacroState], None]"
        ] = None
        self._latency_ema: Optional[float] = None
        self._prev_latency_ema: Optional[float] = None
        self._drop_ema = 0.0
        self._bucket_index: Optional[int] = None
        self._bucket_has_obs = False

    #: Idle buckets are stepped one by one (decay + reclassify) up to
    #: this many; a longer gap zeroes the EMAs directly, so arbitrarily
    #: long idle periods cost O(_MAX_IDLE_STEPS), not O(gap).
    _MAX_IDLE_STEPS = 64

    def observe(self, now: float, latency_s: Optional[float] = None, dropped: bool = False) -> None:
        """Feed one packet outcome (a latency, a drop, or both).

        In training this receives ground truth; during hybrid
        simulation it receives the micro model's own predictions, so
        the macro state reflects what the approximation is doing.
        """
        if int(now / self.bucket_s) != self._bucket_index:
            self.advance(now)  # else: same bucket, nothing to step
        a = self.ema_alpha
        if latency_s is not None:
            if self._latency_ema is None:
                self._latency_ema = latency_s
            else:
                self._latency_ema += a * (latency_s - self._latency_ema)
        self._drop_ema += a * ((1.0 if dropped else 0.0) - self._drop_ema)
        self._bucket_has_obs = True

    def advance(self, now: float) -> None:
        """Step the bucket clock to ``now`` without an observation.

        Every elapsed bucket gets its own reclassification, and every
        *idle* bucket (one that closed with no packets) decays both
        EMAs by ``(1 - ema_alpha)`` — the drop burst a cluster saw
        before going quiet must not keep it pinned in HIGH forever.
        The loop is bounded by :attr:`_MAX_IDLE_STEPS`; gaps beyond it
        zero the EMAs directly (the decayed value would underflow any
        calibrated threshold anyway), so a long idle period is O(1).

        ``observe`` calls this on every packet; the fidelity harness
        calls it directly to sample per-bucket state timelines.
        """
        bucket = int(now / self.bucket_s)
        if self._bucket_index is None:
            self._bucket_index = bucket
            return
        elapsed = bucket - self._bucket_index
        if elapsed <= 0:
            return
        decay = 1.0 - self.ema_alpha
        # Close the current bucket: if it saw no packets it is itself an
        # idle bucket and must decay — stepping one bucket at a time has
        # to match one big jump over the same span.
        if not self._bucket_has_obs:
            self._drop_ema *= decay
            if self._latency_ema is not None:
                self._latency_ema *= decay
        self._reclassify()
        self._bucket_has_obs = False
        idle = elapsed - 1
        if idle > self._MAX_IDLE_STEPS:
            self._drop_ema = 0.0
            if self._latency_ema is not None:
                self._latency_ema = 0.0
            idle = 1  # one more reclassification lands the final state
        for _ in range(idle):
            self._drop_ema *= decay
            if self._latency_ema is not None:
                self._latency_ema *= decay
            self._reclassify()
        self._bucket_index = bucket

    def _reclassify(self) -> None:
        latency = self._latency_ema
        before = self.state
        if latency is None:
            self.state = MacroState.MINIMAL
        else:
            previous = (
                self._prev_latency_ema if self._prev_latency_ema is not None else latency
            )
            self._prev_latency_ema = latency
            if self._drop_ema >= self.calibration.drop_rate_high:
                self.state = MacroState.HIGH
            elif latency <= self.calibration.latency_low_s:
                self.state = MacroState.MINIMAL
            elif latency >= previous:
                self.state = MacroState.INCREASING
            else:
                self.state = MacroState.DECREASING
        self.index = self.state.value - 1
        if self.state is not before and self.on_transition is not None:
            self.on_transition(before, self.state)

    @property
    def latency_ema(self) -> Optional[float]:
        """Current latency EMA (None before any latency observation)."""
        return self._latency_ema

    @property
    def drop_ema(self) -> float:
        """Current drop-rate EMA."""
        return self._drop_ema
