"""Empirical cumulative distribution functions."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class EmpiricalCdf:
    """The empirical CDF of a sample.

    Evaluation uses the right-continuous convention
    ``F(x) = #{samples <= x} / n``.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        values = np.sort(np.asarray(list(samples), dtype=np.float64))
        if values.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        self._values = values

    def __len__(self) -> int:
        return int(self._values.size)

    def evaluate(self, x: float | np.ndarray) -> np.ndarray | float:
        """F(x), vectorized."""
        result = np.searchsorted(self._values, np.asarray(x), side="right") / self._values.size
        if np.isscalar(x):
            return float(result)
        return result

    def quantile(self, q: float | np.ndarray) -> np.ndarray | float:
        """Inverse CDF (lower quantile)."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("quantiles must be in [0, 1]")
        idx = np.clip(np.ceil(q_arr * self._values.size).astype(int) - 1, 0, self._values.size - 1)
        result = self._values[idx]
        if np.isscalar(q):
            return float(result)
        return result

    def curve(self, points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) pairs suitable for plotting/printing.

        Uses log-spaced evaluation points when the data spans decades
        (latency data does), linear otherwise.
        """
        lo, hi = float(self._values[0]), float(self._values[-1])
        if lo > 0 and hi / lo > 100:
            xs = np.logspace(np.log10(lo), np.log10(hi), points)
            # Guard against roundoff: the endpoints must hit the sample
            # extremes exactly so the curve reaches F = 1.
            xs[0], xs[-1] = lo, hi
        else:
            xs = np.linspace(lo, hi, points)
        return xs, np.asarray(self.evaluate(xs))
