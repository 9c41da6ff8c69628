"""Cascade configuration: tiers, the fidelity budget, and the cadence.

A cascade run assigns every cluster of one fabric to a fidelity tier:

* :attr:`Tier.DES` — full packet simulation (the focal cluster; fixed
  for the whole run because the packet network binds its receivers at
  construction),
* :attr:`Tier.HYBRID` — the learned per-cluster black box
  (:class:`~repro.core.cluster_model.ApproximatedCluster`),
* :attr:`Tier.FLOWSIM` — max-min fluid flows, no packets at all.

:class:`CascadeConfig` carries the pinned regions, the fidelity
budget (:class:`TierBudget`), the
:class:`~repro.cascade.controller.FidelityController` cadence and
scoring window, and the :class:`~repro.core.hybrid.HybridConfig` of
the packet/model side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any, Mapping

from repro.core.hybrid import HybridConfig, matched_load, nest_hybrid_options


class Tier(IntEnum):
    """Fidelity tiers, ordered cheapest to most faithful."""

    FLOWSIM = 1
    HYBRID = 2
    DES = 3

    @classmethod
    def parse(cls, value: "Tier | int | str") -> "Tier":
        """Accept a Tier, its int value, or its (case-blind) name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[str(value).strip().upper()]
        except KeyError:
            names = "|".join(t.name.lower() for t in cls)
            raise ValueError(f"unknown tier {value!r} (expected {names})") from None

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class TierBudget:
    """Fidelity budget of one region — how wrong it is allowed to be.

    The controller reduces a region's windowed scores to one breach
    ratio: the maximum of each component's score divided by its budget.
    Ratio > 1 means the region is outside budget and is a promotion
    candidate.

    Attributes
    ----------
    ks:
        Max tolerated K-S distance between the region's windowed FCT
        (and per-packet latency) distribution and the focal (reference)
        region's.
    """

    ks: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 < self.ks <= 1.0:
            raise ValueError(f"ks budget must be in (0, 1], got {self.ks}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TierBudget":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown TierBudget fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class CascadeConfig:
    """Options of one cascade run.

    Every unpinned non-focal region starts at :attr:`Tier.FLOWSIM`; the
    controller's pacing and hysteresis are the constants of
    :mod:`repro.cascade.controller`.

    Attributes
    ----------
    epoch_s:
        Controller cadence in simulated seconds: windows are scored
        and tier transitions applied only at epoch boundaries.
    window_epochs:
        Sliding scoring horizon, in epochs.
    budget:
        Every region's :class:`TierBudget`.
    pin_tiers:
        region index -> tier for regions the controller must not move.
        Pinning a non-focal region to :attr:`Tier.DES` is rejected:
        packet receivers bind at network construction, so DES
        membership is structural (exactly the focal cluster).
    min_window_samples:
        Both FCT windows (reference and region) must hold at least
        this many samples before scores drive decisions.
    hybrid:
        The packet/model side.  Its ``full_cluster`` is the focal
        cluster: full packet fidelity for the whole run, and the
        controller's in-run reference (data center symmetry makes its
        windows the ground truth regions are scored against).
        Background flows are diverted, never elided, and models are
        per cluster: ``elide_remote_traffic`` and ``single_black_box``
        must be False.
    """

    epoch_s: float = 0.002
    window_epochs: int = 3
    budget: TierBudget = field(default_factory=TierBudget)
    pin_tiers: Mapping[int, Tier] = field(default_factory=dict)
    min_window_samples: int = 8
    hybrid: HybridConfig = field(default_factory=matched_load)

    def __post_init__(self) -> None:
        if self.hybrid.elide_remote_traffic:
            raise ValueError(
                "elide_remote_traffic must be False for the cascade: it diverts "
                "background flows to the fluid tier instead of eliding them"
            )
        if self.hybrid.single_black_box:
            raise ValueError(
                "single_black_box must be False for the cascade: it keys its "
                "models, windows and tiers by cluster"
            )
        # NaN and inf pass a plain ``<= 0`` test and would only fail
        # when the first epoch is scheduled, after the model has loaded.
        if not (math.isfinite(self.epoch_s) and self.epoch_s > 0):
            raise ValueError(f"epoch_s must be positive and finite, got {self.epoch_s}")
        if self.window_epochs < 1:
            raise ValueError(
                f"window_epochs must be >= 1, got {self.window_epochs}"
            )
        if self.min_window_samples < 1:
            raise ValueError(
                f"min_window_samples must be >= 1, got {self.min_window_samples}"
            )
        full = self.hybrid.full_cluster
        for region, tier in self.pin_tiers.items():
            if tier is Tier.DES and region != full:
                raise ValueError(
                    f"cannot pin region {region} to des: the packet network "
                    "binds receivers at construction, so only the focal "
                    f"cluster (full_cluster={full}) runs at full fidelity"
                )

    # ------------------------------------------------------------------
    @property
    def window_s(self) -> float:
        """The sliding scoring horizon in simulated seconds."""
        return self.epoch_s * self.window_epochs

    def tier_for(self, region: int) -> Tier:
        """The tier a non-focal region starts the run in: its pin, else
        :attr:`Tier.FLOWSIM`."""
        return self.pin_tiers.get(region, Tier.FLOWSIM)

    def is_pinned(self, region: int) -> bool:
        return region in self.pin_tiers

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CascadeConfig":
        """Build from a parsed spec/CLI dict (JSON-typed values).

        The :class:`~repro.core.hybrid.HybridConfig` keys are flat
        beside the controller's and build ``hybrid``.  Tier names
        arrive as strings, the budget as a nested dict, and mapping
        keys as strings (JSON objects) — all normalized here.
        """
        kwargs = nest_hybrid_options(cls, raw)
        if "budget" in kwargs and not isinstance(kwargs["budget"], TierBudget):
            kwargs["budget"] = TierBudget.from_dict(kwargs["budget"])
        if "pin_tiers" in kwargs:
            kwargs["pin_tiers"] = {
                int(region): Tier.parse(tier)
                for region, tier in kwargs["pin_tiers"].items()
            }
        return cls(**kwargs)
