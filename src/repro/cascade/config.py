"""Cascade configuration: tiers, budgets, and controller knobs.

A cascade run assigns every cluster of one fabric to a fidelity tier:

* :attr:`Tier.DES` — full packet simulation (the focal cluster; fixed
  for the whole run because the packet network binds its receivers at
  construction),
* :attr:`Tier.HYBRID` — the learned per-cluster black box
  (:class:`~repro.core.cluster_model.ApproximatedCluster`),
* :attr:`Tier.FLOWSIM` — max-min fluid flows, no packets at all.

:class:`CascadeConfig` carries the initial assignment, per-region
fidelity budgets (:class:`TierBudget`), the
:class:`~repro.cascade.controller.FidelityController` cadence knobs,
and the :class:`~repro.core.hybrid.HybridConfig` of the packet/model
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any, Mapping, Optional

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
    ratio: the maximum of each component's score divided by its budget
    (components with a ``None`` budget are ignored).  Ratio > 1 means
    the region is outside budget and is a promotion candidate.

    Attributes
    ----------
    ks:
        Max tolerated K-S distance between the region's windowed FCT
        distribution and the focal (reference) region's.
    latency_ks:
        Same bound for per-packet region latency windows; ``None``
        (default) reuses ``ks``.
    wasserstein_s:
        Optional absolute Wasserstein-1 bound on FCT windows, seconds.
    drop_delta:
        Max tolerated absolute drop-rate difference vs the reference.
    """

    ks: float = 0.35
    latency_ks: Optional[float] = None
    wasserstein_s: Optional[float] = None
    drop_delta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.ks <= 1.0:
            raise ValueError(f"ks budget must be in (0, 1], got {self.ks}")
        if self.latency_ks is not None and not 0.0 < self.latency_ks <= 1.0:
            raise ValueError(
                f"latency_ks budget must be in (0, 1], got {self.latency_ks}"
            )
        if self.wasserstein_s is not None and self.wasserstein_s <= 0:
            raise ValueError(
                f"wasserstein_s budget must be positive, got {self.wasserstein_s}"
            )
        if self.drop_delta <= 0:
            raise ValueError(
                f"drop_delta budget must be positive, got {self.drop_delta}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TierBudget":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown TierBudget fields: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ks": self.ks,
            "latency_ks": self.latency_ks,
            "wasserstein_s": self.wasserstein_s,
            "drop_delta": self.drop_delta,
        }


@dataclass(frozen=True)
class CascadeConfig:
    """Options of one cascade run.

    Attributes
    ----------
    epoch_s:
        Controller cadence in simulated seconds: windows are scored
        and tier transitions applied only at epoch boundaries.
    window_epochs:
        Sliding scoring horizon, in epochs.
    initial_tier:
        Starting tier of every non-focal region not pinned otherwise.
    budget:
        Default per-region :class:`TierBudget`.
    region_budgets:
        Per-region budget overrides (region index -> budget).
    pin_tiers:
        region index -> tier for regions the controller must not move.
        Pinning a non-focal region to :attr:`Tier.DES` is rejected:
        packet receivers bind at network construction, so DES
        membership is structural (exactly the focal cluster).
    min_window_samples:
        Both FCT windows (reference and region) must hold at least
        this many samples before scores drive decisions.
    demote_fraction:
        A region is "calm" in an epoch when its breach ratio stays
        below this fraction of 1.0.
    demote_patience:
        Consecutive calm epochs required before a demotion.
    cooldown_epochs:
        Epochs a region sits out after any transition (hysteresis —
        prevents promote/demote flapping on window noise).
    max_promotions_per_epoch:
        Promotion pacing; the worst-breaching regions go first.
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
    initial_tier: Tier = Tier.FLOWSIM
    budget: TierBudget = field(default_factory=TierBudget)
    region_budgets: Mapping[int, TierBudget] = field(default_factory=dict)
    pin_tiers: Mapping[int, Tier] = field(default_factory=dict)
    min_window_samples: int = 8
    demote_fraction: float = 0.5
    demote_patience: int = 2
    cooldown_epochs: int = 1
    max_promotions_per_epoch: int = 1
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
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.window_epochs < 1:
            raise ValueError(
                f"window_epochs must be >= 1, got {self.window_epochs}"
            )
        if self.min_window_samples < 1:
            raise ValueError(
                f"min_window_samples must be >= 1, got {self.min_window_samples}"
            )
        if not 0.0 < self.demote_fraction < 1.0:
            raise ValueError(
                f"demote_fraction must be in (0, 1), got {self.demote_fraction}"
            )
        if self.demote_patience < 1:
            raise ValueError(
                f"demote_patience must be >= 1, got {self.demote_patience}"
            )
        if self.cooldown_epochs < 0:
            raise ValueError(
                f"cooldown_epochs must be >= 0, got {self.cooldown_epochs}"
            )
        if self.max_promotions_per_epoch < 1:
            raise ValueError(
                "max_promotions_per_epoch must be >= 1, "
                f"got {self.max_promotions_per_epoch}"
            )
        if self.initial_tier is Tier.DES:
            raise ValueError(
                "initial_tier cannot be des: packet-tier membership is "
                "structural (the focal cluster); start regions at "
                "flowsim or hybrid"
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

    def budget_for(self, region: int) -> TierBudget:
        return self.region_budgets.get(region, self.budget)

    def tier_for(self, region: int) -> Tier:
        """The tier a non-focal region starts the run in."""
        pinned = self.pin_tiers.get(region)
        if pinned is not None:
            return pinned
        return self.initial_tier

    def is_pinned(self, region: int) -> bool:
        return region in self.pin_tiers

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CascadeConfig":
        """Build from a parsed spec/CLI dict (JSON-typed values).

        The :class:`~repro.core.hybrid.HybridConfig` keys are flat
        beside the controller's and build ``hybrid``.  Tier names
        arrive as strings, budgets as nested dicts, and mapping keys as
        strings (JSON objects) — all normalized here.
        """
        kwargs = nest_hybrid_options(cls, raw)
        if "initial_tier" in kwargs:
            kwargs["initial_tier"] = Tier.parse(kwargs["initial_tier"])
        if "budget" in kwargs and not isinstance(kwargs["budget"], TierBudget):
            kwargs["budget"] = TierBudget.from_dict(kwargs["budget"])
        if "region_budgets" in kwargs:
            kwargs["region_budgets"] = {
                int(region): (
                    budget
                    if isinstance(budget, TierBudget)
                    else TierBudget.from_dict(budget)
                )
                for region, budget in kwargs["region_budgets"].items()
            }
        if "pin_tiers" in kwargs:
            kwargs["pin_tiers"] = {
                int(region): Tier.parse(tier)
                for region, tier in kwargs["pin_tiers"].items()
            }
        return cls(**kwargs)
