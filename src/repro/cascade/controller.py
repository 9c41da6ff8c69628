"""The fidelity controller: windowed scores in, tier decisions out.

At every epoch boundary the :class:`FidelityController` scores each
non-focal region's sliding windows against the focal region's (the
in-run reference — data center symmetry is the paper's own argument
that one cluster's distributions stand in for another's) and reduces
the scores to a single *breach ratio*: the worst component relative to
the region's :class:`~repro.cascade.config.TierBudget`.

Decision rules, in order:

* **promote** — ratio > 1 and the region is below :attr:`Tier.HYBRID`:
  the fluid approximation is visibly outside budget, move the region
  up one tier.  At most :data:`MAX_PROMOTIONS_PER_EPOCH` promotions
  per epoch, worst ratio first.
* **breach at ceiling** — ratio > 1 at :attr:`Tier.HYBRID`: full DES
  membership is structural (receivers bind at network construction),
  so the breach is logged as an audit record instead of acted on.
* **demote** — ratio stayed at or below :data:`DEMOTE_FRACTION` for
  :data:`DEMOTE_PATIENCE` consecutive scoreable epochs at
  :attr:`Tier.HYBRID`: the cheap tier would have been good enough,
  move the region down.

Every transition starts a :data:`COOLDOWN_EPOCHS` refractory period.
All inputs are simulated-time quantities from seeded streams and
regions are visited in sorted order, so the full decision sequence —
and the JSON decision log — is byte-identical across re-runs with the
same master seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.cascade.config import CascadeConfig, Tier, TierBudget
from repro.validate.windows import RegionWindows, score_region

#: A scored epoch is "calm" when the breach ratio is at or below this.
DEMOTE_FRACTION = 0.5
#: Consecutive calm epochs at hybrid before a demotion.
DEMOTE_PATIENCE = 2
#: Epochs a region sits out after any transition (hysteresis against
#: promote/demote flapping on window noise).
COOLDOWN_EPOCHS = 1
#: Promotion pacing; the worst-breaching regions go first.
MAX_PROMOTIONS_PER_EPOCH = 1
#: Max tolerated absolute drop-rate difference from the reference.
DROP_DELTA_BUDGET = 0.05


@dataclass
class Decision:
    """One applied tier transition (or audit record).

    ``entry`` is the *same dict object* stored in the
    :class:`DecisionLog`, so the caller can attach the tier-handoff
    summary after applying the adapter and it lands in the log.
    """

    epoch: int
    time: float
    region: int
    from_tier: Tier
    to_tier: Tier
    kind: str  # "promote" | "demote" | "breach_at_ceiling"
    ratio: float
    entry: dict[str, Any]

    @property
    def is_transition(self) -> bool:
        return self.from_tier is not self.to_tier


class DecisionLog:
    """Append-only, JSON-serializable audit trail of tier decisions."""

    def __init__(self) -> None:
        self.entries: list[dict[str, Any]] = []

    def append(self, entry: dict[str, Any]) -> dict[str, Any]:
        self.entries.append(entry)
        return entry

    @property
    def promotions(self) -> int:
        return sum(1 for e in self.entries if e["kind"] == "promote")

    @property
    def demotions(self) -> int:
        return sum(1 for e in self.entries if e["kind"] == "demote")

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, fixed separators —
        the byte-identical artifact the determinism guarantee is
        stated over."""
        return json.dumps(
            self.entries, sort_keys=True, indent=2, separators=(",", ": ")
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


class FidelityController:
    """Promotes/demotes regions between tiers at epoch boundaries.

    Parameters
    ----------
    config:
        Budget, cadence and pins.
    regions:
        The non-focal cluster indices under control.
    reference:
        The focal region's windows (ground-truth side of every score).
    windows:
        region index -> that region's :class:`RegionWindows`.
    metrics:
        Optional registry; publishes ``cascade.epochs``,
        ``cascade.promotions``, ``cascade.demotions``.
    """

    def __init__(
        self,
        config: CascadeConfig,
        regions: list[int],
        reference: RegionWindows,
        windows: dict[int, RegionWindows],
        metrics=None,
    ) -> None:
        self.config = config
        self.regions = sorted(regions)
        self.reference = reference
        self.windows = windows
        self.log = DecisionLog()
        self.tiers: dict[int, Tier] = {
            region: config.tier_for(region) for region in self.regions
        }
        self.epochs_evaluated = 0
        self._calm: dict[int, int] = {region: 0 for region in self.regions}
        self._cooldown: dict[int, int] = {region: 0 for region in self.regions}
        self._breached: set[int] = set()
        if metrics:
            metrics.bind_counter("cascade.epochs", lambda: self.epochs_evaluated)
            metrics.bind_counter("cascade.promotions", lambda: self.log.promotions)
            metrics.bind_counter("cascade.demotions", lambda: self.log.demotions)

    # ------------------------------------------------------------------
    @staticmethod
    def breach_ratio(
        scores: dict[str, Any], budget: TierBudget
    ) -> tuple[float, dict[str, float]]:
        """Reduce one region's windowed scores to (ratio, components).

        Each component is ``score / budget``: both K-S scores against
        ``budget.ks``, the drop-rate delta against
        :data:`DROP_DELTA_BUDGET`.  The ratio is their max; components
        whose score is unavailable (starved window) are omitted.
        """
        components: dict[str, float] = {}
        fct_ks = scores["fct"].get("ks")
        if fct_ks is not None:
            components["fct_ks"] = fct_ks / budget.ks
        latency_ks = scores["latency"].get("ks")
        if latency_ks is not None:
            components["latency_ks"] = latency_ks / budget.ks
        components["drop_delta"] = (
            abs(scores["drop_rate"]["delta"]) / DROP_DELTA_BUDGET
        )
        ratio = max(components.values()) if components else 0.0
        return ratio, components

    # ------------------------------------------------------------------
    def evaluate(self, epoch: int, now: float) -> list[Decision]:
        """Score every region and apply this epoch's decisions.

        Updates :attr:`tiers` and the log; returns the applied
        transitions (plus ceiling-breach audit records) so the caller
        can run the tier adapters and attach handoff summaries.
        """
        config = self.config
        self.epochs_evaluated += 1
        cutoff = now - config.window_s
        self.reference.evict_before(cutoff)
        for region in self.regions:
            self.windows[region].evict_before(cutoff)

        promotion_candidates: list[tuple[float, int, dict[str, float]]] = []
        decisions: list[Decision] = []
        for region in self.regions:
            if self._cooldown[region] > 0:
                self._cooldown[region] -= 1
                continue
            if config.is_pinned(region):
                continue
            scores = score_region(
                self.reference,
                self.windows[region],
                horizon_s=config.window_s,
                min_samples=config.min_window_samples,
            )
            if not scores["scoreable"]:
                # A starved window is idleness, not fidelity evidence:
                # it neither accuses nor acquits.
                continue
            ratio, components = self.breach_ratio(scores, config.budget)
            tier = self.tiers[region]
            if ratio > 1.0:
                self._calm[region] = 0
                if tier < Tier.HYBRID:
                    promotion_candidates.append((ratio, region, components))
                elif region not in self._breached:
                    # Already at the runtime ceiling: audit, don't act
                    # (and don't repeat the record every epoch while
                    # the breach persists).
                    self._breached.add(region)
                    decisions.append(
                        self._record(
                            epoch, now, region, tier, tier,
                            kind="breach_at_ceiling",
                            ratio=ratio,
                            components=components,
                            reason=(
                                "budget exceeded at hybrid; full DES membership "
                                "is structural (focal cluster only)"
                            ),
                        )
                    )
                continue
            self._breached.discard(region)
            if ratio <= DEMOTE_FRACTION:
                self._calm[region] += 1
                if self._calm[region] >= DEMOTE_PATIENCE and tier is Tier.HYBRID:
                    decisions.append(
                        self._apply(
                            epoch, now, region, tier, Tier.FLOWSIM,
                            kind="demote",
                            ratio=ratio,
                            components=components,
                            reason=(
                                f"ratio <= {DEMOTE_FRACTION} for "
                                f"{self._calm[region]} consecutive epochs"
                            ),
                        )
                    )
            else:
                self._calm[region] = 0

        # Worst breach first; ties broken by region index — total order,
        # so pacing never depends on dict iteration.
        promotion_candidates.sort(key=lambda item: (-item[0], item[1]))
        for ratio, region, components in promotion_candidates[
            :MAX_PROMOTIONS_PER_EPOCH
        ]:
            decisions.append(
                self._apply(
                    epoch, now, region, self.tiers[region], Tier.HYBRID,
                    kind="promote",
                    ratio=ratio,
                    components=components,
                    reason="budget exceeded at flowsim",
                )
            )
        return decisions

    # ------------------------------------------------------------------
    def _apply(
        self,
        epoch: int,
        now: float,
        region: int,
        from_tier: Tier,
        to_tier: Tier,
        kind: str,
        ratio: float,
        components: dict[str, float],
        reason: str,
    ) -> Decision:
        self.tiers[region] = to_tier
        self._cooldown[region] = COOLDOWN_EPOCHS
        self._calm[region] = 0
        return self._record(
            epoch, now, region, from_tier, to_tier,
            kind=kind, ratio=ratio, components=components, reason=reason,
        )

    def _record(
        self,
        epoch: int,
        now: float,
        region: int,
        from_tier: Tier,
        to_tier: Tier,
        kind: str,
        ratio: float,
        components: dict[str, float],
        reason: str,
    ) -> Decision:
        # Name the flows whose FCT samples were in the region's scoring
        # window when this decision fired — sorted and seeded-stream
        # derived, so the log stays byte-identical across re-runs.
        window = self.windows.get(region)
        entry = self.log.append(
            {
                "epoch": epoch,
                "time": now,
                "region": region,
                "kind": kind,
                "from": from_tier.label,
                "to": to_tier.label,
                "ratio": ratio,
                "components": components,
                "reason": reason,
                "handoff": None,
                "window_flows": window.window_flows() if window is not None else [],
            }
        )
        return Decision(
            epoch=epoch,
            time=now,
            region=region,
            from_tier=from_tier,
            to_tier=to_tier,
            kind=kind,
            ratio=ratio,
            entry=entry,
        )
