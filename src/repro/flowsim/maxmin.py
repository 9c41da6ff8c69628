"""Max-min fair rate allocation by progressive filling.

Given flows with fixed paths over capacitated links, progressive
filling raises every unfrozen flow's rate uniformly until some link
saturates, freezes the flows crossing it at their fair share, removes
the link, and repeats.  The result is the unique max-min fair
allocation (Bertsekas & Gallager).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Mapping, Sequence

LinkId = Hashable


def max_min_fair_rates(
    flow_links: Sequence[Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> list[float]:
    """Compute max-min fair rates.

    Parameters
    ----------
    flow_links:
        For each flow, the links it crosses (directed link ids).
    capacities:
        Capacity per link id (bits/s).

    Returns
    -------
    Per-flow rates in the same order as ``flow_links``.  Flows with an
    empty link list (e.g. same-host transfers) get ``inf``.
    """
    n = len(flow_links)
    rates = [0.0] * n
    unfrozen: set[int] = set()
    for i, links in enumerate(flow_links):
        if links:
            unfrozen.add(i)
        else:
            rates[i] = float("inf")
    remaining = {link: float(cap) for link, cap in capacities.items()}
    link_flows: dict[LinkId, set[int]] = {}
    for i in unfrozen:
        for link in flow_links[i]:
            if link not in remaining:
                raise KeyError(f"flow {i} crosses unknown link {link!r}")
            link_flows.setdefault(link, set()).add(i)

    # Lazy min-heap over link fair shares: scanning every link per
    # freeze round is O(links^2) and dominates the fluid engine on
    # large fabrics.  Heap entries carry the share they were computed
    # at; a popped entry whose share no longer matches the link's
    # current value is stale (a fresh entry was pushed when the link
    # last changed) and is simply discarded.  The entry counter breaks
    # share ties by push order, keeping the bottleneck choice
    # deterministic without comparing link ids.
    counter = 0
    heap: list[tuple[float, int, LinkId]] = []
    for link, flows in link_flows.items():
        heap.append((remaining[link] / len(flows), counter, link))
        counter += 1
    heapq.heapify(heap)

    while unfrozen and heap:
        bottleneck_share, _, bottleneck = heapq.heappop(heap)
        flows = link_flows.get(bottleneck)
        if not flows or remaining[bottleneck] / len(flows) != bottleneck_share:
            continue  # stale entry
        # Flows in index order and links in first-touch order: a set of
        # link ids iterates in per-process string-hash order, which would
        # make the push order (the tie-break) and a rate's last bit
        # depend on PYTHONHASHSEED.
        touched: dict[LinkId, None] = {}
        for i in sorted(flows):
            rates[i] = bottleneck_share
            unfrozen.discard(i)
            for link in flow_links[i]:
                remaining[link] -= bottleneck_share
                link_flows[link].discard(i)
                touched[link] = None
        # Guard against tiny negative residue from float subtraction.
        remaining[bottleneck] = max(remaining[bottleneck], 0.0)
        for link in touched:
            flows = link_flows[link]
            if flows:
                heapq.heappush(
                    heap, (remaining[link] / len(flows), counter, link)
                )
                counter += 1
            else:
                del link_flows[link]
    # Any flows left unfrozen cross only links that never bind.
    for i in unfrozen:
        rates[i] = float("inf")
    return rates
