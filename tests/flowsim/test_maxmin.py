"""Tests for max-min fair allocation, including fairness properties."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.flowsim.maxmin import max_min_fair_rates


class TestMaxMinBasics:
    def test_single_flow_gets_capacity(self):
        rates = max_min_fair_rates([["l1"]], {"l1": 10.0})
        assert rates == [10.0]

    def test_equal_split_on_shared_link(self):
        rates = max_min_fair_rates([["l1"], ["l1"], ["l1"]], {"l1": 9.0})
        assert rates == [3.0, 3.0, 3.0]

    def test_classic_three_flow_example(self):
        """Two links: A crosses both, B on link1, C on link2, caps 1.
        Max-min: A=B=C=0.5 only if both links bind equally; with caps
        (1, 2): link1 fair share 0.5 freezes A and B; C then gets 1.5."""
        flows = [["l1", "l2"], ["l1"], ["l2"]]
        rates = max_min_fair_rates(flows, {"l1": 1.0, "l2": 2.0})
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)
        assert rates[2] == pytest.approx(1.5)

    def test_empty_path_unconstrained(self):
        rates = max_min_fair_rates([[], ["l1"]], {"l1": 5.0})
        assert rates[0] == float("inf")
        assert rates[1] == 5.0

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            max_min_fair_rates([["ghost"]], {"l1": 1.0})

    def test_no_flows(self):
        assert max_min_fair_rates([], {"l1": 1.0}) == []


#: Four links over string node names, two of whose fair shares tie
#: while flows freeze: the order a set of such links iterates in is the
#: per-process string hash, so a rate's last bit used to follow it.
_HASH_ORDER_INSTANCE = textwrap.dedent(
    """
    from repro.flowsim.maxmin import max_min_fair_rates

    A, B, C, D = ("n0", "n1"), ("n2", "n0"), ("n2", "n3"), ("n3", "n2")
    capacities = {A: 1e9, B: 3e9, C: 3e9, D: 3e9}
    flows = [
        [C, A, B, D], [A], [D, B, C], [A, D, B, C], [C, D, B], [C, B, A, D],
        [B], [B, C, A, D], [B, D], [A, B, D], [D, C],
    ]
    print(repr(max_min_fair_rates(flows, capacities)))
    """
)


def test_rates_do_not_depend_on_string_hash_seed():
    """Same instance, two processes with different ``PYTHONHASHSEED``:
    the rates must agree bit for bit (seeds 0 and 2 put flows 6 and 10
    on opposite sides of a one-ulp split when links froze in set order)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_ORDER_INSTANCE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@st.composite
def _random_instance(draw):
    num_links = draw(st.integers(1, 6))
    capacities = {
        f"l{i}": draw(st.floats(min_value=0.5, max_value=100.0)) for i in range(num_links)
    }
    num_flows = draw(st.integers(1, 10))
    flows = []
    for _ in range(num_flows):
        k = draw(st.integers(1, num_links))
        flows.append([f"l{i}" for i in draw(
            st.lists(st.integers(0, num_links - 1), min_size=1, max_size=k, unique=True)
        )])
    return flows, capacities


class TestMaxMinProperties:
    @given(_random_instance())
    @settings(max_examples=100)
    def test_feasibility(self, instance):
        """No link is oversubscribed."""
        flows, capacities = instance
        rates = max_min_fair_rates(flows, capacities)
        usage = {link: 0.0 for link in capacities}
        for links, rate in zip(flows, rates):
            for link in links:
                usage[link] += rate
        for link, used in usage.items():
            assert used <= capacities[link] * (1 + 1e-9)

    @given(_random_instance())
    @settings(max_examples=100)
    def test_bottleneck_saturation(self, instance):
        """Every flow has at least one saturated link (Pareto
        efficiency of max-min allocations)."""
        flows, capacities = instance
        rates = max_min_fair_rates(flows, capacities)
        usage = {link: 0.0 for link in capacities}
        for links, rate in zip(flows, rates):
            for link in links:
                usage[link] += rate
        for links, rate in zip(flows, rates):
            saturated = any(
                usage[link] >= capacities[link] * (1 - 1e-9) for link in links
            )
            assert saturated, "a flow could be sped up without hurting anyone"

    @given(_random_instance())
    @settings(max_examples=100)
    def test_rates_positive(self, instance):
        flows, capacities = instance
        rates = max_min_fair_rates(flows, capacities)
        assert all(rate > 0 for rate in rates)

    @given(_random_instance())
    @settings(max_examples=50)
    def test_symmetry(self, instance):
        """Flows with identical paths get identical rates."""
        flows, capacities = instance
        flows = flows + [flows[0]]  # duplicate the first flow's path
        rates = max_min_fair_rates(flows, capacities)
        assert rates[0] == pytest.approx(rates[-1])

    @given(_random_instance())
    @settings(max_examples=100)
    def test_max_min_characterization(self, instance):
        """The classic max-min condition: every flow has a saturated
        link on its path where it is among the largest flows — so its
        rate can only rise by lowering a flow no bigger than itself."""
        flows, capacities = instance
        rates = max_min_fair_rates(flows, capacities)
        usage = {link: 0.0 for link in capacities}
        for links, rate in zip(flows, rates):
            for link in links:
                usage[link] += rate
        for links, rate in zip(flows, rates):
            owns_bottleneck = False
            for link in links:
                if usage[link] < capacities[link] * (1 - 1e-9):
                    continue  # not saturated
                peers = [
                    other_rate
                    for other_links, other_rate in zip(flows, rates)
                    if link in other_links
                ]
                if rate >= max(peers) * (1 - 1e-9):
                    owns_bottleneck = True
                    break
            assert owns_bottleneck, (
                "flow lacks a saturated link where it is maximal — "
                "allocation is not max-min fair"
            )

    @given(_random_instance())
    @settings(max_examples=100)
    def test_pareto_efficiency_no_slack_for_any_flow(self, instance):
        """Total allocation is Pareto-efficient: increasing any single
        flow's rate by any epsilon violates some link capacity."""
        flows, capacities = instance
        rates = max_min_fair_rates(flows, capacities)
        usage = {link: 0.0 for link in capacities}
        for links, rate in zip(flows, rates):
            for link in links:
                usage[link] += rate
        epsilon = 1e-6
        for links in flows:
            slack = min(capacities[link] - usage[link] for link in links)
            assert slack <= epsilon, (
                f"flow has {slack} spare capacity on every link of its "
                "path; the allocation wastes bandwidth"
            )
