"""The routing tables answer exactly as one BFS per node over the whole graph.

:class:`EcmpRouting` fills a (node, destination) pair on its first
lookup, from a distance-only BFS over the switch graph; a single-link
host reuses its switch's distances, and a host source is resolved on
the lookup's slow path.  The reference here is the all-pairs BFS that
design replaced: every query under every policy must return its value
or raise its exception type — on random Clos and leaf-spine shapes and
fat-tree k=4, with random failed links (host links and fabric
partitions included), for every (node, destination) pair plus an
unknown node, before and after the failures and after a recovery.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ExperimentConfig, run_full_simulation
from repro.topology.clos import ClosParams, build_clos
from repro.topology.fattree import FatTreeParams, build_fat_tree
from repro.topology.graph import Node, NodeRole, Topology
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.topology.routing import (
    ROUTING_POLICIES,
    EcmpRouting,
    NoRouteError,
    RoutingConfig,
    make_routing,
)

UNKNOWN = "nope"


class AllPairsBfs:
    """The reference tables: one BFS from every node over all live links."""

    def __init__(self, topology: Topology, failed: set[frozenset[str]]) -> None:
        adjacency = {
            node.name: [
                nbr for nbr in topology.neighbors(node.name)
                if frozenset((node.name, nbr)) not in failed
            ]
            for node in topology.nodes
        }
        self.nexthops: dict[str, dict[str, list[str]]] = {}
        self.dist: dict[str, dict[str, int]] = {}
        for dst in adjacency:
            dist = {dst: 0}
            nexthops: dict[str, list[str]] = {}
            queue = deque([dst])
            while queue:
                current = queue.popleft()
                for nbr in adjacency[current]:
                    if nbr not in dist:
                        dist[nbr] = dist[current] + 1
                        queue.append(nbr)
                        nexthops[nbr] = [current]
                    elif dist[nbr] == dist[current] + 1:
                        nexthops[nbr].append(current)
            for hops in nexthops.values():
                hops.sort()
            self.nexthops[dst] = nexthops
            self.dist[dst] = dist

    def next_hops(self, node: str, dst: str) -> list[str]:
        if node == dst:
            return []
        try:
            return self.nexthops[dst][node]
        except KeyError:
            raise NoRouteError(node, dst) from None

    def next_hop(self, node: str, dst: str, flow_hash: int) -> str:
        hops = self.next_hops(node, dst)
        if not hops:
            raise NoRouteError(node, dst)
        return hops[flow_hash % len(hops)]

    def select_next_hop(self, node: str, dst: str, flow_hash: int) -> str:
        try:
            hops = self.nexthops[dst][node]
        except KeyError:
            raise NoRouteError(node, dst) from None
        return hops[flow_hash % len(hops)]

    def path(self, src: str, dst: str, flow_hash: int) -> list[str]:
        path = [src]
        while path[-1] != dst:
            path.append(self.next_hop(path[-1], dst, flow_hash))
        return path

    def distance(self, src: str, dst: str) -> int:
        try:
            return self.dist[dst][src]
        except KeyError:
            raise NoRouteError(src, dst) from None


def _outcome(call):
    """A query's value, or the exact type of the exception it raised."""
    try:
        return call()
    except (KeyError, RuntimeError) as exc:
        return type(exc)


def _assert_same_answers(routings, oracle: AllPairsBfs, topology: Topology, salt: int) -> None:
    names = [node.name for node in topology.nodes] + [UNKNOWN]
    for i, node in enumerate(names):
        for j, dst in enumerate(names):
            flow_hash = salt + i * len(names) + j
            want_pick = _outcome(lambda: oracle.select_next_hop(node, dst, flow_hash))
            for routing in routings:
                got = _outcome(lambda: routing.select_next_hop(
                    node, dst, flow_hash, now=0.0, port_load=lambda _: 0
                ))
                assert got == want_pick, (routing.policy, node, dst)
            routing = routings[0]
            for query, args in (
                ("next_hops", (node, dst)),
                ("next_hop", (node, dst, flow_hash)),
                ("path", (node, dst, flow_hash)),
                ("distance", (node, dst)),
            ):
                want = _outcome(lambda: getattr(oracle, query)(*args))
                got = _outcome(lambda: getattr(routing, query)(*args))
                assert got == want, (query, node, dst)


topologies = st.one_of(
    st.builds(
        ClosParams,
        clusters=st.integers(1, 4),
        tors_per_cluster=st.integers(1, 3),
        aggs_per_cluster=st.integers(1, 3),
        servers_per_tor=st.integers(1, 3),
        cores=st.integers(1, 3),
    ).map(build_clos),
    st.just(FatTreeParams(k=4)).map(build_fat_tree),
    st.builds(
        LeafSpineParams,
        tors=st.integers(1, 3),
        spines=st.integers(1, 3),
        servers_per_tor=st.integers(1, 3),
    ).map(build_leaf_spine),
)


def _assert_cluster_index_is_a_scan(topology: Topology) -> None:
    nodes = list(topology.nodes)
    ids = sorted({node.cluster for node in nodes if node.cluster is not None})
    assert topology.cluster_ids() == ids
    for cluster in [*ids, None]:
        assert topology.cluster_nodes(cluster) == [
            node for node in nodes if node.cluster == cluster
        ]


def _assert_nothing_filled(routing) -> None:
    assert routing._nexthops == {}
    assert routing._distances == {}


@st.composite
def failed_worlds(draw):
    """A topology and a set of failed links: a random handful, plus
    sometimes every link of one node (isolating a host, or cutting the
    fabric when the node is a lone core or a ToR)."""
    topology = draw(topologies)
    links = [frozenset((link.a, link.b)) for link in topology.links]
    failed = set(draw(st.lists(st.sampled_from(links), max_size=6)))
    if draw(st.booleans()):
        cut = draw(st.sampled_from([node.name for node in topology.nodes]))
        failed.update(link for link in links if cut in link)
    return topology, failed


@given(world=failed_worlds(), salt=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_tables_answer_as_all_pairs_bfs(world, salt):
    topology, failed = world
    _assert_cluster_index_is_a_scan(topology)
    routings = [
        make_routing(topology, RoutingConfig(policy=policy))
        for policy in sorted(ROUTING_POLICIES)
    ]
    for routing in routings:
        _assert_nothing_filled(routing)
    _assert_same_answers(routings, AllPairsBfs(topology, set()), topology, salt)
    for routing in routings:
        # Each state change drops every fill and counts one rebuild.
        for count, (a, b) in enumerate(map(sorted, failed), start=1):
            assert routing.set_link_state(a, b, up=False)
            assert routing.table_rebuilds == count
            _assert_nothing_filled(routing)
    _assert_same_answers(routings, AllPairsBfs(topology, failed), topology, salt)
    if failed:
        # Bring one link back: the refilled tables must follow the oracle.
        a, b = sorted(min(failed, key=sorted))
        for routing in routings:
            assert routing.set_link_state(a, b, up=True)
            assert routing.table_rebuilds == len(failed) + 1
            _assert_nothing_filled(routing)
        failed.discard(frozenset((a, b)))
        _assert_same_answers(routings, AllPairsBfs(topology, failed), topology, salt)


def test_a_run_fills_only_the_pairs_it_looks_up(monkeypatch):
    """A 2-cluster run routes server to server: it fills the pairs its
    packets ask for, and no Cluster or core switch is ever a BFS root."""
    asked = set()
    fill = EcmpRouting._fill_hops

    def recording(self, node, dst):
        asked.add((node, dst))
        return fill(self, node, dst)

    monkeypatch.setattr(EcmpRouting, "_fill_hops", recording)
    config = ExperimentConfig(
        clos=ClosParams(clusters=2), load=0.25, duration_s=0.002, seed=3
    )
    output = run_full_simulation(config, collect_cluster=1)
    routing = output.extractor.routing
    assert output.result.flows_completed > 0
    filled = {(node, dst) for dst, row in routing._nexthops.items() for node in row}
    assert filled and filled <= asked
    fabric = {
        node.name for node in routing.topology.nodes
        if node.role in (NodeRole.CLUSTER, NodeRole.CORE)
    }
    assert routing._distances and not fabric & routing._distances.keys()


def test_hosts_that_are_not_single_link_leaves_get_their_own_bfs():
    """A multi-homed server is a transit node, and a server hanging off a
    server (or a server pair alone) has no switch to share a table with."""
    topology = Topology("irregular")
    for name in ("s1", "s2"):
        topology.add_node(Node(name, NodeRole.TOR))
    for name in ("h1", "h2", "h3", "h4", "h5"):
        topology.add_node(Node(name, NodeRole.SERVER))
    for a, b in (("s1", "h1"), ("s1", "h2"), ("s2", "h2"), ("h2", "h5"), ("h3", "h4")):
        topology.add_link(a, b, rate_bps=1e9, delay_s=1e-6)
    for cut in [None, *topology.links]:
        failed = set() if cut is None else {frozenset((cut.a, cut.b))}
        routings = [
            make_routing(topology, RoutingConfig(policy=policy))
            for policy in sorted(ROUTING_POLICIES)
        ]
        for routing in routings:
            for a, b in map(sorted, failed):
                routing.set_link_state(a, b, up=False)
        _assert_same_answers(routings, AllPairsBfs(topology, failed), topology, salt=7)


def test_distance_raises_no_route_error_naming_both_nodes():
    routing = make_routing(build_clos(ClosParams(clusters=2)))
    src, dst = "server-c0-t0-s0", "server-c1-t0-s0"
    assert routing.distance(src, dst) == 6
    routing.set_link_state("tor-c0-0", src, up=False)
    for a, b in ((src, dst), (dst, src), (UNKNOWN, dst), (src, UNKNOWN), (UNKNOWN, UNKNOWN)):
        with pytest.raises(NoRouteError) as raised:
            routing.distance(a, b)
        assert (raised.value.node, raised.value.dst) == (a, b)


def test_clos64_tables_fit_in_20_mib():
    """Tables sized by switches: the all-pairs tables took 84.9 MiB here."""
    topology = build_clos(ClosParams(clusters=64))
    tracemalloc.start()
    try:
        routing = make_routing(topology)
        built, _ = tracemalloc.get_traced_memory()
        routing.set_link_state("core-0", "agg-c0-0", up=False)
        routing.set_link_state("core-0", "agg-c0-0", up=True)
        recovered, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert routing.table_rebuilds == 2
    assert built <= 20 * 2**20
    assert recovered <= 20 * 2**20
