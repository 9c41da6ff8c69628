"""Property tests for worker partitioning and window resolution.

Satellite 3 of the shard test pack: over random Clos and leaf-spine
topologies, every node is assigned to exactly one worker, the cut-link
predicate is symmetric, ``cross_partition_links`` agrees with a manual
recount over ``partition_for_workers`` output, ``partition_hybrid``
never splits an approximated cluster, and the resolved synchronization
window never exceeds any cut-link delay or the model-egress lookahead
(the conservative-causality bound every exchange relies on).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdes import resolve_window
from repro.topology.clos import ClosParams, build_clos
from repro.topology.leafspine import LeafSpineParams, build_leaf_spine
from repro.topology.partition import (
    cross_partition_links,
    owner_map,
    partition_for_workers,
    partition_hybrid,
)

SETTINGS = settings(max_examples=40, deadline=None)


@functools.lru_cache(maxsize=None)
def _clos(clusters: int):
    return build_clos(ClosParams(clusters=clusters))


@functools.lru_cache(maxsize=None)
def _leaf_spine(tors: int, spines: int):
    return build_leaf_spine(
        LeafSpineParams(tors=tors, spines=spines, servers_per_tor=2)
    )


topologies = st.one_of(
    st.integers(min_value=2, max_value=6).map(_clos),
    st.tuples(
        st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3)
    ).map(lambda p: _leaf_spine(*p)),
)
workers_st = st.integers(min_value=1, max_value=8)


@given(topology=topologies, workers=workers_st)
@SETTINGS
def test_every_node_assigned_exactly_once(topology, workers):
    partitions = partition_for_workers(topology, workers)
    assert len(partitions) == workers
    names = [name for part in partitions for name in part]
    assert len(names) == len(set(names)) == topology.node_count


@given(topology=topologies, workers=workers_st)
@SETTINGS
def test_cut_link_set_symmetric_and_consistent(topology, workers):
    partitions = partition_for_workers(topology, workers)
    owner = owner_map(partitions)
    # The cut predicate must not depend on link direction.
    forward = {
        (link.a, link.b)
        for link in topology.links
        if owner[link.a] != owner[link.b]
    }
    backward = {
        (link.b, link.a)
        for link in topology.links
        if owner[link.b] != owner[link.a]
    }
    assert {(b, a) for (a, b) in forward} == backward
    # ... and cross_partition_links agrees with a manual recount.
    assert cross_partition_links(topology, partitions) == len(forward)
    # Partition *order* must not matter either.
    assert cross_partition_links(topology, list(reversed(partitions))) == len(
        forward
    )


@given(clusters=st.integers(min_value=2, max_value=6), workers=workers_st)
@SETTINGS
def test_partition_hybrid_covers_all_and_keeps_clusters_atomic(
    clusters, workers
):
    topology = _clos(clusters)
    full_cluster = 0
    partitions = partition_hybrid(topology, full_cluster, workers)
    names = [name for part in partitions for name in part]
    assert len(names) == len(set(names)) == topology.node_count
    owner = owner_map(partitions)
    # Approximated clusters (everything but the full-fidelity one) ride
    # as model shards: their whole fabric must land on one worker, so
    # the host<->model path never crosses a process boundary.
    for cluster in topology.cluster_ids():
        if cluster == full_cluster:
            continue
        owners = {
            owner[node.name] for node in topology.cluster_nodes(cluster)
        }
        assert len(owners) == 1, f"cluster {cluster} split across {owners}"


@given(
    topology=topologies,
    workers=workers_st,
    lookahead=st.one_of(
        st.none(), st.floats(min_value=1e-7, max_value=1e-3)
    ),
)
@SETTINGS
def test_resolved_window_never_exceeds_lookahead_bound(
    topology, workers, lookahead
):
    partitions = partition_for_workers(topology, workers)
    window = resolve_window(
        topology, partitions, None, 0.01, model_lookahead_s=lookahead
    )
    assert window > 0
    owner = owner_map(partitions)
    for link in topology.links:
        if owner[link.a] != owner[link.b]:
            assert window <= link.delay_s + 1e-18
    if lookahead is not None:
        assert window <= lookahead + 1e-18
    # Any larger explicit window is rejected, never clamped.
    with pytest.raises(ValueError, match="exceeds"):
        resolve_window(
            topology,
            partitions,
            window * 1.5,
            0.01,
            model_lookahead_s=lookahead,
        )
