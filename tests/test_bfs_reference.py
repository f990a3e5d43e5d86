"""Pin every breadth-first walk over the grid against independent copies.

The copies below are the original traversals, kept only here: the local
subgraph's first-``max_nodes`` walk from a faulted line, the oracle's 2-hop
bus set, the region order of a generated network and the connectivity check.
Each property reaches the production code through its public caller (the
oracle's 2-hop sets through its membership rows), on random networks with
parallel elements, disconnected parts and ``max_nodes`` above the bus count.
"""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from gridstab.features import bfs_nodes
from gridstab.grid import (
    AC_LINE, DC_LINE, TRANSFORMER, Bus, Element, GridError, Network, validate_network,
)
from gridstab.synth import StabilityOracle, SynthConfig, generate_network


# ------------------------------------------------------ the original walks

def ref_neighbors(n, pairs):
    nbrs = [set() for _ in range(n)]
    for a, b in pairs:
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return [sorted(s) for s in nbrs]


def ref_bfs_nodes(nbrs, from_bus, to_bus, max_nodes):
    order = [from_bus]
    hops = {from_bus: 0}
    if to_bus not in hops:
        order.append(to_bus)
        hops[to_bus] = 0
    queue = deque(order)
    while queue and len(order) < max_nodes:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                order.append(v)
                queue.append(v)
                if len(order) >= max_nodes:
                    break
    return order[:max_nodes], hops


def ref_two_hop_bus_set(nbrs, from_bus, to_bus):
    frontier = {from_bus, to_bus}
    seen = set(frontier)
    for _ in range(2):
        nxt = set()
        for u in frontier:
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return seen


def ref_bfs_order(n, edge_list):
    nbrs = ref_neighbors(n, edge_list)
    seen = [False] * n
    order = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return order


def ref_reachable_count(nbrs, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


# ------------------------------------------------------- random networks

@st.composite
def random_networks(draw, max_bus=24):
    """Dense bus ids, distinct endpoints, possibly parallel and disconnected."""
    n = draw(st.integers(2, max_bus))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=3 * n))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))   # parallel elements
    kinds = draw(st.lists(st.sampled_from((AC_LINE, AC_LINE, TRANSFORMER, DC_LINE)),
                          min_size=len(pairs), max_size=len(pairs)))
    return Network(
        buses=tuple(Bus(id=i) for i in range(n)),
        elements=tuple(Element(id=k, kind=kind, from_bus=a, to_bus=b)
                       for k, ((a, b), kind) in enumerate(zip(pairs, kinds))),
    )


def endpoint_pairs(network):
    return [(e.from_bus, e.to_bus) for e in network.elements]


@settings(max_examples=150, deadline=None)
@given(net=random_networks(), data=st.data())
def test_local_subgraph_walk_matches_reference(net, data):
    nbrs = ref_neighbors(net.n_bus, endpoint_pairs(net))
    max_nodes = data.draw(st.integers(1, net.n_bus + 10), label="max_nodes")
    for e in net.elements:
        if e.kind != AC_LINE:
            try:
                bfs_nodes(net, e.id, max_nodes)
            except GridError:
                continue
            raise AssertionError(f"non-AC element {e.id} accepted")
        want = ref_bfs_nodes(nbrs, e.from_bus, e.to_bus, max_nodes)
        assert bfs_nodes(net, e.id, max_nodes) == want


@settings(max_examples=150, deadline=None)
@given(net=random_networks())
def test_oracle_neighborhoods_match_reference(net):
    nbrs = ref_neighbors(net.n_bus, endpoint_pairs(net))
    oracle = StabilityOracle(net, SynthConfig())
    ac_lines = [e for e in net.elements if e.kind == AC_LINE]
    assert oracle._member.shape == (len(ac_lines), len(net.elements))
    assert oracle._bus_member.shape == (len(ac_lines), net.n_bus)
    for row, line in enumerate(ac_lines):
        nbhd = ref_two_hop_bus_set(nbrs, line.from_bus, line.to_bus)
        ids = [e.id for e in net.elements
               if e.id != line.id and (e.from_bus in nbhd or e.to_bus in nbhd)]
        member, bus_member = np.zeros(len(net.elements)), np.zeros(net.n_bus)
        if ids:
            member[ids] = 1.0 / len(ids)
        bus_member[sorted(nbhd)] = 1.0 / len(nbhd)
        assert oracle._member[row].tobytes() == member.tobytes(), line.id
        assert oracle._bus_member[row].tobytes() == bus_member.tobytes(), line.id


@settings(max_examples=150, deadline=None)
@given(net=random_networks())
def test_connectivity_check_matches_reference(net):
    reached = ref_reachable_count(ref_neighbors(net.n_bus, endpoint_pairs(net)), 0)
    assert ("disconnected-graph" in validate_network(net)) == (reached < net.n_bus)


@settings(max_examples=60, deadline=None)
@given(n_bus=st.integers(2, 70), seed=st.integers(0, 10_000))
def test_generated_regions_follow_reference_order(n_bus, seed):
    net = generate_network(SynthConfig(n_bus=n_bus, seed=seed))
    order = ref_bfs_order(net.n_bus, endpoint_pairs(net))
    n_regions = max(1, min(3, n_bus // 8))
    block = max(1, math.ceil(n_bus / n_regions))
    want = [0] * n_bus
    for pos, bus in enumerate(order):
        want[bus] = min(pos // block, n_regions - 1)
    assert [b.region for b in net.buses] == want
