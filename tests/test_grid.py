import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstab.grid import (
    AC_LINE, TRANSFORMER, Bus, Element, GridError, Network,
    adjacency_lists, bfs, build_adjacency, neighbor_lists, validate_network,
    validate_snapshot, validate_states,
)
from gridstab.synth import SynthConfig, generate_network

from conftest import chain_network, zero_snapshot
from test_bfs_reference import (
    endpoint_pairs, random_networks, ref_bfs_nodes, ref_bfs_order, ref_neighbors,
    ref_reachable_count,
)


def test_single_edge_adjacency():
    net = chain_network(2)
    assert build_adjacency(net).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_empty_graph_adjacency():
    net = Network(buses=(Bus(id=0),), elements=())
    assert build_adjacency(net).tolist() == [[0.0]]


def test_triangle_adjacency():
    buses = tuple(Bus(id=i) for i in range(3))
    elements = tuple(
        Element(id=k, kind=AC_LINE, from_bus=a, to_bus=b)
        for k, (a, b) in enumerate([(0, 1), (1, 2), (0, 2)])
    )
    adj = build_adjacency(Network(buses=buses, elements=elements))
    # Oracle: enumerate element endpoints.
    expected = np.zeros((3, 3))
    for e in elements:
        expected[e.from_bus, e.to_bus] = expected[e.to_bus, e.from_bus] = 1.0
    assert np.array_equal(adj, expected)
    assert np.array_equal(np.diagonal(adj), np.zeros(3))


def test_dangling_endpoint_raises():
    buses = tuple(Bus(id=i) for i in range(3))
    net = Network(buses=buses, elements=(
        Element(id=0, kind=AC_LINE, from_bus=0, to_bus=99),))
    with pytest.raises(GridError):
        build_adjacency(net)


def test_parallel_elements_collapse():
    buses = tuple(Bus(id=i) for i in range(2))
    net = Network(buses=buses, elements=(
        Element(id=0, kind=AC_LINE, from_bus=0, to_bus=1),
        Element(id=1, kind=TRANSFORMER, from_bus=1, to_bus=0),
    ))
    adj = build_adjacency(net)
    assert adj[0, 1] == 1.0 and adj.sum() == 2.0


def test_validate_ok_network():
    assert validate_network(chain_network(3)) == []


def test_validate_dangling():
    buses = tuple(Bus(id=i) for i in range(3))
    net = Network(buses=buses, elements=(
        Element(id=0, kind=AC_LINE, from_bus=0, to_bus=1),
        Element(id=1, kind=AC_LINE, from_bus=1, to_bus=2),
        Element(id=2, kind=AC_LINE, from_bus=2, to_bus=99),
    ))
    errors = validate_network(net)
    assert any(e.startswith("dangling-endpoint") for e in errors)


def test_validate_disconnected():
    buses = tuple(Bus(id=i) for i in range(4))
    net = Network(buses=buses, elements=(
        Element(id=0, kind=AC_LINE, from_bus=0, to_bus=1),
        Element(id=1, kind=AC_LINE, from_bus=2, to_bus=3),
    ))
    # Oracle: BFS reachability from bus 0 covers 2 < 4 buses.
    nbrs = neighbor_lists(net)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert len(seen) < net.n_bus
    assert "disconnected-graph" in validate_network(net)


def test_validate_duplicate_and_self_loop():
    buses = (Bus(id=0), Bus(id=1), Bus(id=1))
    net = Network(buses=buses, elements=(
        Element(id=0, kind=AC_LINE, from_bus=0, to_bus=1),
        Element(id=1, kind=AC_LINE, from_bus=1, to_bus=1),
    ))
    errors = validate_network(net)
    assert any(e.startswith("duplicate-bus-id") for e in errors)
    assert any(e.startswith("self-loop") for e in errors)


@pytest.mark.parametrize("rating", [0.0, -5.0])
def test_validate_non_positive_rating(rating):
    net = chain_network(3)
    bad = Element(id=1, kind=TRANSFORMER, from_bus=1, to_bus=2, rating=rating)
    net = Network(buses=net.buses, elements=(net.elements[0], bad))
    assert validate_network(net) == ["non-positive-rating: element 1"]


def test_validate_states_names_the_first_bad_snapshot():
    net = chain_network(4)
    bus, elem = np.zeros((5, 4, 13)), np.zeros((5, 3, 2))
    assert validate_states(net, bus, elem) == (0, [])
    assert validate_states(net, bus[:0], elem[:0]) == (0, [])
    bus[3, 1, 2], elem[4, 0, 0], elem[3, 2, 1] = np.nan, np.inf, -np.inf
    assert validate_states(net, bus, elem) == (
        3, ["non-finite-state: bus_states, element_states"])
    # a wrong shape is every snapshot's: the first one is named
    assert validate_states(net, bus[:, :3], elem[:, :, :1]) == (0, [
        "bus-state-shape: bus_states expected (4, 13), got (3, 13)",
        "element-state-shape: element_states expected (3, 2), got (3, 1)"])
    snap = zero_snapshot(net)
    assert validate_snapshot(net, snap) == []
    snap.element_states[1, 1] = np.nan
    assert validate_snapshot(net, snap) == ["non-finite-state: element_states"]


def test_adjacency_properties_on_random_networks():
    # Symmetric, zero diagonal, and entry sum = 2 x number of connected pairs.
    for seed in range(20):
        net = generate_network(SynthConfig(n_bus=15 + seed, seed=seed))
        adj = build_adjacency(net)
        assert np.array_equal(adj, adj.T)
        assert np.array_equal(np.diagonal(adj), np.zeros(net.n_bus))
        pairs = {(min(e.from_bus, e.to_bus), max(e.from_bus, e.to_bus))
                 for e in net.elements}
        assert adj.sum() == 2 * len(pairs)
        # validate_network(ok) implies build_adjacency succeeds
        assert validate_network(net) == []


def test_bfs_seeds_hops_and_limits():
    nbrs = adjacency_lists(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 0)])
    assert nbrs == [[1], [0, 2], [1, 3], [2, 4], [3]]
    assert bfs(nbrs, [2, 2]) == ([2, 1, 3, 0, 4], {2: 0, 1: 1, 3: 1, 0: 2, 4: 2})
    assert bfs(nbrs, [0], max_nodes=2)[0] == [0, 1]
    assert bfs(nbrs, [0], max_nodes=99)[0] == [0, 1, 2, 3, 4]


@settings(max_examples=150, deadline=None)
@given(net=random_networks(), data=st.data())
def test_bfs_matches_reference_walks(net, data):
    pairs = endpoint_pairs(net)
    nbrs = adjacency_lists(net.n_bus, pairs)
    assert nbrs == ref_neighbors(net.n_bus, pairs) == neighbor_lists(net)
    max_nodes = data.draw(st.integers(1, net.n_bus + 10), label="max_nodes")
    for a, b in pairs:
        assert bfs(nbrs, [a, b], max_nodes=max_nodes) == ref_bfs_nodes(nbrs, a, b, max_nodes)
    order, _ = bfs(nbrs, [0])
    assert len(order) == ref_reachable_count(nbrs, 0)
    if len(order) == net.n_bus:
        assert order == ref_bfs_order(net.n_bus, pairs)
