"""Pin ``featurize`` and ``local_subgraph`` bit for bit against the original
per-sample implementation, which rebuilt every node row once per
(line, bus) pair.  The reference below is that implementation, kept only
here."""

import copy

import numpy as np
import pytest

from gridstab import persist
from gridstab.features import (
    HOP_BUCKETS, LOCAL_NODES, NODE_FEATURES, FeaturizedDataset, FeaturizedSample,
    LocalGraph, bfs_nodes, default_feature_spec, featurize, global_stats,
    local_subgraph,
)
from gridstab.grid import (
    AC_LINE, DC_LINE, TRANSFORMER, Bus, Element, FaultSample, Network, Snapshot,
    neighbor_lists,
)
from gridstab.metrics import undersample_balance
from gridstab.synth import SynthConfig, build_dataset

from conftest import assert_identical_datasets


# ------------------------------------------------- the original implementation

class RefIndex:
    def __init__(self, network):
        self.network = network
        self.nbrs = neighbor_lists(network)
        n = network.n_bus
        self.degree = np.array([len(self.nbrs[i]) for i in range(n)], dtype=float)
        self.max_degree = float(self.degree.max()) if n else 1.0
        self.incident = [[] for _ in range(n)]
        for e in network.elements:
            self.incident[e.from_bus].append(e.id)
            self.incident[e.to_bus].append(e.id)
        self.two_hop_count = np.zeros(n)
        self.clustering = np.zeros(n)
        nbr_sets = [set(v) for v in self.nbrs]
        for i in range(n):
            reach = set(self.nbrs[i])
            for j in self.nbrs[i]:
                reach.update(self.nbrs[j])
            reach.discard(i)
            self.two_hop_count[i] = len(reach)
            deg = len(self.nbrs[i])
            if deg >= 2:
                links = sum(
                    1 for a in self.nbrs[i] for b in self.nbrs[i]
                    if a < b and b in nbr_sets[a]
                )
                self.clustering[i] = 2.0 * links / (deg * (deg - 1))


def ref_local_subgraph(network, snapshot, element_id, max_nodes=LOCAL_NODES, index=None):
    if index is None:
        index = RefIndex(network)
    net = network
    kept, hops = bfs_nodes(net, element_id, max_nodes, index.nbrs)
    pos = {bus: row for row, bus in enumerate(kept)}
    elem = net.element_by_id(element_id)

    adj = np.zeros((max_nodes, max_nodes))
    for e in net.elements:
        if e.from_bus in pos and e.to_bus in pos:
            i, j = pos[e.from_bus], pos[e.to_bus]
            adj[i, j] = 1.0
            adj[j, i] = 1.0
    np.fill_diagonal(adj, 0.0)

    feats = np.zeros((max_nodes, NODE_FEATURES))
    mask = np.zeros(max_nodes, dtype=bool)
    kept_set = set(kept)
    for row, bus in enumerate(kept):
        mask[row] = True
        feats[row, 0:13] = snapshot.bus_states[bus]
        feats[row, 13 + min(hops[bus], HOP_BUCKETS - 1)] = 1.0

        ac = [net.elements[i] for i in index.incident[bus]
              if net.elements[i].kind == AC_LINE]
        if ac:
            p = np.array([snapshot.element_states[e.id, 0] for e in ac])
            q = np.array([snapshot.element_states[e.id, 1] for e in ac])
            rating = np.array([e.rating for e in ac])
            loading = np.abs(p) / rating
            quantities = [p, q, loading, rating - np.abs(p), np.hypot(p, q), rating]
            col = 21
            for vals in quantities:
                feats[row, col:col + 4] = [vals.sum(), vals.mean(), vals.max(), vals.min()]
                col += 4

        feats[row, 45] = 1.0 if bus == elem.from_bus else 0.0
        feats[row, 46] = 1.0 if bus == elem.to_bus else 0.0

        nbr_deg = index.degree[index.nbrs[bus]] if index.nbrs[bus] else np.zeros(1)
        deg_sub = sum(1 for v in index.nbrs[bus] if v in kept_set)
        inc = [net.elements[i] for i in index.incident[bus]]
        feats[row, 47:59] = [
            index.degree[bus],
            float(deg_sub),
            sum(1 for e in inc if e.kind == AC_LINE),
            sum(1 for e in inc if e.kind != AC_LINE and e.kind != DC_LINE),
            sum(1 for e in inc if e.kind == DC_LINE),
            index.degree[bus] / index.max_degree,
            float(nbr_deg.mean()),
            float(nbr_deg.max()),
            float(nbr_deg.min()),
            float(nbr_deg.sum()),
            float(index.two_hop_count[bus]),
            float(index.clustering[bus]),
        ]
    return LocalGraph(adjacency=adj, node_features=feats, node_mask=mask,
                      fault_element_id=element_id)


def ref_featurize(network, snapshots, faults, spec, max_nodes=LOCAL_NODES):
    index = RefIndex(network)
    by_key = {(s.day, s.slot): s for s in snapshots}
    global_cache = {}
    samples = []
    for fs in faults:
        snap = by_key[(fs.day, fs.slot)]
        key = (fs.day, fs.slot)
        if key not in global_cache:
            global_cache[key] = global_stats(network, snap, spec)
        samples.append(FeaturizedSample(
            day=fs.day, slot=fs.slot, element_id=fs.element_id, label=fs.label,
            global_vec=global_cache[key],
            local=ref_local_subgraph(network, snap, fs.element_id, max_nodes, index),
        ))
    return FeaturizedDataset(samples=samples, spec=spec, n_elements=len(network.elements),
                             max_nodes=max_nodes)


# ------------------------------------------------------------------- helpers

def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_graph(a, b):
    return (same_array(a.adjacency, b.adjacency)
            and same_array(a.node_features, b.node_features)
            and same_array(a.node_mask, b.node_mask)
            and a.fault_element_id == b.fault_element_id)


def assert_same_dataset(got, want):
    assert len(got.samples) == len(want.samples)
    for g, w in zip(got.samples, want.samples):
        assert (g.day, g.slot, g.element_id, g.label) == (w.day, w.slot, w.element_id, w.label)
        assert same_array(g.global_vec, w.global_vec), g.fault_key
        assert same_graph(g.local, w.local), g.fault_key
    assert got.max_nodes == want.max_nodes and got.n_elements == want.n_elements


def synth_world(n_bus, seed, slots=2):
    network, snapshots, faults, _ = build_dataset(
        SynthConfig(n_bus=n_bus, days=1, slots_per_day=slots, seed=seed))
    return network, snapshots, faults


def mixed_network():
    """Eight buses with parallel AC lines, a transformer and a DC line."""
    buses = tuple(Bus(id=i, degree=2) for i in range(8))
    links = [
        (AC_LINE, 0, 1, 120.0), (AC_LINE, 1, 2, 80.0), (AC_LINE, 1, 2, 95.0),
        (TRANSFORMER, 2, 3, 200.0), (AC_LINE, 3, 4, 60.0), (DC_LINE, 4, 5, 300.0),
        (AC_LINE, 5, 6, 110.0), (AC_LINE, 6, 0, 70.0), (AC_LINE, 2, 7, 50.0),
        (AC_LINE, 7, 2, 55.0), (TRANSFORMER, 7, 3, 150.0),
    ]
    elements = tuple(Element(id=i, kind=k, from_bus=a, to_bus=b, rating=r)
                     for i, (k, a, b, r) in enumerate(links))
    return Network(buses=buses, elements=elements)


def random_snapshots(network, n, seed):
    rng = np.random.default_rng(seed)
    return [Snapshot(day=0, slot=s,
                     bus_states=rng.normal(size=(network.n_bus, 13)),
                     element_states=rng.normal(scale=60.0, size=(len(network.elements), 2)))
            for s in range(n)]


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("n_bus,seed", [(16, 3), (40, 5), (100, 8)])
def test_featurize_matches_reference_on_synth_worlds(n_bus, seed):
    network, snapshots, faults = synth_world(n_bus, seed)
    spec = default_feature_spec()
    for max_nodes in (20, 50, n_bus + 7):
        assert_same_dataset(featurize(network, snapshots, faults, spec, max_nodes),
                            ref_featurize(network, snapshots, faults, spec, max_nodes))


def test_featurize_matches_reference_on_mixed_element_kinds():
    network = mixed_network()
    snapshots = random_snapshots(network, 3, seed=4)
    faults = [FaultSample(day=0, slot=s.slot, element_id=eid, label=(s.slot + eid) % 2)
              for s in snapshots for eid in network.ac_line_ids()]
    spec = default_feature_spec()
    for max_nodes in (4, 8, 50):
        assert_same_dataset(featurize(network, snapshots, faults, spec, max_nodes),
                            ref_featurize(network, snapshots, faults, spec, max_nodes))


def test_featurize_matches_reference_in_shuffled_fault_order():
    network, snapshots, faults = synth_world(30, 6, slots=4)
    spec = default_feature_spec()
    balanced = undersample_balance(faults, seed=2)
    rng = np.random.default_rng(9)
    permuted = [faults[i] for i in rng.permutation(len(faults))]
    for order in (balanced, permuted):
        assert_same_dataset(featurize(network, snapshots, order, spec, 20),
                            ref_featurize(network, snapshots, order, spec, 20))


def test_local_subgraph_alone_matches_reference():
    network, snapshots, _ = synth_world(40, 12)
    mixed = mixed_network()
    cases = [(network, snapshots[1], eid, m)
             for eid in network.ac_line_ids()[::7] for m in (10, 50)]
    cases += [(mixed, random_snapshots(mixed, 1, seed=1)[0], eid, 6)
              for eid in mixed.ac_line_ids()]
    for net, snap, eid, max_nodes in cases:
        assert same_graph(local_subgraph(net, snap, eid, max_nodes),
                          ref_local_subgraph(net, snap, eid, max_nodes))


# ------------------------------------------------------ shared per-line arrays

def test_samples_of_one_line_share_read_only_arrays():
    network, snapshots, faults = synth_world(24, 2, slots=3)
    ds = featurize(network, snapshots, faults, default_feature_spec(), max_nodes=12)
    by_line = {}
    for s in ds.samples:
        by_line.setdefault(s.element_id, []).append(s.local)
    for graphs in by_line.values():
        assert len(graphs) == 3
        assert all(g.adjacency is graphs[0].adjacency for g in graphs)
        assert all(g.node_mask is graphs[0].node_mask for g in graphs)
        assert len({id(g.node_features) for g in graphs}) == 3
    first, second = next(iter(by_line.values()))[:2]
    with pytest.raises(ValueError):
        first.adjacency[0, 1] = 5.0
    with pytest.raises(ValueError):
        first.node_mask[0] = False
    before = second.node_features.copy()
    first.node_features[:] += 1.0       # each sample owns its node features
    assert np.array_equal(second.node_features, before)

def test_shared_arrays_survive_deepcopy_and_persist_round_trip(tmp_path):
    network, snapshots, faults = synth_world(24, 2, slots=2)
    ds = featurize(network, snapshots, faults, default_feature_spec(), max_nodes=12,
                   include_raw=True)
    clone = copy.deepcopy(ds)
    assert_same_dataset(clone, ds)

    path = tmp_path / "features.npz"
    persist.save_features(ds, path)
    loaded = persist.load_features(path)
    assert_identical_datasets(loaded, ds)
    lines = {s.element_id for s in ds.samples}
    assert len({id(s.local.adjacency) for s in loaded.samples}) == len(lines)
    assert not loaded.samples[0].local.adjacency.flags.writeable
    assert not loaded.samples[0].local.node_mask.flags.writeable
    again = tmp_path / "again.npz"
    persist.save_features(loaded, again)
    assert again.read_bytes() == path.read_bytes()
