import numpy as np
import pytest

from gridstab import features, model
from gridstab.features import (
    FeaturizedDataset, FeaturizedSample, LocalGraph, default_feature_spec,
)
from gridstab.grid import AC_LINE, Bus, Element, Network, Snapshot
from gridstab.synth import SynthConfig, build_dataset


def chain_network(n_bus: int, kind: str = AC_LINE) -> Network:
    """Bus 0-1-2-...-(n-1) connected by consecutive elements."""
    buses = tuple(Bus(id=i, degree=(1 if i in (0, n_bus - 1) else 2))
                  for i in range(n_bus))
    elements = tuple(
        Element(id=i, kind=kind, from_bus=i, to_bus=i + 1, p_flow=50.0,
                q_flow=10.0, rating=100.0)
        for i in range(n_bus - 1)
    )
    return Network(buses=buses, elements=elements)


def zero_snapshot(network: Network, day: int = 0, slot: int = 0) -> Snapshot:
    return Snapshot(
        day=day, slot=slot,
        bus_states=np.zeros((network.n_bus, 13)),
        element_states=np.zeros((len(network.elements), 2)),
    )


def reset_memos() -> None:
    """Empty the process-wide network-index and propagation memos."""
    features._last_index.clear()
    model._PROPAGATION.clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with empty memos, so that its call counts do not
    depend on the tests that ran before it."""
    reset_memos()


@pytest.fixture(scope="session")
def small_world():
    """A small but non-trivial generated dataset shared across tests."""
    config = SynthConfig(n_bus=40, days=3, slots_per_day=16, seed=11)
    network, snapshots, faults, oracle = build_dataset(config)
    return {
        "config": config, "network": network, "snapshots": snapshots,
        "faults": faults, "oracle": oracle,
    }


from gridstab.features import GlobalFeatureSpec

TOY_SPEC = GlobalFeatureSpec(fields=default_feature_spec().fields[:8])


def make_toy_dataset(n: int, seed: int, separable: bool = True,
                     max_nodes: int = 8, n_elements: int = 6) -> FeaturizedDataset:
    """Hand-built featurized samples whose label depends only on two global
    dimensions (well-separated blobs when ``separable``)."""
    rng = np.random.default_rng(seed)
    g_dim = len(TOY_SPEC)
    samples = []
    for i in range(n):
        label = int(i % 2)
        vec = rng.normal(scale=0.3, size=g_dim)
        center = 3.0 if label else -3.0
        if separable:
            vec[0] = center + rng.normal(scale=0.3)
            vec[1] = -center + rng.normal(scale=0.3)
        n_real = int(rng.integers(3, max_nodes + 1))
        adj = np.zeros((max_nodes, max_nodes))
        for a in range(n_real - 1):
            adj[a, a + 1] = adj[a + 1, a] = 1.0
        mask = np.zeros(max_nodes, dtype=bool)
        mask[:n_real] = True
        feats = rng.normal(size=(max_nodes, 59)) * mask[:, None]
        samples.append(FeaturizedSample(
            day=0, slot=i, element_id=int(rng.integers(0, n_elements)),
            label=label, global_vec=vec,
            local=LocalGraph(adjacency=adj, node_features=feats,
                             node_mask=mask, fault_element_id=0),
        ))
    return FeaturizedDataset(samples=samples, spec=TOY_SPEC,
                             n_elements=n_elements, max_nodes=max_nodes)


def same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def sharing(keys) -> list[int]:
    """Group number of each key, in first-seen order."""
    groups: dict = {}
    return [groups.setdefault(k, len(groups)) for k in keys]


def assert_identical_datasets(got: FeaturizedDataset, want: FeaturizedDataset) -> None:
    """Every field equal byte for byte, with dtypes, and the same arrays shared."""
    assert (got.spec, got.n_elements, got.max_nodes, got.synth_fingerprint) == (
        want.spec, want.n_elements, want.max_nodes, want.synth_fingerprint)
    assert len(got.samples) == len(want.samples)
    for g, w in zip(got.samples, want.samples):
        assert (g.day, g.slot, g.element_id, g.label, g.local.fault_element_id) == (
            w.day, w.slot, w.element_id, w.label, w.local.fault_element_id)
        assert same_array(g.global_vec, w.global_vec), g.fault_key
        assert same_array(g.local.adjacency, w.local.adjacency), g.fault_key
        assert same_array(g.local.node_features, w.local.node_features), g.fault_key
        assert same_array(g.local.node_mask, w.local.node_mask), g.fault_key
    assert list(got.raw_states) == list(want.raw_states)
    for key, raw in want.raw_states.items():
        assert same_array(got.raw_states[key], raw), key
    # The archive stores one global vector per distinct object and one
    # (adjacency, node_mask) pair per distinct pair of objects.
    for key in (lambda s: id(s.global_vec),
                lambda s: (id(s.local.adjacency), id(s.local.node_mask))):
        assert sharing(map(key, got.samples)) == sharing(map(key, want.samples))
