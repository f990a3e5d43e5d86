"""Per-network state lives as long as the network: one ``NetworkIndex`` per
network and one propagation matrix per line, while per-snapshot state is
rebuilt for each call and dropped with the arrays it depends on."""

import copy
import dataclasses
import gc

import numpy as np
import pytest

from gridstab import features, model, nn
from gridstab.features import default_feature_spec, featurize
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig, build_dataset, enumerate_faults, generate_day

from conftest import make_toy_dataset, reset_memos

SMALL = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                    sid_hidden=4, mlp_hidden=(10, 6))


@pytest.fixture(scope="module")
def screening_world():
    """A 54-bus network with 48 AC lines, a model trained on day 0 and the
    12 snapshots of day 1 with their faults."""
    config = SynthConfig(n_bus=54, days=1, slots_per_day=12, seed=1000)
    network, snapshots, faults, _ = build_dataset(config)
    assert len(network.ac_line_ids()) == 48
    spec = default_feature_spec()
    train_ds = featurize(network, snapshots, [f for f in faults if f.slot < 4], spec)
    result = train("GraphModel", train_ds, train_ds, SMALL,
                   TrainConfig(epochs=1, balance=False))
    day = [(snap, enumerate_faults(network, snap))
           for snap in generate_day(network, 1, config)]
    return network, spec, result, day


def screen(network, spec, result, snap, faults):
    ds = featurize(network, [snap], faults, spec)
    return ds, scores_for(result, ds)


def test_screening_a_day_reuses_the_index_templates_and_propagation(
        screening_world, monkeypatch):
    network, spec, result, day = screening_world
    want = []
    for snap, faults in day:
        reset_memos()
        want.append(screen(network, spec, result, snap, faults)[1].tobytes())
    reset_memos()

    indexes, templates, normalized = [], [], []

    class CountingIndex(features.NetworkIndex):
        def __init__(self, net):
            indexes.append(1)
            super().__init__(net)

        def _build_template(self, element_id, max_nodes):
            templates.append(element_id)
            return super()._build_template(element_id, max_nodes)

    real = nn.normalize_adjacency
    monkeypatch.setattr(features, "NetworkIndex", CountingIndex)
    monkeypatch.setattr(nn, "normalize_adjacency",
                        lambda *args: normalized.append(1) or real(*args))
    per_day = []
    for _ in range(2):
        before = len(normalized)
        got = [screen(network, spec, result, snap, faults)[1].tobytes()
               for snap, faults in day]
        assert got == want
        per_day.append(len(normalized) - before)
    assert len(indexes) == 1
    assert sorted(templates) == sorted(network.ac_line_ids())
    assert 0 < per_day[0] <= 48
    assert per_day[1] == 0


def test_new_snapshots_with_a_reused_key_are_never_stale(screening_world):
    network, spec, _, day = screening_world
    base, faults = day[0]
    seen = []
    for k in range(6):
        snap = dataclasses.replace(base, bus_states=base.bus_states + k)
        ds = featurize(network, [snap], faults, spec)
        index = features._last_index[0][1]
        for s in ds.samples:
            template = index.line_template(s.element_id, ds.max_nodes)
            kept = template.rows[template.node_mask]
            got = s.local.node_features[template.node_mask, 0:13]
            assert got.tobytes() == snap.bus_states[kept].tobytes()
        seen.append(ds.samples[0].local.node_features.tobytes())
        del snap, ds    # lets the next snapshot reuse the id
    assert len(set(seen)) == len(seen)

    a = dataclasses.replace(base, bus_states=base.bus_states.copy())
    b = dataclasses.replace(base, bus_states=base.bus_states * 1.5)
    first = featurize(network, [a], faults, spec)
    second = featurize(network, [b], faults, spec)
    assert (a.day, a.slot) == (b.day, b.slot)
    for x, y in zip(first.samples, second.samples):
        assert not np.array_equal(x.local.node_features, y.local.node_features)


def test_the_bus_table_memo_holds_only_the_current_call(screening_world, monkeypatch):
    network, spec, _, day = screening_world
    snaps = [snap for snap, _ in day]
    faults = [f for _, fs in day for f in fs]
    held = []
    real = features.local_subgraph

    def spy(*args):
        held.append({id(s) for s, _ in features._last_index[0][1]._tables.values()})
        return real(*args)

    monkeypatch.setattr(features, "local_subgraph", spy)
    featurize(network, snaps[:3], [f for f in faults if f.slot < 3], spec)
    assert held[-1] == {id(s) for s in snaps[:3]}
    index = features._last_index[0][1]
    assert index._tables == {}
    held.clear()
    featurize(network, snaps, [f for f in faults if f.slot == 7], spec)
    assert features._last_index[0][1] is index
    assert held[0] == set() and held[-1] == {id(snaps[7])}
    assert index._tables == {}

    monkeypatch.setattr(features, "local_subgraph", real)
    for snap in snaps[:2]:
        features.local_subgraph(network, snap, faults[0].element_id)
        assert [s for s, _ in index._tables.values()] == [snap]


def test_the_index_memo_dies_with_its_network():
    config = SynthConfig(n_bus=20, days=1, slots_per_day=2, seed=3)
    network, snapshots, faults, oracle = build_dataset(config)
    ds = featurize(network, snapshots, faults, default_feature_spec())
    index = features._last_index[0][1]
    assert index.network is network
    del network, snapshots, faults, oracle
    gc.collect()
    assert features._last_index == []
    assert index.network is None
    assert ds.samples[0].local.adjacency.shape == (50, 50)    # the samples keep theirs


def test_propagation_entries_die_with_their_arrays(screening_world):
    network, spec, result, day = screening_world
    toy = make_toy_dataset(10, seed=3)
    toy_model = model.ScreeningModel("GraphModel", SMALL, model._dims_for(toy))
    toy_model.fit_scalers(toy)
    toy_model.build_batch(toy, range(len(toy.samples)))
    assert len(model._PROPAGATION) == len(toy.samples)
    del toy
    gc.collect()
    assert model._PROPAGATION == {}

    # An entry also dies with either array alone, while the other lives on.
    for survivor in ("adjacency", "node_mask"):
        one = make_toy_dataset(1, seed=5)
        kept = getattr(one.samples[0].local, survivor)
        toy_model.build_batch(one, [0])
        assert len(model._PROPAGATION) == 1
        del one
        gc.collect()
        assert model._PROPAGATION == {}
        assert kept.shape[0] == 8

    snap, faults = day[0]
    ds, _ = screen(network, spec, result, snap, faults)
    lines = len(model._PROPAGATION)
    assert lines == len(faults)
    for _ in range(3):    # as a compare pass copies its day pair
        twin = copy.deepcopy(ds)
        scores_for(result, twin)
        assert len(model._PROPAGATION) == 2 * lines
        del twin
        gc.collect()
        assert len(model._PROPAGATION) == lines
    del ds
    features._last_index.clear()    # the index holds the line templates
    gc.collect()
    assert model._PROPAGATION == {}
