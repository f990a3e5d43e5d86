"""Per-network state lives as long as the network: one ``NetworkIndex`` per
network, with one statistics plan per spec, and one set of line templates
per max_nodes that holds one propagation matrix per line, while per-snapshot
state is rebuilt for each call."""

import dataclasses
import gc

import numpy as np
import pytest

from gridstab import features, nn
from gridstab.features import default_feature_spec, featurize
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig, build_dataset, enumerate_faults, generate_day

from conftest import reset_memos

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


def test_screening_serializes_a_shared_spec_once(screening_world, monkeypatch):
    network, _, result, day = screening_world
    spec = default_feature_spec()     # a fresh object: nothing cached on it yet
    dumped = []
    real = features.json.dumps

    def spy(obj, **kw):
        if isinstance(obj, list):     # the spec's field keys
            dumped.append(len(obj))
        return real(obj, **kw)

    monkeypatch.setattr(features.json, "dumps", spy)
    for snap, faults in day[:4]:
        screen(network, spec, result, snap, faults)
    assert dumped == [len(spec)]


def test_new_snapshots_with_a_reused_key_are_never_stale(screening_world):
    network, spec, _, day = screening_world
    base, faults = day[0]
    seen = []
    for k in range(6):
        snap = dataclasses.replace(base, bus_states=base.bus_states + k)
        ds = featurize(network, [snap], faults, spec)
        position, templates = features._last_index[0][1].templates(ds.max_nodes)
        for s in ds.samples:
            mask = templates.node_mask[position[s.element_id]]
            kept = templates.rows[position[s.element_id]][mask]
            got = s.local.node_features[mask, 0:13]
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


def test_featurize_makes_no_per_field_statistic_calls(screening_world, monkeypatch):
    network, spec, _, day = screening_world
    snaps = [snap for snap, _ in day]
    faults = [f for _, fs in day for f in fs]
    want = featurize(network, snaps, faults, spec)

    def per_field(*args):
        raise AssertionError("compute_statistic called on the featurize path")

    monkeypatch.setattr(features, "compute_statistic", per_field)
    reset_memos()
    got = featurize(network, snaps, faults, spec)
    for g, w in zip(got.samples, want.samples):
        assert g.global_vec.tobytes() == w.global_vec.tobytes()


def test_the_stats_plan_is_built_once_per_network_and_spec(screening_world, monkeypatch):
    network, spec, _, day = screening_world
    built = []

    class CountingPlan(features.StatsPlan):
        def __init__(self, net, s):
            built.append(s)
            super().__init__(net, s)

    monkeypatch.setattr(features, "StatsPlan", CountingPlan)
    snap, faults = day[0]
    first = features.global_stats(network, snap, spec)
    second = features.global_stats(network, snap, spec)
    featurize(network, [snap], faults, spec)
    assert len(built) == 1
    assert first.tobytes() == second.tobytes()
    assert isinstance(features._last_index[0][1]._plan[1], CountingPlan)    # held by the index

    features.global_stats(network, snap, default_feature_spec())    # equal, not the same
    assert len(built) == 1
    features.global_stats(network, snap, default_feature_spec(n_regions=2))
    assert len(built) == 2
