"""The feature store: featurized samples are row indices into per-snapshot
tables and per-network line templates, and the model reads the store, never
a sample's own node matrix."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstab import features, grid, nn, persist, report
from gridstab.cli import main
from gridstab.features import (
    FAULT_COLUMNS, LocalGraph, default_feature_spec, featurize, int_columns, key_groups,
)
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig

from conftest import assert_identical_datasets, reset_memos

SMALL = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                    sid_hidden=4, mlp_hidden=(10, 6))


def day0(small_world, lo, hi):
    return [f for f in small_world["faults"] if f.day == 0 and lo <= f.slot < hi]


def test_training_and_scoring_never_build_a_node_matrix(small_world, monkeypatch):
    net, snaps = small_world["network"], small_world["snapshots"]
    spec = default_feature_spec()
    train_ds = featurize(net, snaps, day0(small_world, 0, 12), spec)
    cal_ds = featurize(net, snaps, day0(small_world, 12, 14), spec)
    want = LocalGraph.node_features

    def refuse(graph):
        raise AssertionError("a sample's node matrix was built")

    monkeypatch.setattr(LocalGraph, "node_features", property(refuse))
    result = train("GraphModel", train_ds, cal_ds, SMALL, TrainConfig(epochs=1, seed=2))
    scores = scores_for(result, cal_ds)
    monkeypatch.setattr(LocalGraph, "node_features", want)
    assert scores.shape == (len(cal_ds.samples),)
    assert all(vars(s.local)["_node_features"] is None
               for s in train_ds.samples + cal_ds.samples)
    # Read afterwards, a sample's matrix is copied out once and kept.
    first = cal_ds.samples[0].local
    assert first.node_features is first.node_features
    assert not np.shares_memory(first.node_features, cal_ds.store.tables)


def test_screening_builds_the_templates_once_per_network_and_max_nodes(
        small_world, monkeypatch):
    net, snaps = small_world["network"], small_world["snapshots"]
    spec = default_feature_spec()
    result = train("GraphModel", featurize(net, snaps, day0(small_world, 0, 4), spec),
                   featurize(net, snaps, day0(small_world, 4, 6), spec), SMALL,
                   TrainConfig(epochs=1, seed=3, balance=False))
    reset_memos()
    built, normalized = [], []
    real_build, real_normalize = features.NetworkIndex._build_template, nn.normalize_adjacency

    def counting_build(index, element_id, max_nodes):
        built.append((element_id, max_nodes))
        return real_build(index, element_id, max_nodes)

    monkeypatch.setattr(features.NetworkIndex, "_build_template", counting_build)
    monkeypatch.setattr(nn, "normalize_adjacency",
                        lambda *args: normalized.append(1) or real_normalize(*args))
    datasets = []
    for snap in snaps[16:22]:     # day 1, one snapshot at a time
        faults = [f for f in small_world["faults"] if (f.day, f.slot) == (snap.day, snap.slot)]
        ds = featurize(net, [snap], faults, spec)
        scores_for(result, ds)
        datasets.append(ds)
    lines = net.ac_line_ids()
    assert built == [(line, 50) for line in lines]
    assert len(normalized) == len(net.ac_line_ids())
    templates = datasets[0].store.templates
    assert all(ds.store.templates is templates for ds in datasets)
    assert all(len(ds.store.tables) == 1 for ds in datasets)
    featurize(net, snaps, day0(small_world, 0, 1), spec, max_nodes=20)
    featurize(net, snaps, day0(small_world, 1, 2), spec, max_nodes=20)
    assert built == [(line, m) for m in (50, 20) for line in lines]


def test_a_store_holds_one_table_per_snapshot_and_one_template_per_line(small_world):
    net, snaps = small_world["network"], small_world["snapshots"]
    faults = day0(small_world, 0, 3)
    ds = featurize(net, snaps, faults, default_feature_spec(), max_nodes=12)
    store = ds.store
    lines = net.ac_line_ids()
    assert store.tables.shape == (3, net.n_bus + 1, features.NODE_FEATURES)
    assert len(store.global_vecs) == 3
    for name in ("rows", "line_values", "adjacency", "node_mask"):
        assert len(getattr(store.templates, name)) == len(lines), name
    assert not store.tables.flags.writeable
    assert features.COLUMNS == ("day", "slot", "element_id", "label", "table_index",
                                "template_index")
    table, template = (ds.columns[name] for name in features.INDEX_COLUMNS)
    assert table.tolist() == [f.slot for f in faults]
    assert template.tolist() == [lines.index(f.element_id) for f in faults]


def test_a_hand_built_adjacency_must_be_zero_or_one():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 0.5
    graph = LocalGraph(adj, np.zeros((3, 59)), np.ones(3, bool), 0)
    sample = features.FeaturizedSample(0, 0, 0, 1, np.zeros(8), graph)
    with pytest.raises(ValueError, match="only 0 and 1"):
        features.FeaturizedDataset([sample], features.GlobalFeatureSpec(
            fields=default_feature_spec().fields[:8]), n_elements=1, max_nodes=3)


def test_no_program_path_walks_the_samples(tmp_path, monkeypatch):
    """Featurizing, the features file, the day split, training, scoring and
    both baselines read the columns and the store.  ``samples`` is built on
    each read, so a walk inside ``predict`` or ``index_batch`` would rebuild
    it for every batch, on screen's per-snapshot path too."""
    def refuse(dataset):
        raise AssertionError("a dataset's samples were read")

    monkeypatch.setattr(features.FeaturizedDataset, "samples", property(refuse))
    cfg = report.ExperimentConfig(synth=SynthConfig(n_bus=20, days=3, slots_per_day=8, seed=3),
                                  model=SMALL, train=TrainConfig(epochs=1, seed=1))
    bundle = report.build_bundle(cfg)
    ds = featurize(bundle.network, bundle.snapshots, bundle.faults, bundle.spec,
                   include_raw=True)
    persist.save_features(ds, tmp_path / "features.npz")
    loaded = persist.load_features(tmp_path / "features.npz")
    train_ds, cal_ds = report.split_day(loaded, 1, cfg.calibration_frac)
    for variant in ("GraphModel", "DeepCnn5"):
        result = train(variant, train_ds, cal_ds, SMALL, cfg.train)
        assert scores_for(result, report.day_slice(loaded, 2)).shape == (len(loaded) // 3,)
    pair = report.prepare_day_pair(bundle, 1, 2, include_raw=True)
    rows = report.comparison_table(bundle, 1, 2)
    assert report.run_svm(bundle, pair, 98.0) == report.run_system(bundle, pair, "svm")
    assert report.run_prev_day(bundle, pair, 98.0) == report.run_system(bundle, pair, "prevday")
    assert len(rows) == len(report.COMPARISON_ROWS)


def test_no_program_path_builds_a_fault_object(tmp_path, monkeypatch):
    """Faults go from the oracle through the faults archive to ``featurize``
    as columns: ``report.build_bundle`` and the synth, featurize, train, eval
    and report commands build no ``FaultSample``."""
    def refuse(*args, **kwargs):
        raise AssertionError("a FaultSample was built")

    monkeypatch.setattr(grid.FaultSample, "__init__", refuse)
    with pytest.raises(AssertionError, match="FaultSample"):
        grid.FaultSample(0, 0, 0)
    world = SynthConfig(n_bus=20, days=3, slots_per_day=8, seed=3)
    bundle = report.build_bundle(report.ExperimentConfig(synth=world))
    assert bundle.faults["label"].size == 3 * 8 * len(bundle.network.ac_line_ids())
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--buses", "20", "--days", "3",
                 "--slots", "8", "--seed", "3"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {**dataclasses.asdict(SMALL), "cnn_channels": 4}}))
    features_path, ckpt = tmp_path / "features.npz", tmp_path / "ckpt.npz"
    for argv in (["featurize", "--data", str(data), "--out", str(features_path)],
                 ["train", "--features", str(features_path), "--data", str(data),
                  "--train-day", "1", "--epochs", "1", "--out", str(ckpt)],
                 ["eval", "--features", str(features_path), "--checkpoint", str(ckpt),
                  "--day", "2"],
                 ["report", "--data", str(data), "--compare", "--epochs", "1",
                  "--out", str(tmp_path / "report")]):
        assert main([*argv, "--config", str(config)]) == 0, argv[0]


def test_featurize_reads_fault_columns_as_it_reads_fault_objects(small_world, tmp_path):
    """Fault columns and the same faults as ``FaultSample`` objects give one
    dataset and one features file.  Their (day, slot) keys interleave, so the
    store's tables must follow the first-seen order, not the sorted one."""
    net, snaps = small_world["network"], small_world["snapshots"]
    faults = [f for f in small_world["faults"] if f.day == 1]
    order = np.random.default_rng(5).permutation(len(faults))[:300]
    faults = [dataclasses.replace(faults[i], label=None) if i % 9 == 0 else faults[i]
              for i in order.tolist()]
    seen = list(dict.fromkeys((f.day, f.slot) for f in faults))
    assert seen != sorted(seen)
    columns = int_columns(faults, FAULT_COLUMNS)
    spec = default_feature_spec()
    got = featurize(net, snaps, columns, spec, include_raw=True, synth_fingerprint="fp")
    want = featurize(net, snaps, faults, spec, include_raw=True, synth_fingerprint="fp")
    assert list(columns) == list(FAULT_COLUMNS)         # the caller's dict is kept as it is
    assert_identical_datasets(got, want)
    assert list(got.raw_states) == seen
    assert got.columns["table_index"].tolist() == [seen.index((f.day, f.slot)) for f in faults]
    assert got.columns["label"].tolist() == [-1 if f.label is None else f.label for f in faults]
    persist.save_features(got, tmp_path / "columns.npz")
    persist.save_features(want, tmp_path / "objects.npz")
    assert (tmp_path / "columns.npz").read_bytes() == (tmp_path / "objects.npz").read_bytes()


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=30),
       known=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=10))
def test_key_groups_and_first_missing_match_a_dict(keys, known):
    """``key_groups`` numbers each row's (day, slot) in first-seen order and
    gives each key's first row; ``first_missing`` is the first row whose
    (day, slot) is not in a set."""
    def columns(pairs):
        return {name: np.array([pair[i] for pair in pairs], dtype=np.int64)
                for i, name in enumerate(("day", "slot"))}

    first, group = key_groups(*columns(keys).values())
    places = {}
    assert group.tolist() == [places.setdefault(key, len(places)) for key in keys]
    assert first.tolist() == [keys.index(key) for key in places]
    missing = [row for row, key in enumerate(keys) if key not in set(known)]
    assert persist.first_missing(columns(keys), columns(known)) == (
        missing[0] if missing else None)
