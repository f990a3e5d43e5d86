import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstab import cli, persist, report
from gridstab.cli import main
from gridstab.features import LocalGraph, featurize
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig, build_dataset

from conftest import assert_identical_datasets, make_toy_dataset

TINY = ["--buses", "24", "--days", "3", "--slots", "8", "--seed", "7"]


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------- round trips

def test_network_round_trip(tmp_path, small_world):
    path = tmp_path / "network.json"
    persist.save_network(small_world["network"], path, "fp")
    loaded, fp = persist.load_network(path)
    assert loaded == small_world["network"] and fp == "fp"


def test_snapshot_round_trip(tmp_path, small_world):
    path = tmp_path / "snaps.jsonl"
    snaps = small_world["snapshots"][:3]
    persist.save_snapshots(snaps, path, "fp")
    loaded, _ = persist.load_snapshots(path)
    for a, b in zip(snaps, loaded):
        assert np.array_equal(a.bus_states, b.bus_states)
        assert np.array_equal(a.element_states, b.element_states)


def test_fault_round_trip(tmp_path, small_world):
    path = tmp_path / "faults.jsonl"
    persist.save_faults(small_world["faults"][:50], path, "fp")
    loaded, _ = persist.load_faults(path)
    assert loaded == small_world["faults"][:50]


def assert_round_trip(ds, path):
    """save -> load gives ``ds`` back exactly; load -> save gives the same bytes."""
    persist.save_features(ds, path)
    loaded = persist.load_features(path)
    assert_identical_datasets(loaded, ds)
    assert loaded.feature_spec_hash() == ds.feature_spec_hash()
    again = path.with_name("again-" + path.name)
    persist.save_features(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    with zipfile.ZipFile(path) as archive:   # no wall-clock time in the file
        assert {i.date_time for i in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    return loaded


def test_features_round_trip(tmp_path):
    ds = make_toy_dataset(12, seed=1)
    for i in (3, 7):
        ds.samples[i].label = None
    rng = np.random.default_rng(1)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(5, 13)) for s in ds.samples}
    # the toy samples' fault_element_id (0) differs from their element_id
    assert any(s.local.fault_element_id != s.element_id for s in ds.samples)
    assert_round_trip(ds, tmp_path / "features.jsonl")   # path is used as given
    assert not (tmp_path / "features.jsonl.npz").exists()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 2 ** 16), raw=st.booleans(),
       data=st.data())
def test_features_round_trip_with_any_sharing(tmp_path_factory, n, seed, raw, data):
    """Round trips stay exact whatever arrays the samples share."""
    ds = make_toy_dataset(n, seed=seed, max_nodes=6)
    base = list(ds.samples)
    picks = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    vec_of, adj_of, mask_of = data.draw(picks), data.draw(picks), data.draw(picks)
    labels = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n))
    for i, s in enumerate(ds.samples):
        s.label = labels[i]
        s.global_vec = base[vec_of[i]].global_vec
        s.local = LocalGraph(adjacency=base[adj_of[i]].local.adjacency,
                             node_features=s.local.node_features,
                             node_mask=base[mask_of[i]].local.node_mask,
                             fault_element_id=s.element_id)
    if raw:
        rng = np.random.default_rng(seed)
        ds.raw_states = {(s.day, s.slot): rng.normal(size=(4, 13)) for s in ds.samples}
    assert_round_trip(ds, tmp_path_factory.mktemp("features") / "features.npz")


def _rewrite_archive(path, drop=(), **replace):
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files if name not in drop}
    arrays.update(replace)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _jsonl_features(path):
    path.write_text(json.dumps({"format_version": 1, "kind": "features"}) + "\n"
                    + json.dumps({"day": 0, "slot": 0, "element_id": 0}) + "\n")


def _header_version(path, version):
    with np.load(path) as archive:
        header = json.loads(str(archive["header"]))
    header["format_version"] = version
    _rewrite_archive(path, header=np.array(json.dumps(header)))


@pytest.mark.parametrize("corrupt,message", [
    (_jsonl_features, "re-run `gridstab featurize`"),
    (lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]), "unreadable"),
    (lambda p: p.write_bytes(b"\x93NUMPY not a zip archive"), "not a features .npz"),
    (lambda p: _rewrite_archive(p, drop=("node_features",)), "lacks arrays ['node_features']"),
    (lambda p: _rewrite_archive(p, local_index=np.array([0, 1, 2, 9])),
     "'local_index' points outside"),
    (lambda p: _header_version(p, 3), "unsupported format_version 3"),
], ids=["format-1-jsonl", "truncated", "not-zip", "missing-array", "bad-index",
        "unknown-version"])
def test_bad_features_file_is_a_format_error(tmp_path, capsys, corrupt, message):
    path = tmp_path / "features.npz"
    persist.save_features(make_toy_dataset(4, seed=5), path)
    corrupt(path)
    with pytest.raises(persist.FormatError, match=re.escape(str(path))) as info:
        persist.load_features(path)
    assert message in str(info.value)
    capsys.readouterr()
    assert run_cli("train", "--features", str(path), "--train-day", "0",
                   "--epochs", "1") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_checkpoint_round_trip_bit_identical_predictions(tmp_path):
    train_ds = make_toy_dataset(60, seed=2)
    result = train("GraphModel", train_ds, train_ds,
                   ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=8,
                               sid_hidden=4),
                   TrainConfig(epochs=2, seed=2, balance=False))
    probe = make_toy_dataset(20, seed=3)
    before = scores_for(result, probe)
    path = tmp_path / "ckpt.json"
    persist.save_checkpoint(result, path)
    loaded = persist.load_checkpoint(path)
    after = scores_for(loaded, probe)
    assert np.array_equal(before, after)
    assert loaded.threshold == result.threshold


def test_unknown_format_version_rejected(tmp_path):
    path = tmp_path / "network.json"
    path.write_text(json.dumps({"format_version": 99, "buses": [], "elements": []}))
    with pytest.raises(persist.FormatError):
        persist.load_network(path)
    jsonl = tmp_path / "faults.jsonl"
    jsonl.write_text(json.dumps({"format_version": 2, "kind": "faults"}) + "\n")
    with pytest.raises(persist.FormatError):
        persist.load_faults(jsonl)


def test_artifacts_begin_with_format_version(tmp_path, small_world):
    persist.save_network(small_world["network"], tmp_path / "n.json")
    doc = json.loads((tmp_path / "n.json").read_text())
    assert "format_version" in doc
    persist.save_faults(small_world["faults"][:5], tmp_path / "f.jsonl")
    first = json.loads((tmp_path / "f.jsonl").read_text().splitlines()[0])
    assert first["format_version"] == persist.FORMAT_VERSION


# -------------------------------------------------------------------- CLI

def test_cli_synth_featurize_train_eval(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    for name in ("network.json", "snapshots.jsonl", "faults.jsonl"):
        assert (data / name).exists()

    assert run_cli("featurize", "--data", str(data)) == 0
    features = data / "features.npz"
    assert features.exists()

    ckpt = tmp_path / "ckpt.json"
    code = run_cli("train", "--features", str(features), "--data", str(data),
                   "--variant", "graph", "--train-day", "1", "--epochs", "2",
                   "--seed", "7", "--out", str(ckpt))
    assert code in (0, 3)
    assert ckpt.exists() and ckpt.with_suffix(".history.csv").exists()

    out_csv = tmp_path / "eval.csv"
    assert run_cli("eval", "--checkpoint", str(ckpt), "--features", str(features),
                   "--day", "2", "--out", str(out_csv)) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "date,threshold,kkd,ryd,ysl,acc"


def test_cli_baseline_and_ablate(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("baseline", "--data", str(data), "--baseline", "prevday",
                   "--train-day", "1", "--eval-day", "2") == 0
    code = run_cli("ablate", "--data", str(data), "--train-day", "1",
                   "--eval-day", "2", "--epochs", "2", "--seed", "7",
                   "--out", str(tmp_path / "ablate.csv"))
    assert code == 0
    rows = (tmp_path / "ablate.csv").read_text().splitlines()
    assert len(rows) == 5   # header + full, no-global, no-local, no-graph
    assert [r.split(",")[0] for r in rows[1:]] == [
        "full", "no-global", "no-local", "no-graph"]


def test_cli_missing_inputs_exit_code(tmp_path):
    assert run_cli("featurize", "--data", str(tmp_path / "nope")) == 1


def test_cli_fingerprint_mismatch(tmp_path):
    data_a, data_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", str(data_a), *TINY) == 0
    assert run_cli("synth", "--out", str(data_b), "--buses", "24", "--days", "3",
                   "--slots", "8", "--seed", "8") == 0
    assert run_cli("featurize", "--data", str(data_a)) == 0
    code = run_cli("train", "--features", str(data_a / "features.npz"),
                   "--data", str(data_b), "--variant", "graph",
                   "--train-day", "1", "--epochs", "1")
    assert code == 1


def test_cli_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"bogus_key": 1}}))
    assert run_cli("synth", "--out", str(tmp_path / "d"), "--config", str(cfg)) == 1
    cfg.write_text(json.dumps({"mystery_section": {}}))
    assert run_cli("synth", "--out", str(tmp_path / "d"), "--config", str(cfg)) == 1


def test_cli_rerun_byte_identical(tmp_path):
    """Same config + seed reproduces byte-identical artifacts end to end."""
    def produce(root):
        data = root / "data"
        assert run_cli("synth", "--out", str(data), *TINY) == 0
        assert run_cli("featurize", "--data", str(data)) == 0
        ckpt = root / "ckpt.json"
        assert run_cli("train", "--features", str(data / "features.npz"),
                       "--variant", "graph", "--train-day", "1", "--epochs", "2",
                       "--seed", "7", "--out", str(ckpt)) in (0, 3)
        csv = root / "eval.csv"
        assert run_cli("eval", "--checkpoint", str(ckpt),
                       "--features", str(data / "features.npz"),
                       "--day", "2", "--out", str(csv)) == 0
        return {
            "network": (data / "network.json").read_bytes(),
            "snapshots": (data / "snapshots.jsonl").read_bytes(),
            "faults": (data / "faults.jsonl").read_bytes(),
            "features": (data / "features.npz").read_bytes(),
            "checkpoint": ckpt.read_bytes(),
            "eval": csv.read_bytes(),
        }

    a = produce(tmp_path / "run1")
    b = produce(tmp_path / "run2")
    for key in a:
        assert a[key] == b[key], f"{key} differs between identical runs"


def test_cli_train_and_calibration_slices_are_disjoint_and_match_report(
        tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "1") == 0
    seen = {}
    real_train = cli.train

    def spy(variant, train_ds, cal_ds, *rest):
        seen["train"] = {s.fault_key for s in train_ds.samples}
        seen["cal"] = {s.fault_key for s in cal_ds.samples}
        return real_train(variant, train_ds, cal_ds, *rest)

    monkeypatch.setattr(cli, "train", spy)
    code = run_cli("train", "--features", str(data / "features.npz"),
                   "--train-day", "1", "--epochs", "1", "--seed", "7",
                   "--out", str(tmp_path / "ckpt.json"))
    assert code in (0, 3)
    assert seen["train"] and seen["cal"]
    assert not seen["train"] & seen["cal"]

    bundle = cli._bundle_from_dir(data, report.ExperimentConfig())
    pair = report.prepare_day_pair(bundle, 1, 2)
    cut = report.day_cut(bundle.config.synth.slots_per_day, bundle.config.calibration_frac)
    assert seen["cal"] == {s.fault_key for s in pair.cal_ds.samples}
    assert seen["train"] == {f"d{f.day}s{f.slot}e{f.element_id}"
                             for f in bundle.faults_of(1, 0, cut)}
    assert {s.fault_key for s in pair.train_ds.samples} <= seen["train"]


@pytest.mark.parametrize("corrupt,violation", [
    (lambda states: states[3].__setitem__(0, float("nan")), "non-finite-state"),
    (lambda states: states.pop(), "bus-state-shape"),
], ids=["nan-state", "missing-bus-row"])
def test_cli_featurize_rejects_bad_snapshot(tmp_path, capsys, corrupt, violation):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    path = data / "snapshots.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[5])
    corrupt(doc["bus_states"])
    lines[5] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert violation in err
    assert "Traceback" not in err


def _featurize_dir(data, days, include_raw):
    network, snapshots, faults, fp = cli._load_dataset_dir(data)
    cfg = report.ExperimentConfig()
    return featurize(network, snapshots, [f for f in faults if f.day in days],
                     report.default_feature_spec(cfg.feature_regions),
                     max_nodes=cfg.max_nodes, include_raw=include_raw,
                     synth_fingerprint=fp)


def test_cli_deepcnn5_from_features_file_is_a_named_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    path = tmp_path / "no_raw.npz"
    persist.save_features(_featurize_dir(data, {1}, include_raw=False), path)
    capsys.readouterr()
    code = run_cli("train", "--features", str(path),
                   "--variant", "deepcnn5", "--train-day", "1", "--epochs", "1")
    assert code == 1
    assert "carries no raw states" in capsys.readouterr().err


def test_cli_deepcnn5_trains_from_features_file(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "1,2") == 0
    features = data / "features.npz"
    ckpt = tmp_path / "cnn.json"
    code = run_cli("train", "--features", str(features), "--variant", "deepcnn5",
                   "--train-day", "1", "--epochs", "1", "--seed", "7", "--out", str(ckpt))
    assert code in (0, 3)
    result = persist.load_checkpoint(ckpt)
    assert result.variant == "DeepCnn5"
    from_file = scores_for(result, persist.load_features(features))
    in_memory = scores_for(result, _featurize_dir(data, {1, 2}, include_raw=True))
    assert from_file.tobytes() == in_memory.tobytes()


@pytest.mark.parametrize("corrupt,violation", [
    (lambda doc: doc["elements"][0].__setitem__("to_bus", len(doc["buses"]) + 3),
     "dangling-endpoint"),
    (lambda doc: doc["buses"].append(dict(doc["buses"][0], id=len(doc["buses"]))),
     "disconnected-graph"),
], ids=["dangling-endpoint", "disconnected-bus"])
def test_cli_featurize_rejects_bad_network(tmp_path, capsys, corrupt, violation):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    path = data / "network.json"
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert violation in err and str(path) in err
    assert "Traceback" not in err


def test_direct_dataset_determinism():
    cfg = SynthConfig(n_bus=20, days=2, slots_per_day=6, seed=13)
    a = build_dataset(cfg)
    b = build_dataset(cfg)
    assert a[0] == b[0] and a[2] == b[2]


def _corrupt_jsonl_line(path, index, corrupt):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    corrupt(doc)
    lines[index] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_network(path, corrupt):
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name,corrupt,message", [
    ("snapshots.jsonl",
     lambda p: _corrupt_jsonl_line(p, 5, lambda doc: doc.pop("slot")),
     "line 6: missing field 'slot'"),
    ("faults.jsonl",
     lambda p: _corrupt_jsonl_line(p, 3, lambda doc: doc.__setitem__("label", "Maybe")),
     "line 4: unknown label 'Maybe'"),
    ("network.json",
     lambda p: _corrupt_network(p, lambda doc: doc["buses"][2].__setitem__("colour", 1)),
     "buses[2]: "),
], ids=["snapshot-without-slot", "fault-label-maybe", "unknown-bus-field"])
def test_cli_malformed_dataset_file_is_a_format_error(tmp_path, capsys, name, corrupt,
                                                      message):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    corrupt(data / name)
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert f"{data / name}: {message}" in err
    assert "Traceback" not in err
    assert not (data / "features.npz").exists()


def test_cli_featurize_days_without_data_writes_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY, "--days", "2") == 0
    capsys.readouterr()
    out = tmp_path / "features.npz"
    assert run_cli("featurize", "--data", str(data), "--days", "9",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "days [9]" in err and "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------ model config and heads

def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_ablate_with_rawcnn_encoder(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    config = _write_config(tmp_path / "cfg.json", {"model": {"global_encoder": "rawcnn"}})
    assert run_cli("ablate", "--config", config, "--data", str(data), "--train-day", "1",
                   "--eval-day", "2", "--epochs", "1", "--seed", "7") == 0


def test_daily_report_with_rawcnn_encoder():
    cfg = report.ExperimentConfig(synth=SynthConfig(n_bus=24, days=2, slots_per_day=8,
                                                    seed=7))
    cfg.model.global_encoder = "rawcnn"
    cfg.train.epochs = 1
    rows = report.daily_report(report.build_bundle(cfg), "model", variant="GraphModel")
    assert [row["date"] for row in rows] == [1]


@pytest.mark.parametrize("model,field", [
    ({"pool": "avg"}, "pool"),
    ({"mlp_hidden": []}, "mlp_hidden"),
    ({"gcn_hidden": 0}, "gcn_hidden"),
], ids=["pool-avg", "empty-mlp-hidden", "zero-gcn-hidden"])
@pytest.mark.parametrize("command", ["ablate", "report"])
def test_cli_rejects_bad_model_config(tmp_path, capsys, monkeypatch, command, model, field):
    def no_featurize(*args, **kwargs):
        raise AssertionError("featurize ran")

    monkeypatch.setattr(report, "featurize", no_featurize)
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    config = _write_config(tmp_path / "cfg.json", {"model": model})
    pair = ["--train-day", "1", "--eval-day", "2"] if command == "ablate" else []
    capsys.readouterr()
    assert run_cli(command, "--config", config, "--data", str(data), *pair) == 1
    err = capsys.readouterr().err
    assert f"{config}: config section 'model': {field}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoint")
    data = root / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "1,2") == 0
    ckpt = root / "ckpt.json"
    assert run_cli("train", "--features", str(data / "features.npz"), "--train-day", "1",
                   "--epochs", "1", "--seed", "7", "--out", str(ckpt)) in (0, 3)
    return ckpt, data / "features.npz"


def _drop_layer(doc, name):
    doc["layers"] = [layer for layer in doc["layers"] if layer["name"] != name]


def _shrink(doc, key, name):
    entry = next(entry for entry in doc[key] if entry["name"] == name)
    entry["shape"][0] -= 1
    entry["data"] = entry["data"][:-1]


@pytest.mark.parametrize("corrupt,messages", [
    (lambda doc: doc["config"].__setitem__("bogus", 1), ["{path}: config: ", "'bogus'"]),
    (lambda doc: _drop_layer(doc, "l2_w"), ["checkpoint lacks parameter 'l2_w'"]),
    (lambda doc: doc.pop("threshold"), ["{path}: checkpoint: missing field 'threshold'"]),
    (lambda doc: doc.__setitem__("feature_spec_hash", "0" * 16), ["feature_spec_hash"]),
    (lambda doc: _shrink(doc, "layers", "out_w"),
     ["checkpoint parameter 'out_w' has shape (", "expected ("]),
    (lambda doc: _shrink(doc, "scalers", "global_mu"),
     ["checkpoint scaler 'global_mu' has shape (", "expected ("]),
], ids=["unknown-config-key", "missing-layer", "missing-threshold", "feature-hash",
        "wrong-shape-out-w", "wrong-shape-global-mu"])
def test_cli_eval_rejects_bad_checkpoint(tmp_path, capsys, trained_checkpoint, corrupt,
                                         messages):
    ckpt, features = trained_checkpoint
    doc = json.loads(ckpt.read_text())
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(path), "--features", str(features),
                   "--day", "2") == 1
    err = capsys.readouterr().err
    for message in messages:
        assert message.format(path=path) in err
    assert "Traceback" not in err


BAD_SETTINGS = {
    "max-nodes-0": ({"feature": {"max_nodes": 0}}, "config section 'feature': max_nodes"),
    "max-nodes-negative": ({"feature": {"max_nodes": -3}},
                           "config section 'feature': max_nodes"),
    "max-nodes-float": ({"feature": {"max_nodes": 2.5}}, "config section 'feature': max_nodes"),
    "regions-negative": ({"feature": {"regions": -1}}, "config section 'feature': regions"),
    "calibration-frac-0": ({"eval": {"calibration_frac": 0}},
                           "config section 'eval': calibration_frac"),
    "calibration-frac-1": ({"eval": {"calibration_frac": 1.0}},
                           "config section 'eval': calibration_frac"),
    "batch-size-0": ({"train": {"batch_size": 0}}, "config section 'train': batch_size"),
    "lr-negative": ({"train": {"lr": -0.1}}, "config section 'train': lr"),
    "target-kkd-120": ({"eval": {"target_kkd": 120}}, "config section 'train': target_kkd"),
    "seed-negative": ({"train": {"seed": -1}}, "config section 'train': seed"),
}


@pytest.mark.parametrize("command,doc,flags,message", [
    *(pytest.param(command, doc, [], message, id=f"{command}-{name}")
      for command in ("featurize", "train") for name, (doc, message) in BAD_SETTINGS.items()),
    pytest.param("train", {}, ["--epochs", "-1"], "config section 'train': epochs",
                 id="train-epochs-flag-negative"),
])
def test_cli_rejects_bad_run_settings(tmp_path, capsys, trained_checkpoint, command,
                                      doc, flags, message):
    _, features = trained_checkpoint
    config = _write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    argv = {"featurize": ["--data", str(features.parent)],
            "train": ["--features", str(features), "--train-day", "1"]}[command]
    capsys.readouterr()
    assert run_cli(command, "--config", config, "--out", str(out), *argv, *flags) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_eval_rejects_non_finite_threshold(tmp_path, capsys, trained_checkpoint, value):
    ckpt, features = trained_checkpoint
    out = tmp_path / "eval.csv"
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(ckpt), "--features", str(features),
                   "--day", "2", f"--threshold={value}", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "--threshold must be a finite number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
