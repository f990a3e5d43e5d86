import json
import os

import numpy as np
import pytest

from gridstab import cli, persist, report
from gridstab.cli import main
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig, build_dataset

from conftest import make_toy_dataset

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


def test_features_round_trip(tmp_path):
    ds = make_toy_dataset(12, seed=1)
    path = tmp_path / "features.jsonl"
    persist.save_features(ds, path)
    loaded = persist.load_features(path)
    assert loaded.feature_spec_hash() == ds.feature_spec_hash()
    for a, b in zip(ds.samples, loaded.samples):
        assert np.array_equal(a.global_vec, b.global_vec)
        assert np.array_equal(a.local.adjacency, b.local.adjacency)
        assert np.array_equal(a.local.node_mask, b.local.node_mask)
        assert a.label == b.label


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
    features = data / "features.jsonl"
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
    code = run_cli("train", "--features", str(data_a / "features.jsonl"),
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
        assert run_cli("train", "--features", str(data / "features.jsonl"),
                       "--variant", "graph", "--train-day", "1", "--epochs", "2",
                       "--seed", "7", "--out", str(ckpt)) in (0, 3)
        csv = root / "eval.csv"
        assert run_cli("eval", "--checkpoint", str(ckpt),
                       "--features", str(data / "features.jsonl"),
                       "--day", "2", "--out", str(csv)) == 0
        return {
            "network": (data / "network.json").read_bytes(),
            "snapshots": (data / "snapshots.jsonl").read_bytes(),
            "faults": (data / "faults.jsonl").read_bytes(),
            "features": (data / "features.jsonl").read_bytes(),
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
    code = run_cli("train", "--features", str(data / "features.jsonl"),
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


def test_cli_deepcnn5_from_features_file_is_a_named_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "1") == 0
    capsys.readouterr()
    code = run_cli("train", "--features", str(data / "features.jsonl"),
                   "--variant", "deepcnn5", "--train-day", "1", "--epochs", "1")
    assert code == 1
    assert "carries no raw states" in capsys.readouterr().err


def test_direct_dataset_determinism():
    cfg = SynthConfig(n_bus=20, days=2, slots_per_day=6, seed=13)
    a = build_dataset(cfg)
    b = build_dataset(cfg)
    assert a[0] == b[0] and a[2] == b[2]
