import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstab import cli, persist, report
from gridstab.cli import main
from gridstab.features import (
    FAULT_COLUMNS, LocalGraph, default_feature_spec, featurize, int_columns,
)
from gridstab.model import ModelConfig, TrainConfig, scores_for, train
from gridstab.synth import SynthConfig, build_dataset

from conftest import (
    assert_identical_datasets, assert_same_values, make_toy_dataset, with_samples,
)

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
    """The loaded snapshots hold build_dataset's keys and exact state bytes;
    saving them again gives the same archive."""
    path = tmp_path / "snapshots.npz"
    snaps = small_world["snapshots"]
    persist.save_snapshots(snaps, path, "fp")
    loaded, fp = persist.load_snapshots(path, small_world["network"])
    assert fp == "fp" and len(loaded) == len(snaps)
    for a, b in zip(snaps, loaded):
        assert (a.day, a.slot) == (b.day, b.slot)
        assert a.bus_states.dtype == b.bus_states.dtype == np.float64
        assert a.bus_states.tobytes() == b.bus_states.tobytes()
        assert a.element_states.tobytes() == b.element_states.tobytes()
    again = tmp_path / "again.npz"
    persist.save_snapshots(loaded, again, "fp")
    assert again.read_bytes() == path.read_bytes()


def test_fault_round_trip(tmp_path, small_world):
    path = tmp_path / "faults.npz"
    faults = [dataclasses.replace(f, label=None) if i % 7 == 0 else f
              for i, f in enumerate(small_world["faults"])]
    persist.save_faults(faults, path, "fp")
    loaded, fp = persist.load_faults(path, small_world["network"])
    assert fp == "fp"
    want = int_columns(faults, FAULT_COLUMNS)       # label -1 where it was None
    assert list(loaded) == list(FAULT_COLUMNS)
    for name, column in want.items():
        assert loaded[name].dtype == np.int64 and np.array_equal(loaded[name], column), name


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


# sha256 of the features file of day 1 of the small world, with raw states,
# as written when each line's template was built as its own arrays and then
# stacked, and each raw state was a copy of its snapshot's bus states.
SMALL_WORLD_DAY1_FEATURES_SHA = (
    "5bb79454d344ac27ec3f1933d6a1cc4425a2e53b00640fe8bbbdf1fe68c3fa52")


def test_featurized_file_bytes_are_pinned(tmp_path, small_world):
    faults = [f for f in small_world["faults"] if f.day == 1]
    ds = featurize(small_world["network"], small_world["snapshots"], faults,
                   default_feature_spec(), include_raw=True)
    path = tmp_path / "features.npz"
    persist.save_features(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_WORLD_DAY1_FEATURES_SHA


def test_features_round_trip(tmp_path):
    toy = make_toy_dataset(12, seed=1)
    samples = toy.samples
    for i in (3, 7):
        samples[i].label = None
    ds = with_samples(toy, samples)
    assert [s.label for s in ds.samples].count(None) == 2
    rng = np.random.default_rng(1)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(5, 13)) for s in ds.samples}
    assert_round_trip(ds, tmp_path / "features.jsonl")   # path is used as given
    assert not (tmp_path / "features.jsonl.npz").exists()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 2 ** 16), raw=st.booleans(),
       data=st.data())
def test_features_round_trip_with_any_sharing(tmp_path_factory, n, seed, raw, data):
    """Round trips stay exact whatever arrays the hand-built samples share."""
    toy = make_toy_dataset(n, seed=seed, max_nodes=6)
    samples = toy.samples
    base = list(samples)
    picks = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    vec_of, adj_of, mask_of = data.draw(picks), data.draw(picks), data.draw(picks)
    labels = data.draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n))
    for i, s in enumerate(samples):
        s.label = labels[i]
        s.global_vec = base[vec_of[i]].global_vec
        s.local = LocalGraph(adjacency=base[adj_of[i]].local.adjacency,
                             node_features=s.local.node_features,
                             node_mask=base[mask_of[i]].local.node_mask,
                             fault_element_id=s.element_id)
    ds = with_samples(toy, samples)
    # the builder keeps every value of the samples, not the arrays they share
    assert_same_values(ds, SimpleNamespace(
        spec=toy.spec, n_elements=toy.n_elements, max_nodes=toy.max_nodes,
        synth_fingerprint=toy.synth_fingerprint, samples=samples, raw_states={}))
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


def _poison(path, name, value):
    """Write ``value`` into the first entry of array ``name``."""
    with np.load(path) as archive:
        array = archive[name].copy()
    array.flat[0] = value
    _rewrite_archive(path, **{name: array})


def _set_header(path, key, value):
    """Set ``key`` of the archive's JSON header to ``value``; ``...`` drops it."""
    with np.load(path) as archive:
        header = json.loads(str(archive["header"]))
    header[key] = value
    if value is ...:
        del header[key]
    _rewrite_archive(path, header=np.array(json.dumps(header)))


def _header_version(path, version):
    _set_header(path, "format_version", version)


def _set_spec_entry(path, entry):
    with np.load(path) as archive:
        spec = json.loads(str(archive["header"]))["spec"]
    _set_header(path, "spec", [entry, *spec[1:]])


@pytest.mark.parametrize("corrupt,message", [
    (_jsonl_features, "re-run `gridstab featurize`"),
    (lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]), "unreadable"),
    (lambda p: p.write_bytes(b"\x93NUMPY not a zip archive"), "not a features .npz"),
    (lambda p: _rewrite_archive(p, drop=("tables",)), "lacks arrays ['tables']"),
    (lambda p: _rewrite_archive(p, template_index=np.array([0, 1, 2, 9])),
     "'template_index' points outside"),
    (lambda p: _header_version(p, 5), "unsupported format_version 5"),
    (lambda p: _header_version(p, 2), "re-run `gridstab featurize`"),
    (lambda p: _header_version(p, 3), "re-run `gridstab featurize`"),
    (lambda p: _rewrite_archive(p, rows=np.full((4, 8), 9)), "'rows' points outside"),
    (lambda p: _poison(p, "tables", np.nan), "array 'tables' holds non-finite values"),
    (lambda p: _poison(p, "global_vecs", np.inf),
     "array 'global_vecs' holds non-finite values"),
    (lambda p: _poison(p, "tables", -np.inf), "array 'tables' holds non-finite values"),
    (lambda p: _poison(p, "label", 7), "array 'label' holds values other than (-1, 0, 1)"),
    (lambda p: _set_header(p, "n_elements", ...), "header: missing field 'n_elements'"),
    (lambda p: _set_header(p, "n_elements", "x"),
     "header: n_elements must be an integer >= 1, not 'x'"),
    (lambda p: _set_header(p, "n_elements", 0),
     "header: n_elements must be an integer >= 1, not 0"),
    (lambda p: _poison(p, "element_id", 6),
     "header: n_elements must be greater than every element_id (6), not 6"),
    (lambda p: _poison(p, "element_id", -1), "array 'element_id' must hold ids >= 0, not -1"),
    (lambda p: _set_header(p, "max_nodes", "8"),
     "header: max_nodes must be an integer >= 1, not '8'"),
    (lambda p: _set_header(p, "spec", {}), "header: spec must be a list, not {}"),
    (lambda p: _set_spec_entry(p, 5),
     "header: spec[0] must be a [quantity, stat, range_kind, region] list, not 5"),
    (lambda p: _set_spec_entry(p, ["P_G", "Foo", "grid", None]),
     "header: spec[0] stat must be one of ['Interq', 'Kurt', "),
], ids=["format-1-jsonl", "truncated", "not-zip", "missing-array", "bad-index",
        "unknown-version", "format-2", "format-3", "bad-rows", "nan-table", "inf-global",
        "minus-inf-table", "unknown-label", "missing-n-elements", "string-n-elements",
        "zero-n-elements", "element-id-past-n-elements", "negative-element-id",
        "string-max-nodes", "spec-object", "spec-entry-number", "unknown-stat"])
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


def test_unknown_format_version_rejected(tmp_path, small_world):
    path = tmp_path / "network.json"
    path.write_text(json.dumps({"format_version": 99, "buses": [], "elements": []}))
    with pytest.raises(persist.FormatError):
        persist.load_network(path)
    faults = tmp_path / "faults.npz"
    for version, message in ((99, "unsupported format_version 99"),
                             (1, "re-run `gridstab synth`")):
        persist.save_faults(small_world["faults"][:5], faults)
        _header_version(faults, version)
        with pytest.raises(persist.FormatError, match=re.escape(message)):
            persist.load_faults(faults, small_world["network"])
    faults.write_text(json.dumps({"format_version": 1, "kind": "faults"}) + "\n")
    with pytest.raises(persist.FormatError, match="JSON faults file from an older release"):
        persist.load_faults(faults, small_world["network"])


def test_artifacts_begin_with_format_version(tmp_path, small_world):
    persist.save_network(small_world["network"], tmp_path / "n.json")
    doc = json.loads((tmp_path / "n.json").read_text())
    assert "format_version" in doc
    persist.save_snapshots(small_world["snapshots"][:2], tmp_path / "s.npz")
    persist.save_faults(small_world["faults"][:5], tmp_path / "f.npz")
    for kind, arrays in (("snapshots", ["day", "slot", "bus_states", "element_states"]),
                         ("faults", ["day", "slot", "element_id", "label"])):
        path = tmp_path / f"{kind[0]}.npz"
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == [f"{n}.npy" for n in ["header", *arrays]]
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as archive:
            header = json.loads(str(archive["header"]))
        assert (header["format_version"], header["kind"]) == (persist.DATASET_VERSION, kind)


# -------------------------------------------------------------------- CLI

def test_cli_synth_featurize_train_eval(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert sorted(p.name for p in data.iterdir()) == [
        "faults.npz", "network.json", "snapshots.npz"]

    assert run_cli("featurize", "--data", str(data)) == 0
    features = data / "features.npz"
    assert features.exists()

    ckpt = tmp_path / "ckpt.json"
    code = run_cli("train", "--features", str(features), "--data", str(data),
                   "--variant", "graph", "--train-day", "1", "--epochs", "2",
                   "--seed", "7", "--out", str(ckpt))
    assert code == 0
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
                       "--seed", "7", "--out", str(ckpt)) == 0
        csv = root / "eval.csv"
        assert run_cli("eval", "--checkpoint", str(ckpt),
                       "--features", str(data / "features.npz"),
                       "--day", "2", "--out", str(csv)) == 0
        return {
            "network": (data / "network.json").read_bytes(),
            "snapshots": (data / "snapshots.npz").read_bytes(),
            "faults": (data / "faults.npz").read_bytes(),
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
    assert code == 0
    assert seen["train"] and seen["cal"]
    assert not seen["train"] & seen["cal"]

    bundle = cli._bundle_from_dir(data, report.ExperimentConfig())
    pair = report.prepare_day_pair(bundle, 1, 2)
    slots = 1 + max(s.slot for s in bundle.snapshots if s.day == 1)
    cut = report.day_cut(slots, bundle.config.calibration_frac)
    assert seen["cal"] == {s.fault_key for s in pair.cal_ds.samples}
    day1 = bundle.faults_of(1)
    keys = zip(*(day1[name].tolist() for name in ("day", "slot", "element_id")))
    assert seen["train"] == {f"d{d}s{s}e{e}" for d, s, e in keys if s < cut}
    assert {s.fault_key for s in pair.train_ds.samples} <= seen["train"]


def _edit_arrays(path, change):
    """Apply ``change`` to the dict of the arrays of the ``.npz`` archive at
    ``path`` (its header included) and write them back in order."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    change(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _set_state(index, row, column, value):
    """A change that writes ``value`` into one bus state of snapshot ``index``."""
    return lambda arrays: arrays["bus_states"].__setitem__((index, row, column), value)


def _restack_states(stack):
    """A change that replaces the bus-state stack by ``stack(bus_states)``."""
    return lambda arrays: arrays.__setitem__("bus_states", stack(arrays["bus_states"]))


@pytest.mark.parametrize("corrupt,violation", [
    (_set_state(5, 3, 0, np.nan), "snapshot day 0 slot 5: non-finite-state: bus_states"),
    (_restack_states(lambda states: states[:, :-1]), "snapshot day 0 slot 0: bus-state-shape"),
], ids=["nan-state", "missing-bus-row"])
def test_cli_featurize_rejects_bad_snapshot(tmp_path, capsys, corrupt, violation):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    _edit_arrays(data / "snapshots.npz", corrupt)
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert f"snapshots.npz: {violation}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("corrupt,snapshot,violation", [
    (_restack_states(lambda states: np.concatenate([states, states[:, :1]], axis=1)),
     (0, 0), "bus-state-shape: bus_states expected (24, 13), got (25, 13)"),
    (_restack_states(lambda states: np.pad(states, ((0, 0), (0, 0), (0, 1)))),
     (0, 0), "bus-state-shape: bus_states expected (24, 13), got (24, 14)"),
    (_set_state(-1, 2, 4, np.nan), (2, 7), "non-finite-state: bus_states"),
], ids=["extra-bus-row", "extra-state-column", "nan-state"])
@pytest.mark.parametrize("command", ["featurize", "train"])
def test_cli_validates_snapshots_at_load(tmp_path, capsys, corrupt, snapshot, violation,
                                         command):
    """A bad snapshot fails when the dataset is loaded, even on a day the
    command does not featurize.  A wrong shape is every snapshot's, so the
    first snapshot is named."""
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "0") == 0
    features = data / "features.npz"
    _edit_arrays(data / "snapshots.npz", corrupt)
    out = tmp_path / "out"
    argv = {
        "featurize": ["featurize", "--data", str(data), "--days", "0", "--out", str(out)],
        "train": ["train", "--features", str(features), "--data", str(data),
                  "--train-day", "0", "--epochs", "1", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    day, slot = snapshot
    assert f"snapshots.npz: snapshot day {day} slot {slot}: {violation}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def _featurize_dir(data, days, include_raw):
    network, snapshots, faults, fp = cli._load_dataset_dir(data)
    cfg = report.ExperimentConfig()
    keep = np.isin(faults["day"], list(days))
    faults = {name: column[keep] for name, column in faults.items()}
    return featurize(network, snapshots, faults,
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


def _drop_first_raw_state(arrays):
    for name in ("raw_keys", "raw_states"):
        arrays[name] = arrays[name][1:]


def _repeat_third_raw_state(arrays):
    for name in ("raw_keys", "raw_states"):
        arrays[name] = np.concatenate([arrays[name], arrays[name][2:3]])


@pytest.mark.parametrize("change,message", [
    (_drop_first_raw_state, "array 'raw_keys' lacks the (day, slot) = (0, 0) of sample 0"),
    (_repeat_third_raw_state,
     "'raw_keys' row 4 repeats the (day, slot) = (0, 2) of 'raw_keys' row 2"),
], ids=["missing", "repeated"])
def test_cli_raw_states_must_hold_each_sample_snapshot_once(tmp_path, capsys, small_world,
                                                            change, message):
    """A features file whose raw states miss a sample's (day, slot), or
    repeat one, is a named error when loaded, not a KeyError in training or
    a silently dropped row."""
    faults = [f for f in small_world["faults"] if f.day == 0 and f.slot < 4]
    path = tmp_path / "features.npz"
    persist.save_features(featurize(small_world["network"], small_world["snapshots"],
                                    faults, report.default_feature_spec(), include_raw=True),
                          path)
    _edit_arrays(path, change)
    with pytest.raises(persist.FormatError, match=re.escape(f"{path}: {message}")):
        persist.load_features(path)
    capsys.readouterr()
    assert run_cli("train", "--features", str(path), "--variant", "deepcnn5",
                   "--train-day", "0", "--epochs", "1") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_deepcnn5_trains_from_features_file(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    assert run_cli("featurize", "--data", str(data), "--days", "1,2") == 0
    features = data / "features.npz"
    ckpt = tmp_path / "cnn.json"
    code = run_cli("train", "--features", str(features), "--variant", "deepcnn5",
                   "--train-day", "1", "--epochs", "1", "--seed", "7", "--out", str(ckpt))
    assert code == 0
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
    (lambda doc: doc["elements"][3].__setitem__("rating", 0), "non-positive-rating: element 3"),
    (lambda doc: doc["elements"][0].__setitem__("rating", -5),
     "non-positive-rating: element 0"),
], ids=["dangling-endpoint", "disconnected-bus", "zero-rating", "negative-rating"])
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


def _set_entry(name, index, value):
    return lambda arrays: arrays[name].__setitem__(index, value)


def _retype(name, dtype):
    return lambda arrays: arrays.__setitem__(name, arrays[name].astype(dtype))


def _repeat_row(source, target):
    """A change that overwrites row ``target`` of every array but the header
    with row ``source``."""
    def change(arrays):
        for name, array in arrays.items():
            if name != "header":
                array[target] = array[source]
    return change


def _corrupt_network(path, corrupt):
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name,corrupt,message", [
    ("snapshots.npz", lambda p: _edit_arrays(p, lambda arrays: arrays.pop("slot")),
     "snapshots archive lacks arrays ['slot']"),
    ("faults.npz", lambda p: _edit_arrays(p, _set_entry("label", 3, 2)),
     "array 'label' holds values other than (-1, 0, 1)"),
    ("network.json",
     lambda p: _corrupt_network(p, lambda doc: doc["buses"][2].__setitem__("colour", 1)),
     "buses[2]: "),
    ("faults.npz", lambda p: _edit_arrays(p, _repeat_row(3, 4)),
     "fault 4 repeats the (day, slot, element_id) = "),
    ("network.json",
     lambda p: _corrupt_network(p, lambda doc: doc["buses"][0].__setitem__("voltage_mag", "x")),
     "buses[0]: voltage_mag must be a finite number, not 'x'"),
    ("network.json",
     lambda p: _corrupt_network(p, lambda doc: doc["buses"][0].__setitem__("degree", "x")),
     "buses[0]: degree must be an integer, not 'x'"),
    ("network.json",
     lambda p: _corrupt_network(p, lambda doc: doc["elements"][1].__setitem__("to_bus", True)),
     "elements[1]: to_bus must be an integer, not True"),
    ("snapshots.npz", lambda p: _edit_arrays(p, _retype("bus_states", str)),
     "array 'bus_states' has dtype <U"),
    ("snapshots.npz", lambda p: _edit_arrays(p, _retype("day", str)),
     "array 'day' has dtype <U"),
    ("faults.npz", lambda p: _edit_arrays(p, _retype("slot", float)),
     "array 'slot' has dtype float64"),
    ("faults.npz", lambda p: _edit_arrays(p, _retype("element_id", float)),
     "array 'element_id' has dtype float64"),
    ("faults.npz", lambda p: _edit_arrays(p, _retype("element_id", bool)),
     "array 'element_id' has dtype bool"),
    ("snapshots.npz", lambda p: _edit_arrays(p, _set_entry("slot", 1, 0)),
     "snapshot 1 repeats the (day, slot) = (0, 0) of snapshot 0"),
    ("faults.npz", lambda p: _edit_arrays(p, lambda arrays: arrays.__setitem__(
        "label", arrays["label"][:-1])), "arrays ['day', 'element_id', 'label', 'slot'] "
                                         "must hold one row per fault"),
    ("faults.npz", lambda p: _edit_arrays(p, _set_entry("element_id", 0, 1)),
     "array 'element_id' names element 1 in fault 0, which is not an AC line"),
    ("faults.npz", lambda p: _edit_arrays(p, _set_entry("element_id", 5, 10 ** 6)),
     "array 'element_id' names element 1000000 in fault 5, which is not an AC line"),
    ("snapshots.npz", lambda p: _edit_arrays(p, _set_entry(
        "element_states", (2, 0, 1), np.inf)),
     "snapshot day 0 slot 2: non-finite-state: element_states"),
    ("snapshots.npz", lambda p: _edit_arrays(p, lambda arrays: arrays.__setitem__(
        "element_states", arrays["element_states"][:, :-1])),
     "snapshot day 0 slot 0: element-state-shape: element_states expected ("),
    ("faults.npz", lambda p: _edit_arrays(p, _set_entry("day", 0, 9)),
     "fault 0 names day 9 slot 0, with no snapshot in snapshots.npz"),
    ("faults.npz", lambda p: _edit_arrays(p, lambda arrays: arrays.__setitem__(
        "day", np.full(len(arrays["day"]), 2 ** 63, dtype=np.uint64))),
     "array 'day' holds values past the int64 range"),
], ids=["snapshot-without-slot", "fault-label-maybe", "unknown-bus-field",
        "repeated-fault-row", "string-voltage", "string-degree", "bool-endpoint",
        "string-in-bus-states", "string-day", "float-slot", "float-element-id",
        "bool-element-id", "repeated-snapshot", "short-label-array", "fault-on-transformer",
        "fault-on-unknown-element", "inf-element-state", "missing-element-row",
        "fault-without-snapshot", "fault-day-past-int64"])
def test_cli_malformed_dataset_file_is_a_format_error(tmp_path, capsys, name, corrupt,
                                                      message):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    network, _ = persist.load_network(data / "network.json")
    assert network.elements[1].kind == "Transformer"     # fault-on-transformer's
    corrupt(data / name)
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert f"{data / name}: {message}" in err
    assert "Traceback" not in err
    assert not (data / "features.npz").exists()


@pytest.mark.parametrize("corrupt", [
    lambda path: path.write_text("nope"),
    lambda path: path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2]),
    lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes()),
], ids=["not-json", "truncated", "not-utf8"])
def test_cli_unreadable_network_json_names_the_file(tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    corrupt(data / "network.json")
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data)) == 1
    err = capsys.readouterr().err
    assert f"error: {data / 'network.json'}: unreadable network JSON (" in err
    assert "Traceback" not in err
    assert not (data / "features.npz").exists()


@pytest.mark.parametrize("kind", ["snapshots", "faults"])
def test_cli_jsonl_dataset_directory_is_a_format_error(tmp_path, capsys, kind):
    """A dataset directory of an older release, with a JSON-lines file in
    place of an archive, names that file and the command that rewrites it."""
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    (data / f"{kind}.npz").unlink()
    old = data / f"{kind}.jsonl"
    old.write_text(json.dumps({"format_version": 1, "kind": kind}) + "\n")
    out = tmp_path / "features.npz"
    capsys.readouterr()
    assert run_cli("featurize", "--data", str(data), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert (f"{old}: JSON-lines {kind} file from an older release; re-run `gridstab synth` "
            f"to write {kind}.npz") in err
    assert "Traceback" not in err and not out.exists()


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


@pytest.mark.parametrize("days,entry", [("1,x", "'x'"), ("0,,1", "''"), ("1.5", "'1.5'")])
def test_cli_featurize_names_a_bad_days_entry_before_loading(
        tmp_path, capsys, monkeypatch, days, entry):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    loaded = []
    monkeypatch.setattr(cli, "_load_dataset_dir", lambda path: loaded.append(path))
    capsys.readouterr()
    out = tmp_path / "features.npz"
    assert run_cli("featurize", "--data", str(data), "--days", days,
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "--days" in err and f"{entry} is not a day number" in err
    assert "Traceback" not in err
    assert loaded == [] and not out.exists()


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
    rows, compared = report.daily_report(report.build_bundle(cfg), "GraphModel")
    assert [row["date"] for row in rows] == [1] and compared == []


@pytest.mark.parametrize("balance", [True, False])
def test_report_pairs_follow_train_balance(monkeypatch, balance):
    """``train.balance`` decides whether a report pair's training view is
    balanced, and a model of the pair trains on that view."""
    cfg = report.ExperimentConfig(synth=SynthConfig(n_bus=24, days=2, slots_per_day=8,
                                                    seed=7))
    cfg.train.balance, cfg.train.epochs = balance, 1
    bundle = report.build_bundle(cfg)
    pair = report.prepare_day_pair(bundle, 0, 1)
    unstable = int(np.count_nonzero(pair.fit_ds.labels()))
    assert 0 < 2 * unstable < len(pair.fit_ds)
    assert len(pair.train_ds) == (2 * unstable if balance else len(pair.fit_ds))
    trained_on = []
    real = report.train

    def recording_train(variant, train_set, *rest):
        trained_on.append(len(train_set))
        return real(variant, train_set, *rest)

    monkeypatch.setattr(report, "train", recording_train)
    report.run_system(bundle, pair, "MlpOnly")
    assert trained_on == [len(pair.train_ds)]


# name -> (the faults to unlabel, run config, report flags)
UNLABELED_PROBES = {
    "compare-day-2-unstable": (lambda f: (f["day"] == 2) & (f["label"] == 1), {},
                               ["--compare"]),
    "graph-unbalanced-day-0": (lambda f: np.flatnonzero(f["day"] == 0)[:5],
                               {"train": {"balance": False}}, ["--variant", "graph"]),
}


@pytest.mark.parametrize("probe", sorted(UNLABELED_PROBES))
def test_report_names_unlabeled_faults_instead_of_reading_them_as_stable(
        tmp_path, capsys, probe):
    """An unlabeled fault (label -1) is never fitted, calibrated or counted as
    a stable one: the run exits 1 naming how many there are and the first."""
    pick, config, flags = UNLABELED_PROBES[probe]
    data = tmp_path / "data"
    assert run_cli("synth", "--out", str(data), "--buses", "24", "--days", "3",
                   "--seed", "3") == 0
    network, _ = persist.load_network(data / "network.json")
    faults, fp = persist.load_faults(data / "faults.npz", network)
    rows = np.arange(len(faults["day"]))[pick(faults)]
    faults["label"][rows] = -1
    persist.save_faults(faults, data / "faults.npz", fp)
    config = _write_config(tmp_path / "cfg.json", config)
    capsys.readouterr()
    assert run_cli("report", "--data", str(data), "--config", config, "--epochs", "3",
                   "--out", str(tmp_path / "out"), *flags) == 1
    err = capsys.readouterr().err
    first = (faults[name][rows[0]] for name in ("day", "slot", "element_id"))
    assert f"error: {len(rows)} of " in err and "faults are unlabeled" in err
    assert "the first day {} slot {} element {}".format(*first) in err
    assert "Traceback" not in err


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
                   "--epochs", "1", "--seed", "7", "--out", str(ckpt)) == 0
    return ckpt, data / "features.npz"


def _edit_checkpoint(change):
    """A corruption that applies ``change(header, arrays)`` to a checkpoint
    archive and writes it back."""
    def corrupt(path):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(str(arrays.pop("header")))
        change(header, arrays)
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), **arrays)
    return corrupt


def _set(key, value):
    return _edit_checkpoint(lambda header, arrays: header.__setitem__(key, value))


def _set_array(key, convert):
    return _edit_checkpoint(
        lambda header, arrays: arrays.__setitem__(key, convert(arrays[key])))


def _json_checkpoint(path):
    path.write_text(json.dumps({"format_version": 1, "variant": "GraphModel",
                                "layers": [], "scalers": []}) + "\n")


BAD_CHECKPOINTS = {
    "unknown-config-key": (
        _edit_checkpoint(lambda header, arrays: header["config"].__setitem__("bogus", 1)),
        ["{path}: config: ", "'bogus'"]),
    "missing-layer": (_edit_checkpoint(lambda header, arrays: arrays.pop("params/l2_w")),
                      ["checkpoint lacks parameter 'l2_w'"]),
    "missing-threshold": (_edit_checkpoint(lambda header, arrays: header.pop("threshold")),
                          ["{path}: checkpoint: missing field 'threshold'"]),
    "feature-hash": (_set("feature_spec_hash", "0" * 16), ["feature_spec_hash"]),
    "wrong-shape-out-w": (_set_array("params/out_w", lambda a: a[:-1]),
                          ["checkpoint parameter 'out_w' has shape (", "expected ("]),
    "wrong-shape-global-mu": (_set_array("scalers/global_mu", lambda a: a[:-1]),
                              ["checkpoint scaler 'global_mu' has shape (", "expected ("]),
    "nan-parameter": (_set_array("params/out_b", lambda a: np.full_like(a, np.nan)),
                      ["{path}: checkpoint: params/out_b holds non-finite values"]),
    "int-parameter": (_set_array("params/out_b", lambda a: a.astype(np.int64)),
                      ["{path}: checkpoint: params/out_b has dtype int64"]),
    "string-parameter": (_set_array("params/l1_w", lambda a: a.astype(str)),
                         ["{path}: checkpoint: params/l1_w has dtype <U"]),
    "nan-threshold": (_set("threshold", float("nan")),
                      ["{path}: checkpoint: threshold must be a finite number"]),
    "string-threshold": (_set("threshold", "x"),
                         ["{path}: checkpoint: threshold must be a finite number"]),
    "bool-threshold": (_set("threshold", True),
                       ["{path}: checkpoint: threshold must be a finite number"]),
    "negative-best-epoch": (_set("best_epoch", -1),
                            ["{path}: checkpoint: best_epoch must be an integer >= 0"]),
    "unknown-variant": (_set("variant", "Transformer"),
                        ["{path}: checkpoint: variant must be a known model variant"]),
    "missing-config-field": (
        _edit_checkpoint(lambda header, arrays: header["config"].pop("gcn_hidden")),
        ["{path}: config: missing field 'gcn_hidden'"]),
    "stray-array": (_edit_checkpoint(lambda header, arrays: arrays.__setitem__(
        "extra", np.zeros(1))), ["{path}: checkpoint: unexpected array 'extra'"]),
    "json-format-1": (_json_checkpoint,
                      ["{path}: JSON checkpoint file from an older release",
                       "re-run `gridstab train`"]),
}


@pytest.mark.parametrize("corrupt,messages", list(BAD_CHECKPOINTS.values()),
                         ids=list(BAD_CHECKPOINTS))
def test_cli_eval_rejects_bad_checkpoint(tmp_path, capsys, trained_checkpoint, corrupt,
                                         messages):
    ckpt, features = trained_checkpoint
    path = tmp_path / "bad.npz"
    path.write_bytes(ckpt.read_bytes())
    corrupt(path)
    out = tmp_path / "eval.csv"
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(path), "--features", str(features),
                   "--day", "2", "--out", str(out)) == 1
    captured = capsys.readouterr()
    for message in messages:
        assert message.format(path=path) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["featurize", "train", "eval", "baseline", "ablate"])
def test_cli_a_missing_output_directory_stops_before_any_work(
        tmp_path, monkeypatch, trained_checkpoint, command):
    """An output file whose directory is missing is named before any input
    is loaded or anything is featurized or trained."""
    ckpt, features = trained_checkpoint
    data = features.parent
    work = []
    for module, name in ((cli, "_load_dataset_dir"), (cli, "featurize"), (cli, "train"),
                         (persist, "load_features"), (persist, "load_checkpoint"),
                         (report, "featurize"), (report, "train")):
        monkeypatch.setattr(module, name, lambda *args, _name=name, **kw: work.append(_name))
    pair = ["--data", str(data), "--train-day", "1", "--eval-day", "2"]
    argv = {"featurize": ["--data", str(data)],
            "train": ["--features", str(features), "--train-day", "1"],
            "eval": ["--features", str(features), "--checkpoint", str(ckpt), "--day", "2"],
            "baseline": [*pair, "--baseline", "mlp"],
            "ablate": pair}[command]
    out = tmp_path / "missing" / "out.csv"
    err = _rejects(command, *argv, out=out)
    assert f"error: --out {out}: directory {out.parent} does not exist" in err
    assert work == []


def test_cli_report_makes_its_out_directory_first(tmp_path, monkeypatch):
    out = tmp_path / "reports" / "today"
    made = []

    def load(data_dir):
        made.append(out.is_dir())
        raise cli.CliError("stop")

    monkeypatch.setattr(cli, "_load_dataset_dir", load)
    assert run_cli("report", "--data", str(tmp_path / "data"), "--out", str(out)) == 1
    assert made == [True]


def test_cli_eval_rejects_non_finite_scores(tmp_path, capsys, monkeypatch,
                                            trained_checkpoint):
    ckpt, features = trained_checkpoint
    real = cli.scores_for

    def one_infinite(result, ds):
        scores = real(result, ds)
        scores[3] = np.inf
        return scores

    monkeypatch.setattr(cli, "scores_for", one_infinite)
    out = tmp_path / "eval.csv"
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(ckpt), "--features", str(features),
                   "--day", "2", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert f"{ckpt}: 1 of 176 scores on day 2 of {features} are not finite" in captured.err
    assert captured.out == "" and not out.exists()


def test_checkpoint_archive_layout(tmp_path, trained_checkpoint):
    """Header first, then every parameter and every scaler in name order,
    as float64; loading and saving again gives the same bytes."""
    ckpt, _ = trained_checkpoint
    assert ckpt.read_bytes()[:4] == b"PK\x03\x04"
    result = persist.load_checkpoint(ckpt)
    with zipfile.ZipFile(ckpt) as archive:
        names = [info.filename for info in archive.infolist()]
        assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    assert names == (["header.npy"]
                     + [f"params/{name}.npy" for name in sorted(result.params)]
                     + [f"scalers/{name}.npy" for name in sorted(result.scalers)])
    with np.load(ckpt) as archive:
        header = json.loads(str(archive["header"]))
    assert (header["format_version"], header["kind"]) == (persist.CHECKPOINT_VERSION,
                                                          "checkpoint")
    assert "calibration_feasible" not in header and result.calibration_feasible
    assert not {"gcn_layers", "embed_dim"} & set(header["config"])
    again = tmp_path / "again.json"   # written at the path as given
    persist.save_checkpoint(result, again)
    assert again.read_bytes() == ckpt.read_bytes()


def test_cli_train_writes_checkpoint_npz_by_default(monkeypatch, tmp_path,
                                                    trained_checkpoint):
    _, features = trained_checkpoint
    monkeypatch.chdir(tmp_path)
    assert run_cli("train", "--features", str(features), "--train-day", "1",
                   "--epochs", "0", "--seed", "7") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.history.csv", "checkpoint.npz"]
    assert persist.load_checkpoint(tmp_path / "checkpoint.npz").best_epoch == 0


@pytest.mark.parametrize("variant", ["graph", "mlp"])
def test_cli_train_refuses_variant_with_ablate(monkeypatch, tmp_path, capsys,
                                               trained_checkpoint, variant):
    """``--variant`` and ``--ablate`` each name the model: given both, the
    usage error exits 2 before anything is written, also when ``--variant``
    names the default."""
    _, features = trained_checkpoint
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--features", str(features), "--train-day", "1", "--epochs", "0",
                "--variant", variant, "--ablate", "global")
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field", ["gcn_layers", "embed_dim"])
def test_cli_rejects_removed_model_fields(tmp_path, capsys, field):
    """The GCN depth and the embedding width are fixed, not config fields."""
    config = _write_config(tmp_path / "cfg.json", {"model": {field: 3}})
    capsys.readouterr()
    assert run_cli("synth", "--config", config, "--out", str(tmp_path / "d"), *TINY) == 1
    err = capsys.readouterr().err
    assert f"unknown keys in config section 'model': ['{field}']" in err
    assert "Traceback" not in err and not (tmp_path / "d").exists()


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
    "target-kkd-120": ({"eval": {"target_kkd": 120}}, "config section 'eval': target_kkd"),
    "seed-negative": ({"train": {"seed": -1}}, "config section 'train': seed"),
    "train-target-kkd": ({"train": {"target_kkd": 95}},
                         "unknown keys in config section 'train': ['target_kkd']"),
}

BAD_SYNTH = {
    "n-bus-string": ({"synth": {"n_bus": "ten"}}, "config section 'synth': n_bus"),
    "days-float": ({"synth": {"days": 2.5}}, "config section 'synth': days"),
    "slots-bool": ({"synth": {"slots_per_day": True}},
                   "config section 'synth': slots_per_day"),
    "seed-float": ({"synth": {"seed": 1.0}}, "config section 'synth': seed"),
    "rate-string": ({"synth": {"target_unstable_rate": "0.1"}},
                    "config section 'synth': target_unstable_rate"),
    "noise-null": ({"synth": {"noise_amp": None}}, "config section 'synth': noise_amp"),
    "ar-coeff-list": ({"synth": {"ar_coeff": [0.5]}}, "config section 'synth': ar_coeff"),
    "weights-list": ({"synth": {"oracle_weights": [0.45, 0.25, 0.3]}},
                     "config section 'synth': oracle_weights"),
    "weight-string": ({"synth": {"oracle_weights": {
        "local_overload": "0.45", "global_stress": 0.25, "latent": 0.3}}},
        "config section 'synth': oracle_weights"),
    "n-bus-small": ({"synth": {"n_bus": 5}}, "config section 'synth': n_bus"),
    "noise-past-float-range": ({"synth": {"noise_amp": 10 ** 400}},
                               "config section 'synth': noise_amp"),
}


@pytest.mark.parametrize("command,doc,flags,message", [
    *(pytest.param(command, doc, [], message, id=f"{command}-{name}")
      for command in ("featurize", "train", "synth")
      for name, (doc, message) in BAD_SETTINGS.items()),
    *(pytest.param("synth", doc, [], message, id=f"synth-{name}")
      for name, (doc, message) in BAD_SYNTH.items()),
    pytest.param("train", {}, ["--epochs", "-1"], "config section 'train': epochs",
                 id="train-epochs-flag-negative"),
    pytest.param("train", {}, ["--target-kkd", "120"], "config section 'eval': target_kkd",
                 id="train-target-kkd-flag-120"),
])
def test_cli_rejects_bad_run_settings(tmp_path, capsys, trained_checkpoint, command,
                                      doc, flags, message):
    _, features = trained_checkpoint
    config = _write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    argv = {"featurize": ["--data", str(features.parent)],
            "train": ["--features", str(features), "--train-day", "1"],
            "synth": []}[command]
    capsys.readouterr()
    assert run_cli(command, "--config", config, "--out", str(out), *argv, *flags) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[]", "{path}: a config must be a JSON object, not an array"),
    ('{"synth": []}', "{path}: config section 'synth' must be a JSON object, not an array"),
    ('{"synth": null}', "{path}: config section 'synth' must be a JSON object, not null"),
    ('{"feature": []}', "{path}: config section 'feature' must be a JSON object, not an array"),
    ("not json", "{path}: unreadable JSON config (Expecting value: line 1 column 1 (char 0))"),
    ('{"train": {"balance": "no"}}',
     "config section 'train': balance must be true or false, not 'no'"),
    ('{"train": {"positive_class_only_loss": 2}}',
     "config section 'train': positive_class_only_loss must be true or false, not 2"),
    ('{"model": {"gcn_final_relu": "yes"}}',
     "{path}: config section 'model': gcn_final_relu must be true or false, not 'yes'"),
], ids=["root-list", "section-list", "section-null", "feature-list", "not-json",
        "balance-string", "loss-flag-int", "final-relu-string"])
def test_cli_rejects_a_malformed_config(tmp_path, capsys, text, message):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("synth", "--config", str(config), "--out", str(out), *TINY) == 1
    captured = capsys.readouterr()
    assert message.format(path=config) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("doc,message", [
    ({"eval": {"target_kkd": 120}},
     "config section 'eval': target_kkd must be a number in [0, 100], not 120"),
    ({"train": {"epochs": -1}}, "config section 'train': epochs must be an integer >= 0, "
                                "not -1"),
    ({"feature": {"max_nodes": 0}}, "config section 'feature': max_nodes must be an "
                                    "integer >= 1, not 0"),
    ({"synth": {"oracle_weights": {"latent": 1.0}}},
     "config section 'synth': oracle_weights must be an object that maps"),
    ({"model": {"mlp_hidden": [200, 0]}},
     "config section 'model': mlp_hidden must be a non-empty list of positive integers, "
     "not [200, 0]"),
    ({"train": {"bogus": 1}}, "unknown keys in config section 'train': ['bogus']"),
    ({"bogus": {}}, "unknown config sections: ['bogus']"),
], ids=["eval", "train", "feature", "synth", "model", "unknown-key", "unknown-section"])
def test_a_config_error_names_the_file_and_the_section(tmp_path, capsys, doc, message):
    config = _write_config(tmp_path / "cfg.json", doc)
    capsys.readouterr()
    assert run_cli("synth", "--config", config, "--out", str(tmp_path / "out"), *TINY) == 1
    assert f"error: {config}: {message}" in capsys.readouterr().err


# ------------------------------------------------------- text input fuzz

def _base_config():
    """Every config field at its default, on a tiny world.  ``target_kkd`` is
    a key of the eval section only."""
    cfg = report.ExperimentConfig(synth=SynthConfig(n_bus=24, days=3, slots_per_day=8,
                                                    seed=7))
    train = dataclasses.asdict(cfg.train)
    return {"synth": dataclasses.asdict(cfg.synth), "model": dataclasses.asdict(cfg.model),
            "train": {key: value for key, value in train.items() if key != "target_kkd"},
            "feature": {"regions": cfg.feature_regions, "max_nodes": cfg.max_nodes},
            "eval": {"target_kkd": cfg.train.target_kkd,
                     "calibration_frac": cfg.calibration_frac}}


def _dumps(value, repeat=None, key=None) -> str:
    """The JSON text of ``value``, in which the object ``repeat`` (the same
    object, not an equal one) lists its ``key`` twice."""
    if isinstance(value, dict):
        items = [*value.items(), *([(key, value[key])] if value is repeat else [])]
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v, repeat, key)}"
                               for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(v, repeat, key) for v in value) + "]"
    return json.dumps(value)


def _wrong_type(value):
    return 5 if value is None or isinstance(value, str) else "x"


def _field_mutations(draw, value):
    """The values that replace a field holding ``value``: a wrong type, NaN
    or an infinity, null (unless the field holds null) and, for an object,
    a list."""
    values = [_wrong_type(value), draw(st.sampled_from([math.nan, math.inf, -math.inf]))]
    if value is not None:
        values.append(None)
    if isinstance(value, dict):
        values.append(list(value.values()))
    return values


def _mutate_config(path, draw):
    """Write a config with one field or one section mutated, one field
    repeated, or cut short; return the names the message must hold."""
    doc = _base_config()
    kind = draw(st.sampled_from(["field", "section", "repeat-key", "truncate"]))
    section = draw(st.sampled_from(sorted(doc)))
    field = draw(st.sampled_from(sorted(doc[section])))
    names = [f"{path}: unreadable JSON config"]
    if kind == "field":
        doc[section][field] = draw(st.sampled_from(_field_mutations(draw, doc[section][field])))
        names = [field]
    elif kind == "section":
        doc[section] = draw(st.sampled_from([list(doc[section].values()), None, 5]))
        names = [repr(section)]
    elif kind == "repeat-key":
        names = [f"{path}: unreadable JSON config (repeated keys [{field!r}])"]
    text = _dumps(doc, doc[section] if kind == "repeat-key" else None, field)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    path.write_text(text)
    return names


def _mutate_network(path, draw):
    """Rewrite ``network.json`` with one record field, one record or the
    file's end mutated, or one record field repeated; return the names the
    message must hold."""
    doc = json.loads(path.read_text())
    kind = draw(st.sampled_from(["field", "list", "repeat", "repeat-key", "rating",
                                 "truncate"]))
    key = "elements" if kind == "rating" else draw(st.sampled_from(["buses", "elements"]))
    i = draw(st.integers(0, len(doc[key]) - 1))
    record = doc[key][i]
    field = draw(st.sampled_from(sorted(record)))
    if kind == "field":
        record[field] = draw(st.sampled_from(_field_mutations(draw, record[field])))
        names = [f"{key}[{i}]: {field} must be"]
    elif kind == "list":
        doc[key][i] = list(record.values())
        names = [f"{key}[{i}]: "]
    elif kind == "repeat":
        doc[key].append(dict(record))
        names = [f"duplicate-{'bus' if key == 'buses' else 'element'}-id: {record['id']}"]
    elif kind == "repeat-key":
        names = [f"unreadable network JSON (repeated keys [{field!r}])"]
    elif kind == "rating":
        record["rating"] = draw(st.sampled_from([0, 0.0, -5, -1e-9]))
        names = [f"non-positive-rating: element {record['id']}"]
    text = _dumps(doc, record if kind == "repeat-key" else None, field)
    if kind == "truncate":
        text, names = text[:draw(st.integers(0, len(text) - 1))], ["unreadable network JSON"]
    path.write_text(text)
    return names


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("dataset") / "data"
    assert run_cli("synth", "--out", str(data), *TINY) == 0
    return data


@settings(max_examples=80, deadline=None)
@given(target=st.sampled_from(["config", "network"]), data=st.data())
def test_a_mutated_text_input_is_named(tiny_dataset, target, data):
    """One field of a config or of ``network.json`` gets a wrong type, null,
    a list for an object, NaN or an infinity; or one field or one record is
    repeated, one rating is not positive, or the file is cut short.  ``synth`` (for the
    config) or ``featurize`` (for the network) exits 1 with the file and the
    field in the message, no traceback and no output."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target == "config":
            bad = tmp / "cfg.json"
            names = _mutate_config(bad, data.draw)
            err = _rejects("synth", "--config", str(bad), out=tmp / "out")
        else:
            dataset = tmp / "data"
            shutil.copytree(tiny_dataset, dataset)
            bad = dataset / "network.json"
            names = _mutate_network(bad, data.draw)
            err = _rejects("featurize", "--data", str(dataset), out=tmp / "features.npz")
    assert target == "config" or str(bad) in err, err
    assert all(name in err for name in names), (names, err)


def test_a_repeated_key_is_named(tmp_path, tiny_dataset):
    """JSON keeps the last of two equal keys; both readers reject the file
    instead, naming it and the key."""
    config = tmp_path / "cfg.json"
    config.write_text('{"train": {"epochs": -1, "epochs": 1}}')
    err = _rejects("synth", "--config", str(config), *TINY, out=tmp_path / "out")
    assert f"{config}: unreadable JSON config (repeated keys ['epochs'])" in err
    dataset = tmp_path / "data"
    shutil.copytree(tiny_dataset, dataset)
    network = dataset / "network.json"
    doc = json.loads(network.read_text())
    network.write_text(_dumps(doc, doc["elements"][3], "rating"))
    err = _rejects("featurize", "--data", str(dataset), out=tmp_path / "features.npz")
    assert f"{network}: unreadable network JSON (repeated keys ['rating'])" in err


def test_python_dash_m_gridstab_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path]) if path else src)
    done = subprocess.run([sys.executable, "-m", "gridstab", "synth", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: gridstab synth")


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


# ------------------------------------------------------- archive loader fuzz

def _rewrite_member(src, dst, entry, change):
    """Copy the ``.npz`` archive ``src`` to ``dst`` with the bytes of member
    ``entry`` passed through ``change``; a ``None`` result drops it."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            if info.filename == f"{entry}.npy":
                data = change(data)
                if data is None:
                    continue
            zout.writestr(info.filename, data)


def _wrong_dtypes(array):
    """Dtypes no loader accepts for an entry of ``array``'s kind."""
    kind = array.dtype.kind
    if kind == "U":                  # the JSON header
        return [np.float64, np.int64, np.bool_]
    wrong = [np.complex128, np.str_, np.int64 if kind == "b" else np.bool_]
    if kind == "i":
        wrong.append(np.float64)
    if kind == "f":
        wrong.append(np.int64)
    return wrong


def _wrong_shapes(array):
    if array.ndim == 0:
        return [np.stack([array, array]), array[None]]
    shapes = [array[:-1], array[..., None]]
    if array.ndim >= 2:
        shapes.append(array[..., :-1])
    return shapes


def _array_change(data, mutation, draw):
    """``draw``n mutation of the .npy bytes ``data``: the array with a wrong
    dtype, a NaN or infinity in its first entry, or a wrong shape."""
    array = np.load(io.BytesIO(data), allow_pickle=False)
    if mutation == "dtype":
        dtype = draw(st.sampled_from(_wrong_dtypes(array)))
        # The header's JSON text converts to no number, so it is replaced.
        array = np.ones((), dtype) if array.dtype.kind == "U" else array.astype(dtype)
    elif mutation in ("nan", "inf"):
        value = np.nan if mutation == "nan" else draw(st.sampled_from([np.inf, -np.inf]))
        array = array.astype(np.float64) if array.dtype.kind != "U" else np.array(0.0)
        array.flat[0] = value
    else:
        array = draw(st.sampled_from(_wrong_shapes(array)))
    out = io.BytesIO()
    np.save(out, array)
    return out.getvalue()


def _member_names(path):
    with zipfile.ZipFile(path) as archive:
        return [name.removesuffix(".npy") for name in archive.namelist()]


def _rejects(*argv, out):
    """Run the CLI and return its stderr, asserting exit 1, no standard
    output and no output file ``out``."""
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        code = run_cli(*argv, "--out", str(out))
    assert code == 1 and stdout.getvalue() == "" and not out.exists()
    assert "Traceback" not in err.getvalue()
    return err.getvalue()


def _eval_rejects(ckpt, features, out):
    return _rejects("eval", "--checkpoint", str(ckpt), "--features", str(features),
                    "--day", "2", out=out)


DATASET_FILES = ("network.json", "snapshots.npz", "faults.npz")


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["checkpoint", "features", "snapshots", "faults"]),
       mutation=st.sampled_from(["dtype", "nan", "inf", "shape", "missing", "truncated"]),
       data=st.data())
def test_eval_names_the_file_and_entry_of_a_mutated_archive(trained_checkpoint, kind,
                                                            mutation, data):
    """One entry of a valid checkpoint, features, snapshots or faults archive
    gets a wrong dtype, a NaN, an infinity or a wrong shape, is dropped, or
    is cut short: ``eval`` (or ``featurize``, for the dataset archives) exits
    1 with the file and the entry in the message."""
    ckpt, features = trained_checkpoint
    src = {"checkpoint": ckpt, "features": features}.get(kind, features.parent / f"{kind}.npz")
    entry = data.draw(st.sampled_from(_member_names(src)), label="entry")
    if mutation == "missing":
        change = lambda raw: None                                      # noqa: E731
    elif mutation == "truncated":
        change = lambda raw: raw[:data.draw(st.integers(0, len(raw) - 1))]  # noqa: E731
    else:
        change = lambda raw: _array_change(raw, mutation, data.draw)   # noqa: E731
    with tempfile.TemporaryDirectory() as tmp:
        if kind in ("snapshots", "faults"):
            dataset = Path(tmp) / "data"
            dataset.mkdir()
            for name in DATASET_FILES:
                shutil.copy(features.parent / name, dataset)
            bad = dataset / f"{kind}.npz"
            _rewrite_member(src, bad, entry, change)
            err = _rejects("featurize", "--data", str(dataset), out=Path(tmp) / "f.npz")
        else:
            bad = Path(tmp) / f"bad-{kind}.npz"
            _rewrite_member(src, bad, entry, change)
            err = _eval_rejects(bad if kind == "checkpoint" else ckpt,
                                bad if kind == "features" else features,
                                Path(tmp) / "eval.csv")
    assert str(bad) in err, err
    names = {entry, entry.partition("/")[2]} - {""}
    assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) for name in names), err


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["checkpoint", "features"]), cut=st.floats(0.0, 0.999))
def test_eval_rejects_a_truncated_archive(trained_checkpoint, kind, cut):
    ckpt, features = trained_checkpoint
    src = ckpt if kind == "checkpoint" else features
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / f"bad-{kind}.npz"
        raw = src.read_bytes()
        bad.write_bytes(raw[:int(cut * len(raw))])
        err = _eval_rejects(bad if kind == "checkpoint" else ckpt,
                            bad if kind == "features" else features, Path(tmp) / "eval.csv")
    assert str(bad) in err, err
