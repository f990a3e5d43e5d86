"""On-disk formats: network JSON, snapshot/fault JSONL, the features
archive, model checkpoints and report CSVs.

Every artifact carries a ``format_version``; loaders reject versions they
do not understand.  JSON floats are written with Python's shortest-roundtrip
repr, so identical inputs reproduce byte-identical files.

The features file (format_version 2) is an uncompressed ``.npz`` archive of
columnar arrays: per-sample ``day``, ``slot``, ``element_id``, ``label``
(-1 for unlabeled), ``fault_element_id`` and ``node_features``; one
``global_vecs`` row and one ``adjacency``/``node_mask`` pair per distinct
shared array, indexed per sample by ``global_index`` and ``local_index``;
optional ``raw_keys``/``raw_states`` per (day, slot); and the JSON ``header``
(spec, spec hash, sizes, fingerprint) as a 0-d string array.  It is read
with ``allow_pickle=False`` and stores floats as their exact bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .features import (
    NODE_FEATURES, FeatureField, FeaturizedDataset, FeaturizedSample,
    GlobalFeatureSpec, LocalGraph, StatKind,
)
from .grid import (
    LABEL_NAMES, LABEL_VALUES, Bus, Element, FaultSample, GridError, Network,
    Snapshot, validate_network,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def _check_version(doc, path, version: int = FORMAT_VERSION) -> None:
    v = doc.get("format_version") if isinstance(doc, dict) else None
    if v != version:
        raise FormatError(f"{path}: unsupported format_version {v!r}")


@contextmanager
def _entry(path, where: str):
    """Re-raise a missing field or a malformed value read inside the block
    as a :class:`FormatError` naming the file and ``where`` in it."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: {where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {where}: {exc}") from exc


def fingerprint(obj) -> str:
    """Stable short hash of a config-like object."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    payload = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- network

def save_network(network: Network, path, synth_fingerprint: str = "") -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "synth_fingerprint": synth_fingerprint,
        "buses": [dataclasses.asdict(b) for b in network.buses],
        "elements": [dataclasses.asdict(e) for e in network.elements],
    }
    Path(path).write_text(_dump(doc) + "\n")


def _records(doc: dict, key: str, cls, path) -> tuple:
    """One ``cls`` per entry of the list ``doc[key]``."""
    with _entry(path, key):
        entries = list(doc[key])
    records = []
    for i, entry in enumerate(entries):
        with _entry(path, f"{key}[{i}]"):
            records.append(cls(**entry))
    return tuple(records)


def load_network(path) -> tuple[Network, str]:
    doc = json.loads(Path(path).read_text())
    _check_version(doc, path)
    network = Network(buses=_records(doc, "buses", Bus, path),
                      elements=_records(doc, "elements", Element, path))
    errors = validate_network(network)
    if errors:
        raise GridError(f"{path}: invalid network: " + "; ".join(errors))
    return network, doc.get("synth_fingerprint", "")


# -------------------------------------------------------------- snapshots

def save_snapshots(snapshots, path, synth_fingerprint: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(_dump({
            "format_version": FORMAT_VERSION, "kind": "snapshots",
            "synth_fingerprint": synth_fingerprint,
        }) + "\n")
        for s in snapshots:
            fh.write(_dump({
                "day": s.day, "slot": s.slot,
                "bus_states": s.bus_states.tolist(),
                "element_states": s.element_states.tolist(),
            }) + "\n")


def load_snapshots(path) -> tuple[list[Snapshot], str]:
    snapshots = []
    with open(path) as fh:
        header = json.loads(fh.readline())
        _check_version(header, path)
        for lineno, line in enumerate(fh, start=2):
            with _entry(path, f"line {lineno}"):
                doc = json.loads(line)
                snapshots.append(Snapshot(
                    day=doc["day"], slot=doc["slot"],
                    bus_states=np.array(doc["bus_states"]),
                    element_states=np.array(doc["element_states"]),
                ))
    return snapshots, header.get("synth_fingerprint", "")


# ----------------------------------------------------------------- faults

def save_faults(faults, path, synth_fingerprint: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(_dump({
            "format_version": FORMAT_VERSION, "kind": "faults",
            "synth_fingerprint": synth_fingerprint,
        }) + "\n")
        for f in faults:
            fh.write(_dump({
                "day": f.day, "slot": f.slot, "element_id": f.element_id,
                "label": LABEL_NAMES[f.label] if f.label is not None else None,
            }) + "\n")


def load_faults(path) -> tuple[list[FaultSample], str]:
    faults = []
    with open(path) as fh:
        header = json.loads(fh.readline())
        _check_version(header, path)
        for lineno, line in enumerate(fh, start=2):
            with _entry(path, f"line {lineno}"):
                doc = json.loads(line)
                label = doc["label"]
                if label is not None and label not in LABEL_VALUES:
                    raise ValueError(f"unknown label {label!r}")
                faults.append(FaultSample(
                    day=doc["day"], slot=doc["slot"], element_id=doc["element_id"],
                    label=LABEL_VALUES[label] if label is not None else None,
                ))
    return faults, header.get("synth_fingerprint", "")


# --------------------------------------------------------------- features

FEATURES_VERSION = 2
_ZIP_MAGIC = b"PK\x03\x04"
_PER_SAMPLE_INTS = ("day", "slot", "element_id", "label", "fault_element_id",
                    "global_index", "local_index")
_PER_SAMPLE = _PER_SAMPLE_INTS + ("node_features",)
_FEATURE_ARRAYS = ("header",) + _PER_SAMPLE + ("global_vecs", "adjacency", "node_mask")
_RAW_ARRAYS = ("raw_keys", "raw_states")


def _spec_to_doc(spec: GlobalFeatureSpec) -> list:
    return [[f.quantity, f.stat.value, f.range_kind, f.region] for f in spec.fields]


def _spec_from_doc(doc: list) -> GlobalFeatureSpec:
    return GlobalFeatureSpec(fields=tuple(
        FeatureField(q, StatKind(s), rk, reg) for q, s, rk, reg in doc
    ))


def _dedupe(items: list, key) -> tuple[list, np.ndarray]:
    """Distinct items by ``key`` in first-seen order, and each item's index
    into them."""
    slot: dict = {}
    distinct = []
    index = np.empty(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        k = key(item)
        if k not in slot:
            slot[k] = len(distinct)
            distinct.append(item)
        index[i] = slot[k]
    return distinct, index


def _stack(arrays: list, tail: tuple, dtype=np.float64) -> np.ndarray:
    return np.stack(arrays) if arrays else np.zeros((0, *tail), dtype=dtype)


def save_features(dataset: FeaturizedDataset, path) -> None:
    """Write ``dataset`` as a columnar ``.npz`` archive at exactly ``path``.

    Shared arrays are stored once: one ``global_vecs`` row per distinct
    global vector object and one ``adjacency``/``node_mask`` pair per
    distinct pair of objects, each with a per-sample index.  Sharing is
    decided by object identity, so hand-built samples that share nothing
    round-trip exactly too.
    """
    samples = dataset.samples
    m = dataset.max_nodes
    vecs, global_index = _dedupe([s.global_vec for s in samples], id)
    graphs, local_index = _dedupe(
        [s.local for s in samples], lambda g: (id(g.adjacency), id(g.node_mask)))
    arrays = {
        "header": np.array(_dump({
            "format_version": FEATURES_VERSION, "kind": "features",
            "synth_fingerprint": dataset.synth_fingerprint,
            "feature_spec_hash": dataset.feature_spec_hash(),
            "spec": _spec_to_doc(dataset.spec),
            "n_elements": dataset.n_elements,
            "max_nodes": m,
        })),
        "day": np.array([s.day for s in samples], dtype=np.int64),
        "slot": np.array([s.slot for s in samples], dtype=np.int64),
        "element_id": np.array([s.element_id for s in samples], dtype=np.int64),
        "label": np.array([-1 if s.label is None else s.label for s in samples],
                          dtype=np.int64),
        "fault_element_id": np.array([s.local.fault_element_id for s in samples],
                                     dtype=np.int64),
        "global_index": global_index,
        "local_index": local_index,
        "node_features": _stack([s.local.node_features for s in samples],
                                (m, NODE_FEATURES)),
        "global_vecs": _stack(vecs, (dataset.global_dim,)),
        "adjacency": _stack([g.adjacency for g in graphs], (m, m)),
        "node_mask": _stack([g.node_mask for g in graphs], (m,), bool),
    }
    if dataset.raw_states:
        arrays["raw_keys"] = np.array(list(dataset.raw_states), dtype=np.int64)
        arrays["raw_states"] = np.stack(list(dataset.raw_states.values()))
    # An open handle keeps np.savez from appending ".npz" to the path; zip
    # entries carry the fixed 1980 timestamp, so reruns are byte-identical.
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **arrays)


def _read_feature_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_ZIP_MAGIC))
    if magic.startswith(b"{"):
        raise FormatError(
            f"{path}: JSON features file from an older release; re-run "
            f"`gridstab featurize` to write format_version {FEATURES_VERSION}")
    if magic != _ZIP_MAGIC:
        raise FormatError(f"{path}: not a features .npz archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise FormatError(f"{path}: unreadable features archive ({exc})") from exc
    wanted = _FEATURE_ARRAYS + (_RAW_ARRAYS if set(_RAW_ARRAYS) & set(arrays) else ())
    missing = [name for name in wanted if name not in arrays]
    if missing:
        raise FormatError(f"{path}: features archive lacks arrays {missing}")
    return arrays


def _check_feature_shapes(arrays: dict, path) -> None:
    n = arrays["day"].shape[:1]
    for name in _PER_SAMPLE:
        if arrays[name].shape[:1] != n:
            raise FormatError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                              f"expected {n[0]} rows")
    for index, target in (("global_index", "global_vecs"), ("local_index", "adjacency"),
                          ("local_index", "node_mask")):
        idx = arrays[index]
        if idx.size and (idx.min() < 0 or idx.max() >= len(arrays[target])):
            raise FormatError(f"{path}: {index!r} points outside {target!r}")


def load_features(path) -> FeaturizedDataset:
    """Read a features archive written by :func:`save_features`.

    Raises :class:`FormatError` naming the file for anything else, including
    a JSON features file of format_version 1.  Each sample's
    ``node_features`` is a view into one loaded array; samples that shared
    a global vector, or an adjacency and node mask, share them again, the
    latter read-only.
    """
    arrays = _read_feature_arrays(path)
    try:
        header = json.loads(str(arrays["header"]))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable features header ({exc})") from exc
    _check_version(header, path, FEATURES_VERSION)
    _check_feature_shapes(arrays, path)
    vecs = list(arrays["global_vecs"])
    adjacency, node_mask = arrays["adjacency"], arrays["node_mask"]
    adjacency.flags.writeable = False
    node_mask.flags.writeable = False
    graphs = list(zip(adjacency, node_mask))
    node_features = arrays["node_features"]
    columns = zip(*(arrays[name].tolist() for name in _PER_SAMPLE_INTS))
    samples = []
    for i, (day, slot, element_id, label, fault_id, g, k) in enumerate(columns):
        adj, mask = graphs[k]
        samples.append(FeaturizedSample(
            day=day, slot=slot, element_id=element_id,
            label=None if label < 0 else label,
            global_vec=vecs[g],
            local=LocalGraph(adjacency=adj, node_features=node_features[i],
                             node_mask=mask, fault_element_id=fault_id),
        ))
    raw_states = {}
    if "raw_keys" in arrays:
        raw_states = {(day, slot): raw for (day, slot), raw
                      in zip(arrays["raw_keys"].tolist(), arrays["raw_states"])}
    return FeaturizedDataset(
        samples=samples, spec=_spec_from_doc(header["spec"]),
        n_elements=header["n_elements"], max_nodes=header["max_nodes"],
        synth_fingerprint=header.get("synth_fingerprint", ""), raw_states=raw_states,
    )


# ------------------------------------------------------------- checkpoint

def save_checkpoint(result, path) -> None:
    """TrainResult -> versioned JSON checkpoint (weights in row-major order)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "variant": result.variant,
        "feature_spec_hash": result.feature_spec_hash,
        "threshold": result.threshold,
        "calibration_feasible": result.calibration_feasible,
        "best_epoch": result.best_epoch,
        "config": dataclasses.asdict(result.config),
        "layers": [
            {"name": k, "shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in sorted(result.params.items())
        ],
        "scalers": [
            {"name": k, "shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in sorted(result.scalers.items())
        ],
    }
    Path(path).write_text(_dump(doc) + "\n")


def _named_arrays(doc: dict, key: str, path) -> dict[str, np.ndarray]:
    """name -> array of each ``{"name", "shape", "data"}`` entry of ``doc[key]``."""
    with _entry(path, key):
        entries = list(doc[key])
    arrays = {}
    for i, entry in enumerate(entries):
        with _entry(path, f"{key}[{i}]"):
            arrays[entry["name"]] = np.array(entry["data"]).reshape(entry["shape"])
    return arrays


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.  A missing or
    malformed field, or an invalid model config, is a :class:`FormatError`
    naming the file and the field."""
    from .model import ModelConfig, TrainResult

    doc = json.loads(Path(path).read_text())
    _check_version(doc, path)
    with _entry(path, "config"):
        cfg_doc = dict(doc["config"])
        cfg_doc["mlp_hidden"] = tuple(cfg_doc.get("mlp_hidden", (200, 100)))
        config = ModelConfig(**cfg_doc)
        config.validate()
    params = _named_arrays(doc, "layers", path)
    scalers = _named_arrays(doc, "scalers", path)
    with _entry(path, "checkpoint"):
        return TrainResult(
            variant=doc["variant"], params=params, scalers=scalers, history=[],
            threshold=doc["threshold"],
            calibration_feasible=doc["calibration_feasible"],
            best_epoch=doc["best_epoch"], config=config,
            feature_spec_hash=doc["feature_spec_hash"],
        )


# ------------------------------------------------------------------- CSVs

def save_history_csv(history: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_kkd", "val_acc"])
        writer.writeheader()
        writer.writerows(history)


def save_report_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["date", "threshold", "kkd", "ryd", "ysl", "acc"])
        writer.writeheader()
        writer.writerows(rows)
