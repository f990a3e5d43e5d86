"""On-disk formats: network JSON, the snapshots, faults, features and
checkpoint archives, and report CSVs.

Every artifact carries a ``format_version``; loaders reject versions they
do not understand.  The network is JSON with Python's shortest-roundtrip
float repr.  The rest are uncompressed ``.npz`` archives, written at the
path as given and read by one reader with ``allow_pickle=False``.  An
archive's first entry is a JSON ``header`` (a 0-d string array) whose
``format_version`` and ``kind`` the reader checks, and each loader names the
file and the array it rejects.  Arrays keep their exact bytes and every zip
entry carries the fixed 1980 timestamp, so reruns are byte-identical.  A
JSON file of an older release, or an archive of an older format_version, is
a :class:`FormatError` naming the ``gridstab`` command that rewrites it.

The snapshots archive (format_version 2, kind ``snapshots``) holds int64
``day`` and ``slot`` and float64 ``bus_states`` (S, n_bus, 13) and
``element_states`` (S, n_elements, 2); the faults archive (format_version
2, kind ``faults``) holds int64 ``day``, ``slot``, ``element_id`` and
``label`` (-1 for unlabeled).  Their headers hold the synth fingerprint.

The features file (format_version 4, kind ``features``) holds a dataset's
six int64 columns and the :class:`~features.FeatureStore` they point into,
as they are, with no per-sample node matrix:

* per sample: ``day``, ``slot``, ``element_id``, ``label`` (-1 for
  unlabeled), and its rows ``table_index`` and ``template_index`` in the
  arrays below;
* per table: ``global_vecs`` and ``tables``, one global vector and one bus
  table per snapshot (per sample, for hand-built samples);
* per template: ``rows``, ``line_values``, ``adjacency`` (bit-packed 0/1
  rows) and ``node_mask``, one template per line (per sample, for
  hand-built samples);
* optional ``raw_keys``/``raw_states``, one per (day, slot), which must
  cover every sample's (day, slot);
* in the header: the spec, spec hash, sizes and synth fingerprint.

The checkpoint (format_version 2, kind ``checkpoint``) holds one float64
array per model parameter (``params/<name>``) and per scaler
(``scalers/<name>``), in sorted name order.  Its header holds the variant,
the feature spec hash, the calibrated threshold, the best epoch and the
model config.  Format 1 was a JSON document with one float literal per
weight.
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
    COLUMNS, FAULT_COLUMNS, INDEX_COLUMNS, LINE_COLUMNS, NODE_FEATURES, FeatureField,
    FeaturizedDataset, FeatureStore, GlobalFeatureSpec, LineTemplates, StatKind, int_columns,
    key_groups,
)
from .grid import (
    FINITE, LABEL_NAMES, N_BUS_STATE, Bus, Element, GridError, Network, Snapshot,
    _is_int, at_least, check_fields, validate_network, validate_states,
)
from .model import VARIANTS, ModelConfig, TrainResult

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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a ValueError names the keys it repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated keys {sorted({k for k in keys if keys.count(k) > 1})}")
    return doc


def read_json(path, what: str):
    """The JSON document in the file ``path``.  A file that cannot be read,
    is not UTF-8 or not JSON, or repeats a key of an object, is a
    :class:`FormatError` naming the file as ``what``."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable {what} ({exc})") from exc


# ---------------------------------------------------------------- network

def save_network(network: Network, path, synth_fingerprint: str = "") -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "synth_fingerprint": synth_fingerprint,
        # each flat record's own field dict: dataclasses.asdict would deep-copy
        "buses": [vars(b) for b in network.buses],
        "elements": [vars(e) for e in network.elements],
    }
    Path(path).write_text(_dump(doc) + "\n")


# annotation of a record field -> its rule (a bool is not a number)
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": FINITE,
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _records(doc: dict, key: str, cls, path) -> tuple:
    """One ``cls`` per entry of the list ``doc[key]``, each field of the type
    it is declared with."""
    rules = {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(cls)}
    with _entry(path, key):
        entries = list(doc[key])
    records = []
    for i, entry in enumerate(entries):
        with _entry(path, f"{key}[{i}]"):
            records.append(cls(**entry))
            check_fields(vars(records[-1]), rules)
    return tuple(records)


def load_network(path) -> tuple[Network, str]:
    doc = read_json(path, "network JSON")
    _check_version(doc, path)
    network = Network(buses=_records(doc, "buses", Bus, path),
                      elements=_records(doc, "elements", Element, path))
    errors = validate_network(network)
    if errors:
        raise GridError(f"{path}: invalid network: " + "; ".join(errors))
    return network, doc.get("synth_fingerprint", "")


# ------------------------------------------------------------ .npz archives

DATASET_VERSION = 2
FEATURES_VERSION = 4
CHECKPOINT_VERSION = 2
_ZIP_MAGIC = b"PK\x03\x04"
# kind -> (format_version, the command that writes it)
_ARCHIVES = {"snapshots": (DATASET_VERSION, "synth"),
             "faults": (DATASET_VERSION, "synth"),
             "features": (FEATURES_VERSION, "featurize"),
             "checkpoint": (CHECKPOINT_VERSION, "train")}


def _write_archive(path, kind: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the ``kind`` archive's header (``header`` with its format_version
    and kind, as a 0-d JSON string array) and then ``arrays``, in order, as
    an uncompressed ``.npz`` archive at exactly ``path``."""
    header = {"format_version": _ARCHIVES[kind][0], "kind": kind, **header}
    # An open handle keeps np.savez from appending ".npz" to the path; zip
    # entries carry the fixed 1980 timestamp, so reruns are byte-identical.
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, header=np.array(_dump(header)), **arrays)


def _read_archive(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header and the other arrays of a ``kind`` archive (a key of
    ``_ARCHIVES``) of this release's format."""
    version, command = _ARCHIVES[kind]
    rerun = f"re-run `gridstab {command}` to write format_version {version}"
    with open(path, "rb") as fh:
        magic = fh.read(len(_ZIP_MAGIC))
    if magic.startswith(b"{"):
        raise FormatError(f"{path}: JSON {kind} file from an older release; {rerun}")
    if magic != _ZIP_MAGIC:
        raise FormatError(f"{path}: not a {kind} .npz archive")
    unreadable = (zipfile.BadZipFile, ValueError, EOFError)
    try:
        archive = np.load(path, allow_pickle=False)
    except unreadable as exc:
        raise FormatError(f"{path}: unreadable {kind} archive ({exc})") from exc
    arrays = {}
    with archive:
        for name in archive.files:
            try:
                arrays[name] = archive[name]
            except unreadable as exc:
                raise FormatError(f"{path}: unreadable {kind} array {name!r} "
                                  f"({exc})") from exc
            # np.load hands back the raw bytes of a member that is not .npy.
            if not isinstance(arrays[name], np.ndarray):
                raise FormatError(f"{path}: {kind} archive member {name!r} is not "
                                  f"a .npy array")
    if "header" not in arrays:
        raise FormatError(f"{path}: {kind} archive lacks arrays ['header']")
    try:
        header = json.loads(str(arrays.pop("header")))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable {kind} header ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {kind} header is not a JSON object")
    v = header.get("format_version")
    if _is_int(v) and 0 < v < version:
        raise FormatError(f"{path}: {kind} archive of format_version {v} is from an "
                          f"older release; {rerun}")
    _check_version(header, path, version)
    if header.get("kind") != kind:
        raise FormatError(f"{path}: archive holds {header.get('kind')!r}, not {kind}")
    return header, arrays


def _check_arrays(path, kind: str, arrays: dict, schema: dict, optional=(),
                  finite: bool = True) -> None:
    """Raise :class:`FormatError` naming the file and the array for a
    missing array (other than one of ``optional``), an array whose dtype
    kind or shape ``schema`` does not allow, arrays that disagree on a row
    count, (when ``finite``) a NaN or infinity in a float array, a uint64
    value past the int64 range, or a ``label`` that is none of the labels.

    ``schema`` maps each array's name to its dtype kinds, its shape after the
    leading axis (None matches any size) and what one row is: arrays naming
    the same thing share a row count.
    """
    missing = [name for name in schema if name not in arrays and name not in optional]
    if missing:
        raise FormatError(f"{path}: {kind} archive lacks arrays {missing}")
    groups: dict[str, dict[str, int]] = {}
    for name, (kinds, tail, group) in schema.items():
        got = arrays.get(name)
        if got is None:
            continue
        if (got.dtype.kind not in kinds or got.ndim != 1 + len(tail)
                or any(w is not None and g != w for g, w in zip(got.shape[1:], tail))):
            raise FormatError(f"{path}: array {name!r} has dtype {got.dtype} and shape "
                              f"{got.shape}, expected kind {kinds!r} and rows of "
                              f"shape {tail}")
        if finite and got.dtype.kind == "f" and not np.isfinite(got).all():
            raise FormatError(f"{path}: array {name!r} holds non-finite values")
        # Loaders cast int arrays to int64, which would wrap these values.
        if got.dtype == np.uint64 and got.size and got.max() > np.iinfo(np.int64).max:
            raise FormatError(f"{path}: array {name!r} holds values past the int64 range")
        groups.setdefault(group, {})[name] = len(got)
    for row, counts in groups.items():
        if len(set(counts.values())) > 1:
            raise FormatError(f"{path}: arrays {sorted(counts)} must hold one row per "
                              f"{row}; their row counts are {counts}")
    labels = (-1, *sorted(LABEL_NAMES))
    if "label" in schema and not np.isin(arrays["label"], labels).all():
        raise FormatError(f"{path}: array 'label' holds values other than {labels} "
                          f"(-1 is unlabeled)")


def _check_unique(path, arrays: dict, names: tuple, row: str) -> None:
    """Raise :class:`FormatError` naming two rows that repeat one key of the
    columns ``names``."""
    # Sorted and gathered column by column: on the strided columns of one
    # stacked key array, lexsort and the gathers take about three times longer.
    columns = [arrays[name] for name in names]
    order = np.lexsort(columns[::-1])      # stable: equal keys keep row order
    ordered = [column[order] for column in columns]
    repeats = np.flatnonzero(np.logical_and.reduce([c[1:] == c[:-1] for c in ordered]))
    if repeats.size:
        first, again = order[repeats[0]], order[repeats[0] + 1]
        raise FormatError(f"{path}: {row} {again} repeats the ({', '.join(names)}) = "
                          f"{tuple(c[first].item() for c in columns)} of {row} {first}")


# ------------------------------------------------------ snapshots and faults

_SNAPSHOT_KEY = ("day", "slot")
_STATES = ("bus_states", "element_states")    # their shapes are validate_states'
_SNAPSHOT_SCHEMA = {**{name: ("iu", (), "snapshot") for name in _SNAPSHOT_KEY},
                    **{name: ("f", (None, None), "snapshot") for name in _STATES}}
_FAULT_SCHEMA = {name: ("iu", (), "fault") for name in FAULT_COLUMNS}


def first_missing(rows: dict, keys: dict) -> int | None:
    """The first row of the int columns ``rows`` whose (day, slot) is none of
    those of the int columns ``keys``, or None.  Numbered by one
    :func:`key_groups` call with ``keys`` first, such a (day, slot) gets a
    number past all of theirs."""
    n = len(keys["day"])
    group = key_groups(*(np.concatenate((keys[name], rows[name]), dtype=np.int64)
                         for name in _SNAPSHOT_KEY))[1]
    missing = np.flatnonzero(group[n:] > group[:n].max(initial=-1))
    return int(missing[0]) if missing.size else None


def save_snapshots(snapshots, path, synth_fingerprint: str = "") -> None:
    """Write ``snapshots`` as a snapshots archive at exactly ``path``."""
    _write_archive(path, "snapshots", {"synth_fingerprint": synth_fingerprint}, {
        **int_columns(snapshots, _SNAPSHOT_KEY),
        **{name: np.array([getattr(s, name) for s in snapshots], dtype=np.float64)
           for name in _STATES}})


def load_snapshots(path, network: Network) -> tuple[list[Snapshot], str]:
    """The snapshots of ``network``'s grid in a snapshots archive, whose
    states are views of its stacks, and their synth fingerprint.  A
    :class:`FormatError` names the file and the array it rejects, two rows
    with one (day, slot), or the first snapshot that
    :func:`grid.validate_states` rejects and its violations."""
    header, arrays = _read_archive(path, "snapshots")
    _check_arrays(path, "snapshots", arrays, _SNAPSHOT_SCHEMA, finite=False)
    _check_unique(path, arrays, _SNAPSHOT_KEY, "snapshot")
    days, slots = (arrays[name].tolist() for name in _SNAPSHOT_KEY)
    states = [arrays[name] for name in _STATES]
    first, errors = validate_states(network, *states)
    if errors:
        raise FormatError(f"{path}: snapshot day {days[first]} slot {slots[first]}: "
                          + "; ".join(errors))
    return list(map(Snapshot, days, slots, *states)), header.get("synth_fingerprint", "")


def save_faults(faults, path, synth_fingerprint: str = "") -> None:
    """Write ``faults`` as a faults archive at exactly ``path``."""
    _write_archive(path, "faults", {"synth_fingerprint": synth_fingerprint},
                   int_columns(faults, _FAULT_SCHEMA))


def load_faults(path, network: Network) -> tuple[dict[str, np.ndarray], str]:
    """The :data:`~features.FAULT_COLUMNS` of a faults archive, cast to int64
    (``label`` -1 when unlabeled), and their synth fingerprint.  A
    :class:`FormatError` names the file and the array it rejects, two rows
    with one (day, slot, element_id), a label that is none of the labels,
    or a faulted element that is not one of ``network``'s AC lines."""
    header, arrays = _read_archive(path, "faults")
    _check_arrays(path, "faults", arrays, _FAULT_SCHEMA)
    _check_unique(path, arrays, (*_SNAPSHOT_KEY, "element_id"), "fault")
    element_id = arrays["element_id"]
    not_ac = ~np.isin(element_id, network.ac_line_ids())
    if not_ac.any():
        row = int(np.argmax(not_ac))
        raise FormatError(f"{path}: array 'element_id' names element {element_id[row]} "
                          f"in fault {row}, which is not an AC line of the network")
    return ({name: arrays[name].astype(np.int64, copy=False) for name in FAULT_COLUMNS},
            header.get("synth_fingerprint", ""))


# --------------------------------------------------------------- features

_RAW_ARRAYS = ("raw_keys", "raw_states")


def _spec_to_doc(spec: GlobalFeatureSpec) -> list:
    return [[f.quantity, f.stat.value, f.range_kind, f.region] for f in spec.fields]


def _spec_from_doc(doc: list) -> GlobalFeatureSpec:
    """The spec of a header's list of [quantity, stat, range_kind, region]
    entries; a ValueError names a malformed entry or an unknown stat."""
    if not isinstance(doc, list):
        raise ValueError(f"spec must be a list, not {doc!r}")
    stats = {kind.value: kind for kind in StatKind}
    for i, entry in enumerate(doc):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"spec[{i}] must be a [quantity, stat, range_kind, region] "
                             f"list, not {entry!r}")
        if not isinstance(entry[1], str) or entry[1] not in stats:
            raise ValueError(f"spec[{i}] stat must be one of {sorted(stats)}, "
                             f"not {entry[1]!r}")
    return GlobalFeatureSpec(fields=tuple(
        FeatureField(q, stats[s], rk, reg) for q, s, rk, reg in doc
    ))


def save_features(dataset: FeaturizedDataset, path) -> None:
    """Write ``dataset``'s columns and store, as they are, as a columnar
    ``.npz`` archive at exactly ``path``."""
    store, templates = dataset.store, dataset.store.templates
    header = {
        "synth_fingerprint": dataset.synth_fingerprint,
        "feature_spec_hash": dataset.feature_spec_hash(),
        "spec": _spec_to_doc(dataset.spec),
        "n_elements": dataset.n_elements,
        "max_nodes": dataset.max_nodes,
    }
    arrays = {
        **dataset.columns,
        "global_vecs": store.global_vecs,
        "tables": store.tables,
        "rows": templates.rows,
        "line_values": templates.line_values,
        "adjacency": templates.adjacency,
        "node_mask": templates.node_mask,
    }
    if dataset.raw_states:
        arrays["raw_keys"] = np.array(list(dataset.raw_states), dtype=np.int64)
        arrays["raw_states"] = np.stack(list(dataset.raw_states.values()))
    _write_archive(path, "features", header, arrays)


def _check_feature_arrays(arrays: dict, header: dict, path) -> GlobalFeatureSpec:
    """The header's spec.  Raise :class:`FormatError` naming the file and the
    header field for a missing or malformed ``n_elements``, ``max_nodes`` or
    ``spec``, and naming the array for what :func:`_check_arrays` rejects or
    an index that points outside its target."""
    with _entry(path, "header"):
        check_fields(header, {"n_elements": at_least(1), "max_nodes": at_least(1)})
        spec = _spec_from_doc(header["spec"])
    m, global_dim = header["max_nodes"], len(spec)
    schema = {
        **{name: ("iu", (), "sample") for name in COLUMNS},
        "global_vecs": ("f", (global_dim,), "table"),
        "tables": ("f", (None, NODE_FEATURES), "table"),
        "rows": ("iu", (m,), "template"),
        "line_values": ("fiu", (m, len(LINE_COLUMNS)), "template"),
        "adjacency": ("u", (m, (m + 7) // 8), "template"),
        "node_mask": ("b", (m,), "template"),
        "raw_keys": ("iu", (2,), "raw state"),
        "raw_states": ("f", (None, N_BUS_STATE), "raw state"),
    }
    raw_optional = () if set(_RAW_ARRAYS) & set(arrays) else _RAW_ARRAYS
    _check_arrays(path, "features", arrays, schema, optional=raw_optional)
    for index, target in zip(INDEX_COLUMNS, ("tables", "rows")):
        idx = arrays[index]
        if idx.size and (idx.min() < 0 or idx.max() >= len(arrays[target])):
            raise FormatError(f"{path}: {index!r} points outside {target!r}")
    rows = arrays["rows"]
    if rows.size and (rows.min() < 0 or rows.max() >= arrays["tables"].shape[1]):
        raise FormatError(f"{path}: 'rows' points outside the rows of 'tables'")
    ids = arrays["element_id"]
    if ids.size and ids.min() < 0:
        raise FormatError(f"{path}: array 'element_id' must hold ids >= 0, not {ids.min()}")
    if ids.size and ids.max() >= header["n_elements"]:
        raise FormatError(f"{path}: header: n_elements must be greater than every "
                          f"element_id ({ids.max()}), not {header['n_elements']}")
    return spec


def load_features(path) -> FeaturizedDataset:
    """Read a features archive written by :func:`save_features`.

    Raises :class:`FormatError` naming the file for anything else, including
    a features file of format_version 1 to 3, an array of the wrong dtype or
    shape, a NaN or infinity in any float array, and raw states with a
    repeated (day, slot) or none for a sample's, each of which it names.
    The dataset's columns and store are the archive's arrays.
    """
    header, arrays = _read_archive(path, "features")
    spec = _check_feature_arrays(arrays, header, path)
    arrays["tables"].flags.writeable = False
    templates = LineTemplates(rows=arrays["rows"], line_values=arrays["line_values"],
                              adjacency=arrays["adjacency"], node_mask=arrays["node_mask"])
    raw_states = {}
    if "raw_keys" in arrays:
        keys = arrays["raw_keys"]
        _check_unique(path, dict(zip(_SNAPSHOT_KEY, keys.T)), _SNAPSHOT_KEY, "'raw_keys' row")
        raw_states = dict(zip(map(tuple, keys.tolist()), arrays["raw_states"]))
        sample = first_missing(arrays, dict(zip(_SNAPSHOT_KEY, keys.T)))
        if sample is not None:
            key = tuple(arrays[name][sample].item() for name in _SNAPSHOT_KEY)
            raise FormatError(f"{path}: array 'raw_keys' lacks the (day, slot) = {key} "
                              f"of sample {sample}")
    return FeaturizedDataset(
        spec=spec, n_elements=header["n_elements"], max_nodes=header["max_nodes"],
        synth_fingerprint=header.get("synth_fingerprint", ""), raw_states=raw_states,
        columns={name: arrays[name].astype(np.int64, copy=False) for name in COLUMNS},
        store=FeatureStore(global_vecs=arrays["global_vecs"], tables=arrays["tables"],
                           templates=templates),
    )


# ------------------------------------------------------------- checkpoint

_CHECKPOINT_GROUPS = ("params", "scalers")
# header field -> its rule
_CHECKPOINT_FIELDS = {
    "variant": (lambda v: isinstance(v, str) and v in VARIANTS, "a known model variant"),
    "feature_spec_hash": _FIELD_TYPES["str"],
    "threshold": FINITE,
    "best_epoch": at_least(0),
    "config": (lambda v: isinstance(v, dict), "an object"),
}


def save_checkpoint(result, path) -> None:
    """Write a TrainResult as a checkpoint archive at exactly ``path``."""
    header = {
        "variant": result.variant,
        "feature_spec_hash": result.feature_spec_hash,
        "threshold": result.threshold,
        "best_epoch": result.best_epoch,
        "config": dataclasses.asdict(result.config),
    }
    arrays = {f"{group}/{name}": value
              for group, named in zip(_CHECKPOINT_GROUPS, (result.params, result.scalers))
              for name, value in sorted(named.items())}
    _write_archive(path, "checkpoint", header, arrays)


def load_checkpoint(path):
    """Read a checkpoint archive written by :func:`save_checkpoint`.

    A missing or invalid header field, an invalid model config, or an array
    that is not finite float64 is a :class:`FormatError` naming the file and
    the field.  The arrays' shapes depend on the dataset's dims too, so
    :meth:`~model.ScreeningModel.check_params` checks them against the
    variant before any scoring.  A JSON checkpoint of an older release is a
    :class:`FormatError` that says to re-run ``gridstab train``.
    """
    header, arrays = _read_archive(path, "checkpoint")
    with _entry(path, "checkpoint"):
        check_fields(header, _CHECKPOINT_FIELDS)
    with _entry(path, "config"):
        cfg_doc = header["config"]
        check_fields(cfg_doc, ModelConfig.RULES)
        config = ModelConfig(**{**cfg_doc, "mlp_hidden": tuple(cfg_doc["mlp_hidden"])})
    groups = {group: {} for group in _CHECKPOINT_GROUPS}
    for key, value in arrays.items():
        group, _, name = key.partition("/")
        if group not in groups or not name:
            raise FormatError(f"{path}: checkpoint: unexpected array {key!r}")
        if value.dtype != np.float64:
            raise FormatError(f"{path}: checkpoint: {key} has dtype {value.dtype}, "
                              f"expected float64")
        if not np.isfinite(value).all():
            raise FormatError(f"{path}: checkpoint: {key} holds non-finite values")
        groups[group][name] = value
    return TrainResult(
        variant=header["variant"], params=groups["params"], scalers=groups["scalers"],
        history=[], threshold=float(header["threshold"]), best_epoch=header["best_epoch"],
        config=config, feature_spec_hash=header["feature_spec_hash"],
    )


# ------------------------------------------------------------------- CSVs

HISTORY_FIELDS = ("epoch", "train_loss", "val_kkd", "val_acc")
REPORT_FIELDS = ("date", "threshold", "kkd", "ryd", "ysl", "acc")


def save_csv(rows: list[dict], fields: tuple[str, ...], path) -> None:
    """Write ``rows`` as a CSV of the columns ``fields``, with a header row:
    :data:`HISTORY_FIELDS` for a training history, :data:`REPORT_FIELDS`
    for report rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
