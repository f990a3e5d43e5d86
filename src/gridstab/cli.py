"""Multi-command CLI wrapping the record -> train -> apply workflow.

A run config (``--config``) is a JSON object of sections, and :data:`LAYOUT`
gives each key of a section its rule and the setting it sets: ``synth`` holds
the :class:`~synth.SynthConfig` fields, ``feature`` ``regions`` and
``max_nodes``, ``model`` the :class:`~model.ModelConfig` fields, ``train`` the
:class:`~model.TrainConfig` fields but ``target_kkd``, and ``eval``
``target_kkd`` (the calibration target) and ``calibration_frac``.  A flag
(:data:`FLAGS`) sets its key after the file.  An unknown or repeated key, or
a value its rule rejects, exits 1 naming the file, the section and the key.

Exit codes: 0 success; 1 missing, mismatched or unlabeled inputs or a bad
argument value; 2 a usage error from argparse (an unknown choice, ``synth``
without ``--out``, ``train`` given both ``--variant`` and ``--ablate``).
Calibration always reaches its target, so 3 (``EXIT_INFEASIBLE``, kept for
scripts) is no longer returned.  Set GRIDSTAB_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import persist, report, synth
from .features import featurize, int_columns
from .grid import FINITE, UNSTABLE, _is_real, at_least, check_fields
from .metrics import compute_metrics
from .model import (ABLATION_ALIASES, VARIANT_ALIASES, ModelConfig, TrainConfig,
                    TrainingError, scores_for, train)
from .report import ExperimentConfig

log = logging.getLogger("gridstab")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 3


class CliError(RuntimeError):
    pass


# config section -> key -> (the ExperimentConfig attribute it sets, its rule)
LAYOUT = {
    "synth": {key: (f"synth.{key}", rule) for key, rule in synth.SynthConfig.RULES.items()},
    "feature": {"regions": ("feature_regions", at_least(0)),
                "max_nodes": ("max_nodes", at_least(1))},
    "model": {key: (f"model.{key}", rule) for key, rule in ModelConfig.RULES.items()},
    "train": {key: (f"train.{key}", rule) for key, rule in TrainConfig.RULES.items()
              if key != "target_kkd"},
    "eval": {"target_kkd": ("train.target_kkd", TrainConfig.RULES["target_kkd"]),
             "calibration_frac": ("calibration_frac", (
                 lambda v: _is_real(v) and 0.0 < v < 1.0, "a number in (0, 1)"))},
}
# command-line flag -> the (section, key) of each config key it sets
FLAGS = {"seed": (("synth", "seed"), ("train", "seed")), "buses": (("synth", "n_bus"),),
         "days": (("synth", "days"),), "slots": (("synth", "slots_per_day"),),
         "unstable_rate": (("synth", "target_unstable_rate"),),
         "epochs": (("train", "epochs"),), "target_kkd": (("eval", "target_kkd"),)}


def _json_type(value) -> str:
    return {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
            type(None): "null"}.get(type(value), "a number")


def _apply(cfg: ExperimentConfig, doc, where: str) -> None:
    """Set the attribute of ``cfg`` that each key of each section of ``doc``
    names in :data:`LAYOUT`, once every key of the section passes its rule.
    A CliError, prefixed with ``where``, names the section and the key."""
    if not isinstance(doc, dict):
        raise CliError(f"{where}a config must be a JSON object, not {_json_type(doc)}")
    unknown = set(doc) - set(LAYOUT)
    if unknown:
        raise CliError(f"{where}unknown config sections: {sorted(unknown)}")
    for name, section in doc.items():
        if not isinstance(section, dict):
            raise CliError(f"{where}config section {name!r} must be a JSON object, "
                           f"not {_json_type(section)}")
        layout = LAYOUT[name]
        unknown = set(section) - set(layout)
        if unknown:
            raise CliError(f"{where}unknown keys in config section {name!r}: "
                           f"{sorted(unknown)}")
        try:
            check_fields(section, {key: layout[key][1] for key in section})
        except ValueError as exc:
            raise CliError(f"{where}config section {name!r}: {exc}") from exc
        for key, value in section.items():
            owner, _, attr = layout[key][0].rpartition(".")
            setattr(getattr(cfg, owner) if owner else cfg, attr,
                    tuple(value) if isinstance(value, list) else value)


def resolve_config(args) -> ExperimentConfig:
    """The defaults, overridden by the ``--config`` file's keys and then by
    the flags of :data:`FLAGS`, each value checked where it enters."""
    cfg, path = ExperimentConfig(), getattr(args, "config", None)
    if path is not None:
        _apply(cfg, persist.read_json(path, "JSON config"), f"{path}: ")
    for flag, keys in FLAGS.items():
        for section, key in keys if getattr(args, flag, None) is not None else ():
            _apply(cfg, {section: {key: getattr(args, flag)}}, "")
    log.info("resolved config: %s", json.dumps(dataclasses.asdict(cfg), default=str,
                                               sort_keys=True))
    return cfg


def _output(path, flag: str = "--out") -> Path | None:
    """``path``, when given, as an output file; a CliError names ``flag`` and
    ``path`` when its directory does not exist or it is a directory."""
    if not path:
        return None
    path = Path(path)
    if not path.parent.is_dir():
        raise CliError(f"{flag} {path}: directory {path.parent} does not exist")
    if path.is_dir():
        raise CliError(f"{flag} {path}: is a directory, not a file")
    return path


def _output_dir(path) -> Path:
    """``path`` as an output directory, which may not exist yet; a CliError
    names it when it, or the nearest of its parents that exists, is not a
    directory."""
    path = Path(path)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise CliError(f"--out {path}: {found} is not a directory")
    return path


def _require(path: Path, kind: str) -> Path:
    if not path.exists():
        raise CliError(f"missing {kind}: {path}")
    return path


def _dataset_archive(data_dir: Path, kind: str) -> Path:
    """The ``kind`` archive of a dataset directory.  A directory that holds
    the JSON-lines file of an older release instead is a FormatError."""
    path, old = data_dir / f"{kind}.npz", data_dir / f"{kind}.jsonl"
    if not path.exists() and old.exists():
        raise persist.FormatError(f"{old}: JSON-lines {kind} file from an older release; "
                                  f"re-run `gridstab synth` to write {path.name}")
    return _require(path, kind)


def _load_dataset_dir(data_dir: Path):
    """The network, snapshots and fault columns of a dataset directory written
    by ``synth`` (network.json, snapshots.npz and faults.npz), each checked
    against the network and every fault against the snapshots, and their
    synth fingerprint."""
    network, fp_net = persist.load_network(_require(data_dir / "network.json", "network"))
    snapshots_path = _dataset_archive(data_dir, "snapshots")
    snapshots, fp_snap = persist.load_snapshots(snapshots_path, network)
    faults_path = _dataset_archive(data_dir, "faults")
    faults, fp_faults = persist.load_faults(faults_path, network)
    if not (fp_net == fp_snap == fp_faults):
        raise CliError(f"dataset files in {data_dir} carry mismatched fingerprints")
    row = persist.first_missing(faults, int_columns(snapshots, ("day", "slot")))
    if row is not None:
        day, slot = faults["day"][row], faults["slot"][row]
        raise persist.FormatError(f"{faults_path}: fault {row} names day {day} slot {slot}, "
                                  f"with no snapshot in {snapshots_path.name}")
    return network, snapshots, faults, fp_net


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg, out = resolve_config(args), _output_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network, snapshots, faults, oracle = synth.generate_dataset(cfg.synth)
    fp = persist.fingerprint(cfg.synth)
    persist.save_network(network, out / "network.json", fp)
    persist.save_snapshots(snapshots, out / "snapshots.npz", fp)
    persist.save_faults(faults, out / "faults.npz", fp)
    labels = faults["label"]
    unstable = int(np.count_nonzero(labels == UNSTABLE))
    print(f"wrote {out}: {network.n_bus} buses, {len(network.elements)} elements, "
          f"{len(snapshots)} snapshots, {len(labels)} faults "
          f"({100.0 * unstable / len(labels):.1f}% unstable, tau={oracle.tau:.4f})")
    return EXIT_OK


def _parse_days(text: str) -> set[int]:
    """The day numbers of a comma-separated ``--days`` value."""
    days = set()
    for entry in text.split(","):
        try:
            days.add(int(entry))
        except ValueError:
            raise CliError(f"--days {text!r}: {entry!r} is not a day number") from None
    return days


def cmd_featurize(args) -> int:
    wanted = _parse_days(args.day_subset) if args.day_subset else None
    cfg = resolve_config(args)
    data_dir = Path(args.data)
    out = _output(args.out) or _output(data_dir / "features.npz", "--data")
    bundle = _bundle_from_dir(data_dir, cfg)
    faults = bundle.faults if wanted is None else bundle.faults_of(*wanted)
    if not faults["day"].size:
        days = f"days {sorted(wanted)}" if wanted is not None else "any day"
        raise CliError(f"{data_dir} holds no faults for {days}")
    ds = featurize(bundle.network, bundle.snapshots, faults, bundle.spec,
                   max_nodes=cfg.max_nodes, include_raw=True,
                   synth_fingerprint=bundle.synth_fingerprint)
    persist.save_features(ds, out)
    print(f"wrote {out}: {len(ds)} samples, global dim {ds.global_dim}, "
          f"local {ds.max_nodes}x{ds.store.tables.shape[-1]}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, out = resolve_config(args), _output(args.out or "checkpoint.npz")
    history = _output(out.with_suffix(".history.csv"))
    ds = persist.load_features(_require(Path(args.features), "features"))
    if args.data:
        _, _, _, fp = _load_dataset_dir(Path(args.data))
        if fp != ds.synth_fingerprint:
            raise CliError("features fingerprint does not match the dataset directory")
    variant = (ABLATION_ALIASES[args.ablate] if args.ablate
               else VARIANT_ALIASES[args.variant or "graph"])
    train_ds, cal_ds = report.split_day(ds, args.train_day, cfg.calibration_frac)
    result = train(variant, train_ds, cal_ds, cfg.model, cfg.train)
    persist.save_checkpoint(result, out)
    persist.save_csv(result.history, persist.HISTORY_FIELDS, history)
    print(f"wrote {out}: variant {variant}, best epoch {result.best_epoch}, "
          f"threshold {result.threshold:.6g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    resolve_config(args)
    if args.threshold is not None:
        check_fields({"--threshold": args.threshold}, {"--threshold": FINITE})
    out = _output(args.out)
    result = persist.load_checkpoint(_require(Path(args.checkpoint), "checkpoint"))
    ds = persist.load_features(_require(Path(args.features), "features"))
    eval_ds = report.day_slice(ds, args.day)
    try:
        scores = scores_for(result, eval_ds)
    except TrainingError as exc:     # the checkpoint does not fit these features
        raise CliError(f"{args.checkpoint}: {exc}") from exc
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise CliError(f"{args.checkpoint}: {bad} of {len(scores)} scores on day "
                       f"{args.day} of {args.features} are not finite")
    threshold = args.threshold if args.threshold is not None else result.threshold
    row = compute_metrics(scores, eval_ds.labels(), threshold)
    return _emit([report._row_dict(args.day, row)], out)


def cmd_baseline(args) -> int:
    cfg, out = resolve_config(args), _output(args.out)
    bundle = _bundle_from_dir(Path(args.data), cfg)
    system = "MlpOnly" if args.baseline == "mlp" else args.baseline
    rows = report.pair_table(bundle, args.train_day, args.eval_day, ((args.baseline, system),))
    return _emit(rows, out, "baseline")


def cmd_ablate(args) -> int:
    cfg, out = resolve_config(args), _output(args.out)
    bundle = _bundle_from_dir(Path(args.data), cfg)
    return _emit(report.ablation_table(bundle, args.train_day, args.eval_day), out,
                 "variant")


def _emit(rows: list[dict], out, label: str = "date") -> int:
    """Print ``rows`` as a table and, given ``out``, write them as a CSV."""
    print(report.format_table(rows, label=label))
    if out:
        persist.save_csv(rows, persist.REPORT_FIELDS, out)
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.data)
    if args.out:
        out_dir = _output_dir(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    daily_csv, compare_csv = (_output(out_dir / name, "--out" if args.out else "--data")
                              for name in ("report_daily.csv", "report_compare.csv"))
    bundle = _bundle_from_dir(Path(args.data), cfg)
    daily, compared = report.daily_report(bundle, VARIANT_ALIASES[args.variant], args.compare)
    _emit(daily, daily_csv)
    if args.compare:
        print()
        _emit(compared, compare_csv, "model")
    return EXIT_OK


def _bundle_from_dir(data_dir: Path, cfg: ExperimentConfig) -> report.Bundle:
    network, snapshots, faults, fp = _load_dataset_dir(data_dir)
    spec = report.default_feature_spec(cfg.feature_regions)
    return report.Bundle(config=cfg, network=network, snapshots=snapshots,
                         faults=faults, spec=spec, synth_fingerprint=fp)


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstab",
        description="Synthetic-grid transient-stability screening pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, data=False, features=False, pair=False, epochs=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="run-configuration JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file or directory")
        p.add_argument("--target-kkd", dest="target_kkd", type=float)
        if data:
            p.add_argument("--data", required=True,
                           help="dataset directory written by synth (network.json, "
                                "snapshots.npz, faults.npz)")
        if features:
            p.add_argument("--features", required=True,
                           help="features .npz archive written by featurize")
        if pair:
            p.add_argument("--train-day", dest="train_day", type=int, required=True)
            p.add_argument("--eval-day", dest="eval_day", type=int, required=True)
        if epochs:
            p.add_argument("--epochs", type=int)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset (network.json, "
                                    "snapshots.npz and faults.npz in --out)")
    p.add_argument("--buses", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--unstable-rate", dest="unstable_rate", type=float)

    p = command("featurize", cmd_featurize, "turn a dataset into model features "
                                            "(default out: <data>/features.npz)", data=True)
    p.add_argument("--days", dest="day_subset", help="comma-separated day subset")

    p = command("train", cmd_train, "train one model variant (default out: checkpoint.npz)",
                features=True, epochs=True)
    p.add_argument("--data", help="dataset directory written by synth "
                                  "(for fingerprint checks)")
    # No default: argparse would not see an explicit default --variant clash.
    which = p.add_mutually_exclusive_group()
    which.add_argument("--variant", choices=sorted(VARIANT_ALIASES),
                       help="model variant (default: graph)")
    which.add_argument("--ablate", choices=sorted(ABLATION_ALIASES))
    p.add_argument("--train-day", dest="train_day", type=int, required=True)

    p = command("eval", cmd_eval, "evaluate a checkpoint on one day", features=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint written by train")
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--threshold", type=float)

    p = command("baseline", cmd_baseline, "run one baseline on a day pair", data=True,
                pair=True, epochs=True)
    p.add_argument("--baseline", choices=["prevday", "svm", "mlp"], required=True)

    command("ablate", cmd_ablate, "feature-family ablation table", data=True, pair=True,
            epochs=True)

    p = command("report", cmd_report, "per-day report and model comparison", data=True,
                epochs=True)
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="graph")
    p.add_argument("--compare", action="store_true")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("GRIDSTAB_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and not args.out:
        parser.error("synth requires --out")
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, persist.FormatError, TrainingError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
