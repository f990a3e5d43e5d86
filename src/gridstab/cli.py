"""Multi-command CLI wrapping the record -> train -> apply workflow.

Exit codes: 0 success, 1 missing or mismatched inputs / bad arguments,
3 infeasible reliability calibration.  Set GRIDSTAB_LOG to control log
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import persist, report, synth
from .features import featurize
from .metrics import compute_metrics
from .model import (
    ABLATION_ALIASES, VARIANT_ALIASES, TrainingError, _is_int, _is_real, scores_for,
    train,
)
from .report import ExperimentConfig

log = logging.getLogger("gridstab")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 3


class CliError(RuntimeError):
    pass


def _apply_section(instance, section: dict, name: str):
    fields = {f.name for f in dataclasses.fields(instance)}
    unknown = set(section) - fields
    if unknown:
        raise CliError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in section.items():
        if isinstance(getattr(instance, key), tuple) and isinstance(value, list):
            value = tuple(value)
        setattr(instance, key, value)
    return instance


def load_experiment_config(path: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    doc = json.loads(Path(path).read_text())
    known = {"synth", "feature", "model", "train", "eval"}
    unknown = set(doc) - known
    if unknown:
        raise CliError(f"unknown config sections: {sorted(unknown)}")
    if "synth" in doc:
        _apply_section(cfg.synth, doc["synth"], "synth")
    if "model" in doc:
        _apply_section(cfg.model, doc["model"], "model")
        try:
            cfg.model.validate()
        except ValueError as exc:
            raise CliError(f"{path}: config section 'model': {exc}") from exc
    if "train" in doc:
        _apply_section(cfg.train, doc["train"], "train")
    feature = doc.get("feature", {})
    unknown = set(feature) - {"regions", "max_nodes"}
    if unknown:
        raise CliError(f"unknown keys in config section 'feature': {sorted(unknown)}")
    cfg.feature_regions = feature.get("regions", cfg.feature_regions)
    cfg.max_nodes = feature.get("max_nodes", cfg.max_nodes)
    evaluation = doc.get("eval", {})
    unknown = set(evaluation) - {"target_kkd", "calibration_frac"}
    if unknown:
        raise CliError(f"unknown keys in config section 'eval': {sorted(unknown)}")
    cfg.train.target_kkd = evaluation.get("target_kkd", cfg.train.target_kkd)
    cfg.calibration_frac = evaluation.get("calibration_frac", cfg.calibration_frac)
    return cfg


def resolve_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg.synth.seed = args.seed
        cfg.train.seed = args.seed
    for name, target in (("buses", "n_bus"), ("days", "days"), ("slots", "slots_per_day"),
                         ("unstable_rate", "target_unstable_rate")):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg.synth, target, value)
    if getattr(args, "epochs", None) is not None:
        cfg.train.epochs = args.epochs
    if getattr(args, "target_kkd", None) is not None:
        cfg.train.target_kkd = args.target_kkd
    _check_settings(cfg)
    log.info("resolved config: %s", json.dumps(dataclasses.asdict(cfg), default=str,
                                               sort_keys=True))
    return cfg


def _check_settings(cfg: ExperimentConfig) -> None:
    """Reject feature, eval and train settings that featurize, the day split
    or training cannot use, naming the config section and the field."""
    if not _is_int(cfg.max_nodes) or cfg.max_nodes < 1:
        raise CliError(f"config section 'feature': max_nodes must be an integer >= 1, "
                       f"not {cfg.max_nodes!r}")
    if not _is_int(cfg.feature_regions) or cfg.feature_regions < 0:
        raise CliError(f"config section 'feature': regions must be an integer >= 0, "
                       f"not {cfg.feature_regions!r}")
    frac = cfg.calibration_frac
    if not _is_real(frac) or not 0.0 < frac < 1.0:
        raise CliError(f"config section 'eval': calibration_frac must be a number in "
                       f"(0, 1), not {frac!r}")
    try:
        cfg.train.validate()
    except ValueError as exc:
        raise CliError(f"config section 'train': {exc}") from exc


def _require(path: Path, kind: str) -> Path:
    if not path.exists():
        raise CliError(f"missing {kind}: {path}")
    return path


def _load_dataset_dir(data_dir: Path):
    network, fp_net = persist.load_network(_require(data_dir / "network.json", "network"))
    snapshots, fp_snap = persist.load_snapshots(
        _require(data_dir / "snapshots.jsonl", "snapshots"))
    faults, fp_faults = persist.load_faults(_require(data_dir / "faults.jsonl", "faults"))
    if not (fp_net == fp_snap == fp_faults):
        raise CliError(f"dataset files in {data_dir} carry mismatched fingerprints")
    return network, snapshots, faults, fp_net


def _day_slice(ds, day: int, lo_slot: int = 0, hi_slot: float = math.inf):
    idx = [i for i, s in enumerate(ds.samples)
           if s.day == day and lo_slot <= s.slot < hi_slot]
    if not idx:
        raise CliError(f"features contain no samples for day {day} "
                       f"slots [{lo_slot}, {hi_slot})")
    return dataclasses.replace(ds, samples=[ds.samples[i] for i in idx])


def _train_cal_split(ds, day: int, calibration_frac: float):
    """Training and calibration slices of one day, cut by report.day_cut."""
    slots = {s.slot for s in ds.samples if s.day == day}
    if not slots:
        raise CliError(f"features contain no samples for day {day}")
    cut = report.day_cut(max(slots) + 1, calibration_frac)
    return _day_slice(ds, day, 0, cut), _day_slice(ds, day, cut)


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network, snapshots, faults, oracle = synth.build_dataset(cfg.synth)
    fp = persist.fingerprint(cfg.synth)
    persist.save_network(network, out / "network.json", fp)
    persist.save_snapshots(snapshots, out / "snapshots.jsonl", fp)
    persist.save_faults(faults, out / "faults.jsonl", fp)
    unstable = sum(1 for f in faults if f.label == 1)
    print(f"wrote {out}: {network.n_bus} buses, {len(network.elements)} elements, "
          f"{len(snapshots)} snapshots, {len(faults)} faults "
          f"({100.0 * unstable / len(faults):.1f}% unstable, tau={oracle.tau:.4f})")
    return EXIT_OK


def cmd_featurize(args) -> int:
    cfg = resolve_config(args)
    data_dir = Path(args.data)
    network, snapshots, faults, fp = _load_dataset_dir(data_dir)
    if args.days:
        wanted = {int(d) for d in args.days.split(",")}
        faults = [f for f in faults if f.day in wanted]
        snapshots = [s for s in snapshots if s.day in wanted]
    if not faults:
        days = f"days {sorted(wanted)}" if args.days else "any day"
        raise CliError(f"{data_dir} holds no faults for {days}")
    spec = report.default_feature_spec(cfg.feature_regions)
    ds = featurize(network, snapshots, faults, spec, max_nodes=cfg.max_nodes,
                   include_raw=True, synth_fingerprint=fp)
    out = Path(args.out) if args.out else data_dir / "features.npz"
    persist.save_features(ds, out)
    print(f"wrote {out}: {len(ds.samples)} samples, global dim {ds.global_dim}, "
          f"local {ds.max_nodes}x{ds.samples[0].local.node_features.shape[1]}")
    return EXIT_OK


def _resolve_variant(args) -> str:
    if getattr(args, "ablate", None):
        return ABLATION_ALIASES[args.ablate]
    return VARIANT_ALIASES[args.variant]


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    ds = persist.load_features(_require(Path(args.features), "features"))
    if args.data:
        _, _, _, fp = _load_dataset_dir(Path(args.data))
        if fp != ds.synth_fingerprint:
            raise CliError("features fingerprint does not match the dataset directory")
    variant = _resolve_variant(args)
    train_ds, cal_ds = _train_cal_split(ds, args.train_day, cfg.calibration_frac)
    result = train(variant, train_ds, cal_ds, cfg.model, cfg.train)
    out = Path(args.out) if args.out else Path("checkpoint.json")
    persist.save_checkpoint(result, out)
    persist.save_history_csv(result.history, out.with_suffix(".history.csv"))
    print(f"wrote {out}: variant {variant}, best epoch {result.best_epoch}, "
          f"threshold {result.threshold:.6g}")
    if not result.calibration_feasible:
        print("warning: reliability target not reachable on the calibration slice",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_eval(args) -> int:
    resolve_config(args)
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise CliError(f"--threshold must be a finite number, not {args.threshold!r}")
    result = persist.load_checkpoint(_require(Path(args.checkpoint), "checkpoint"))
    ds = persist.load_features(_require(Path(args.features), "features"))
    eval_ds = _day_slice(ds, args.day)
    scores = scores_for(result, eval_ds)
    threshold = args.threshold if args.threshold is not None else result.threshold
    row = compute_metrics(scores, eval_ds.labels(), threshold)
    rows = [report._row_dict(args.day, row)]
    print(report.format_table(rows))
    if args.out:
        persist.save_report_csv(rows, args.out)
    return EXIT_OK


def cmd_baseline(args) -> int:
    cfg = resolve_config(args)
    bundle = _bundle_from_dir(Path(args.data), cfg)
    pair = report.prepare_day_pair(bundle, args.train_day, args.eval_day)
    if args.baseline == "prevday":
        row = report.run_prev_day(bundle, pair, cfg.train.target_kkd)
    elif args.baseline == "svm":
        row = report.run_svm(bundle, pair, cfg.train.target_kkd)
    else:
        row, _ = report.run_model_system(pair, "MlpOnly", cfg.model, cfg.train)
    rows = [report._row_dict(args.baseline, row)]
    print(report.format_table(rows, label="baseline"))
    if args.out:
        persist.save_report_csv(rows, args.out)
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    bundle = _bundle_from_dir(Path(args.data), cfg)
    rows = report.ablation_table(bundle, args.train_day, args.eval_day)
    print(report.format_table(rows, label="variant"))
    if args.out:
        persist.save_report_csv(rows, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = resolve_config(args)
    bundle = _bundle_from_dir(Path(args.data), cfg)
    out_dir = Path(args.out) if args.out else Path(args.data)
    variant = VARIANT_ALIASES[args.variant]
    rows = report.daily_report(bundle, "model", variant=variant)
    print(report.format_table(rows))
    persist.save_report_csv(rows, out_dir / "report_daily.csv")
    if args.compare:
        train_day = cfg.synth.days - 2
        cmp_rows = report.comparison_table(bundle, train_day, train_day + 1)
        print()
        print(report.format_table(cmp_rows, label="model"))
        persist.save_report_csv(cmp_rows, out_dir / "report_compare.csv")
    return EXIT_OK


def _bundle_from_dir(data_dir: Path, cfg: ExperimentConfig) -> report.Bundle:
    network, snapshots, faults, fp = _load_dataset_dir(data_dir)
    # the stored dataset is authoritative for its own shape
    cfg.synth.n_bus = network.n_bus
    cfg.synth.days = max(s.day for s in snapshots) + 1
    cfg.synth.slots_per_day = max(s.slot for s in snapshots) + 1
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

    def common(p, data=False, features=False, pair=False):
        p.add_argument("--config", help="run-configuration JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output file or directory")
        p.add_argument("--target-kkd", dest="target_kkd", type=float)
        if data:
            p.add_argument("--data", required=True, help="dataset directory from synth")
        if features:
            p.add_argument("--features", required=True,
                           help="features .npz archive written by featurize")
        if pair:
            p.add_argument("--train-day", dest="train_day", type=int, required=True)
            p.add_argument("--eval-day", dest="eval_day", type=int, required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--buses", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--unstable-rate", dest="unstable_rate", type=float)
    p.set_defaults(func=cmd_synth)
    p.required_out = True

    p = sub.add_parser("featurize", help="turn a dataset into model features "
                                         "(default out: <data>/features.npz)")
    common(p, data=True)
    p.add_argument("--days", help="comma-separated day subset")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one model variant")
    common(p, features=True)
    p.add_argument("--data", help="dataset directory (for fingerprint checks)")
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="graph")
    p.add_argument("--ablate", choices=sorted(ABLATION_ALIASES))
    p.add_argument("--train-day", dest="train_day", type=int, required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one day")
    common(p, features=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run one baseline on a day pair")
    common(p, data=True, pair=True)
    p.add_argument("--baseline", choices=["prevday", "svm", "mlp"], required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("ablate", help="feature-family ablation table")
    common(p, data=True, pair=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="per-day report and model comparison")
    common(p, data=True)
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="graph")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_report)
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
