"""Day-by-day experiment orchestration: train on day d, calibrate on its
tail slice, evaluate on day d+1; comparison and ablation tables."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines, synth
from .features import (
    FeaturizedDataset, GlobalFeatureSpec, default_feature_spec, featurize, snapshot_globals,
)
from .grid import Network, Snapshot
from .metrics import MetricRow, calibrate_threshold, compute_metrics, undersample_balance
from .model import ModelConfig, TrainConfig, TrainResult, reads_raw, scores_for, train
from .persist import fingerprint

log = logging.getLogger(__name__)

COMPARISON_SYSTEMS = ("Baseline", "MLP", "SVM", "GraphModel", "GraphPool", "DeepCnn5")
ABLATION_ROWS = (
    ("full", "GraphModel"),
    ("no-global", "NoGlobal"),
    ("no-local", "NoLocal"),
    ("no-graph", "NoGraph"),
)


@dataclass
class ExperimentConfig:
    synth: synth.SynthConfig = field(default_factory=synth.SynthConfig)
    feature_regions: int = 0
    max_nodes: int = 50
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    calibration_frac: float = 0.2


@dataclass
class Bundle:
    """One generated world: network, all snapshots, labeled faults."""

    config: ExperimentConfig
    network: Network
    snapshots: list[Snapshot]
    faults: list
    spec: GlobalFeatureSpec
    synth_fingerprint: str

    def faults_of(self, day: int, lo_slot: int = 0, hi_slot: int | None = None) -> list:
        hi = math.inf if hi_slot is None else hi_slot
        return [f for f in self.faults if f.day == day and lo_slot <= f.slot < hi]


def build_bundle(config: ExperimentConfig) -> Bundle:
    network, snapshots, faults, _ = synth.build_dataset(config.synth)
    spec = default_feature_spec(config.feature_regions)
    return Bundle(
        config=config, network=network, snapshots=snapshots, faults=faults,
        spec=spec, synth_fingerprint=fingerprint(config.synth),
    )


@dataclass
class DayPair:
    train_day: int
    eval_day: int
    train_ds: FeaturizedDataset      # balanced training slice
    cal_ds: FeaturizedDataset        # raw calibration tail of the train day
    eval_ds: FeaturizedDataset       # full eval day


def day_cut(n_slots: int, calibration_frac: float) -> int:
    """First calibration slot of a day: training takes the slots before it,
    calibration the slots from it on, so no slot lands in both."""
    return max(1, int(round(n_slots * (1.0 - calibration_frac))))


def prepare_day_pair(bundle: Bundle, train_day: int, eval_day: int,
                     include_raw: bool = False) -> DayPair:
    cfg = bundle.config
    cut = day_cut(cfg.synth.slots_per_day, cfg.calibration_frac)
    train_faults = bundle.faults_of(train_day, 0, cut)
    cal_faults = bundle.faults_of(train_day, cut, None)
    eval_faults = bundle.faults_of(eval_day)
    if not train_faults or not cal_faults or not eval_faults:
        raise ValueError(f"missing day data for pair ({train_day}, {eval_day})")

    balanced = undersample_balance(train_faults, cfg.train.seed)
    kw = dict(spec=bundle.spec, max_nodes=cfg.max_nodes, include_raw=include_raw,
              synth_fingerprint=bundle.synth_fingerprint)
    return DayPair(
        train_day=train_day, eval_day=eval_day,
        train_ds=featurize(bundle.network, bundle.snapshots, balanced, **kw),
        cal_ds=featurize(bundle.network, bundle.snapshots, cal_faults, **kw),
        eval_ds=featurize(bundle.network, bundle.snapshots, eval_faults, **kw),
    )


def train_on_pair(pair: DayPair, variant: str, model_config: ModelConfig,
                  train_config: TrainConfig) -> TrainResult:
    tc = TrainConfig(**{**train_config.__dict__, "balance": False})
    return train(variant, pair.train_ds, pair.cal_ds, model_config, tc)


def evaluate_model(pair: DayPair, result: TrainResult) -> MetricRow:
    scores = scores_for(result, pair.eval_ds)
    return compute_metrics(scores, pair.eval_ds.labels(), result.threshold)


def run_model_system(pair: DayPair, variant: str, model_config: ModelConfig,
                     train_config: TrainConfig) -> tuple[MetricRow, TrainResult]:
    result = train_on_pair(pair, variant, model_config, train_config)
    return evaluate_model(pair, result), result


def run_prev_day(bundle: Bundle, pair: DayPair, target_kkd: float) -> MetricRow:
    """Previous-day baseline: calibrate on the train-day tail scored by the
    day before it, then predict the eval day from the train day's labels."""
    train_day = pair.train_day
    eval_index = baselines.PrevDayIndex.from_faults(bundle.faults, train_day)
    scores = baselines.prev_day_scores(eval_index, pair.eval_ds.samples)
    if train_day >= 1:
        cal_index = baselines.PrevDayIndex.from_faults(bundle.faults, train_day - 1)
        cal_scores = baselines.prev_day_scores(cal_index, pair.cal_ds.samples)
        threshold = calibrate_threshold(cal_scores, pair.cal_ds.labels(), target_kkd)
    else:
        threshold = baselines.PREV_DAY_THRESHOLD + 1e-9
    return compute_metrics(scores, pair.eval_ds.labels(), threshold)


def run_svm(bundle: Bundle, pair: DayPair, target_kkd: float) -> MetricRow:
    cfg = bundle.config
    cut = day_cut(cfg.synth.slots_per_day, cfg.calibration_frac)
    train_faults = bundle.faults_of(pair.train_day, 0, cut)
    per_snapshot = snapshot_globals(bundle.network, bundle.snapshots, train_faults,
                                    bundle.spec)
    x_train = np.stack([per_snapshot[(f.day, f.slot)][1] for f in train_faults])
    y_train = np.array([f.label for f in train_faults], dtype=float)
    params, accounting = baselines.svm_train_expanded(x_train, y_train)
    log.info("svm expansion: %s", accounting)

    cal_x = baselines.svm_dataset_features(pair.cal_ds)
    threshold = calibrate_threshold(params.margins(cal_x), pair.cal_ds.labels(), target_kkd)
    eval_x = baselines.svm_dataset_features(pair.eval_ds)
    return compute_metrics(params.margins(eval_x), pair.eval_ds.labels(), threshold)


def daily_report(bundle: Bundle, system: str, days: list[int] | None = None,
                 variant: str = "GraphModel") -> list[dict]:
    """One row per (train day d, eval day d+1) window.

    ``system`` is "model", "prevday" or "svm"; for "model" the variant
    selects the architecture.
    """
    cfg = bundle.config
    if days is None:
        days = list(range(cfg.synth.days - 1))
    raw = system == "model" and reads_raw(variant, cfg.model)
    rows = []
    for d in days:
        pair = prepare_day_pair(bundle, d, d + 1, include_raw=raw)
        if system == "model":
            row, _ = run_model_system(pair, variant, cfg.model, cfg.train)
        elif system == "prevday":
            row = run_prev_day(bundle, pair, cfg.train.target_kkd)
        elif system == "svm":
            row = run_svm(bundle, pair, cfg.train.target_kkd)
        else:
            raise ValueError(f"unknown system {system!r}")
        rows.append(_row_dict(d + 1, row))
    return rows


def comparison_table(bundle: Bundle, train_day: int, eval_day: int) -> list[dict]:
    """The six-system comparison on one day pair."""
    cfg = bundle.config
    pair = prepare_day_pair(bundle, train_day, eval_day, include_raw=True)
    rows = []
    for name in COMPARISON_SYSTEMS:
        if name == "Baseline":
            row = run_prev_day(bundle, pair, cfg.train.target_kkd)
        elif name == "SVM":
            row = run_svm(bundle, pair, cfg.train.target_kkd)
        elif name == "MLP":
            row, _ = run_model_system(pair, "MlpOnly", cfg.model, cfg.train)
        else:
            row, _ = run_model_system(pair, name, cfg.model, cfg.train)
        rows.append(_row_dict(name, row))
        log.info("comparison %s: %s", name, row.formatted())
    return rows


def ablation_table(bundle: Bundle, train_day: int, eval_day: int) -> list[dict]:
    """Full model against the three variants that each remove one feature family."""
    cfg = bundle.config
    raw = any(reads_raw(variant, cfg.model) for _, variant in ABLATION_ROWS)
    pair = prepare_day_pair(bundle, train_day, eval_day, include_raw=raw)
    rows = []
    for label, variant in ABLATION_ROWS:
        row, _ = run_model_system(pair, variant, cfg.model, cfg.train)
        rows.append(_row_dict(label, row))
        log.info("ablation %s: %s", label, row.formatted())
    return rows


def _row_dict(date, row: MetricRow) -> dict:
    return {
        "date": date, "threshold": row.threshold,
        "kkd": row.kkd, "ryd": row.ryd, "ysl": row.ysl, "acc": row.acc,
    }


def format_table(rows: list[dict], label: str = "date") -> str:
    """Aligned text table matching the report column convention."""
    header = f"{label:<12} {'kkd':>7} {'ryd':>7} {'ysl':>7} {'acc':>7}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{str(r['date']):<12} {r['kkd']:>7.2f} {r['ryd']:>7.2f} "
            f"{r['ysl']:>7.2f} {r['acc']:>7.2f}"
        )
    return "\n".join(lines)
