"""Day-by-day experiment orchestration: train on day d, calibrate on its
tail slice, evaluate on day d+1; comparison and ablation tables."""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, synth
from .features import (
    FAULT_COLUMNS, FeaturizedDataset, GlobalFeatureSpec, default_feature_spec, featurize,
    int_columns,
)
from .grid import Network, Snapshot
from .metrics import MetricRow, balanced_rows, calibrate_threshold, compute_metrics
from .model import (
    VARIANTS, ModelConfig, TrainConfig, TrainResult, reads_raw, scores_for, train,
)
from .persist import fingerprint

log = logging.getLogger(__name__)

# (row label, system) of each table
COMPARISON_ROWS = (
    ("Baseline", "prevday"), ("MLP", "MlpOnly"), ("SVM", "svm"),
    ("GraphModel", "GraphModel"), ("GraphPool", "GraphPool"), ("DeepCnn5", "DeepCnn5"),
)
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
    """One generated world: network, all snapshots, and its faults as the
    int64 :data:`~features.FAULT_COLUMNS` (``label`` -1 when unlabeled)."""

    config: ExperimentConfig
    network: Network
    snapshots: list[Snapshot]
    faults: dict[str, np.ndarray]
    spec: GlobalFeatureSpec
    synth_fingerprint: str

    @property
    def days(self) -> int:
        """The number of days of the data: its last snapshot's day + 1."""
        return max((s.day for s in self.snapshots), default=-1) + 1

    def faults_of(self, day: int) -> dict[str, np.ndarray]:
        """The fault columns of ``day``'s faults, in their order."""
        keep = self.faults["day"] == day
        return {name: column[keep] for name, column in self.faults.items()}


def build_bundle(config: ExperimentConfig) -> Bundle:
    network, snapshots, faults, _ = synth.build_dataset(config.synth)
    spec = default_feature_spec(config.feature_regions)
    return Bundle(
        config=config, network=network, snapshots=snapshots,
        faults=int_columns(faults, FAULT_COLUMNS), spec=spec,
        synth_fingerprint=fingerprint(config.synth),
    )


@dataclass
class DayPair:
    """Views of one featurized train day and the featurized eval day."""

    train_day: int
    eval_day: int
    train_ds: FeaturizedDataset      # training slots of the train day, balanced or not
    cal_ds: FeaturizedDataset        # calibration tail of the train day
    eval_ds: FeaturizedDataset       # full eval day
    fit_ds: FeaturizedDataset        # every fault of the training slots


def day_cut(n_slots: int, calibration_frac: float) -> int:
    """First calibration slot of a day: training takes the slots before it,
    calibration the slots from it on, so no slot lands in both."""
    return max(1, int(round(n_slots * (1.0 - calibration_frac))))


def day_slice(dataset: FeaturizedDataset, day: int, lo_slot: int = 0,
              hi_slot: float = math.inf) -> FeaturizedDataset:
    """The view of ``day``'s samples in slots [lo_slot, hi_slot); a
    ValueError when there are none."""
    slot = dataset.columns["slot"]
    rows = np.flatnonzero((dataset.columns["day"] == day) & (lo_slot <= slot)
                          & (slot < hi_slot))
    if not rows.size:
        raise ValueError(f"features contain no samples for day {day} "
                         f"slots [{lo_slot}, {hi_slot})")
    return dataset.take(rows)


def split_day(dataset: FeaturizedDataset, day: int,
              calibration_frac: float) -> tuple[FeaturizedDataset, FeaturizedDataset]:
    """The training and calibration views of ``day``, cut by :func:`day_cut`
    on the day's own slot count (its last slot + 1)."""
    whole = day_slice(dataset, day)
    cut = day_cut(int(whole.columns["slot"].max()) + 1, calibration_frac)
    return day_slice(whole, day, 0, cut), day_slice(whole, day, cut)


def prepare_day_pair(bundle: Bundle, train_day: int, eval_day: int,
                     include_raw: bool = False,
                     train_day_ds: FeaturizedDataset | None = None) -> DayPair:
    """Featurize the train day once, unless ``train_day_ds`` already holds
    it, and split it (:func:`split_day`); the training view is balanced
    when ``train.balance`` is set.
    Featurize the eval day.  A ValueError names the two days, before
    anything is featurized, when they are one day or either has no faults."""
    cfg = bundle.config
    if train_day == eval_day:
        raise ValueError(f"train day {train_day} and eval day {eval_day} are one day: "
                         f"its eval rows would hold its training and calibration slots")
    kw = dict(spec=bundle.spec, max_nodes=cfg.max_nodes, include_raw=include_raw,
              synth_fingerprint=bundle.synth_fingerprint)
    train_faults, eval_faults = bundle.faults_of(train_day), bundle.faults_of(eval_day)
    if not train_faults["day"].size or not eval_faults["day"].size:
        raise ValueError(f"missing day data for pair ({train_day}, {eval_day})")
    if train_day_ds is None:
        train_day_ds = featurize(bundle.network, bundle.snapshots, train_faults, **kw)
    fit_ds, cal_ds = split_day(train_day_ds, train_day, cfg.calibration_frac)
    train_ds = fit_ds
    if cfg.train.balance:
        train_ds = fit_ds.take(balanced_rows(fit_ds.columns["label"], cfg.train.seed))
    return DayPair(
        train_day=train_day, eval_day=eval_day, train_ds=train_ds, cal_ds=cal_ds,
        eval_ds=featurize(bundle.network, bundle.snapshots, eval_faults, **kw),
        fit_ds=fit_ds,
    )


def train_on_pair(pair: DayPair, variant: str, model_config: ModelConfig,
                  train_config: TrainConfig) -> TrainResult:
    tc = TrainConfig(**{**train_config.__dict__, "balance": False})
    return train(variant, pair.train_ds, pair.cal_ds, model_config, tc)


def evaluate_model(pair: DayPair, result: TrainResult) -> MetricRow:
    scores = scores_for(result, pair.eval_ds)
    return compute_metrics(scores, pair.eval_ds.labels(), result.threshold)


def run_prev_day(bundle: Bundle, pair: DayPair, target_kkd: float) -> MetricRow:
    """Previous-day baseline: calibrate on the train-day tail scored by the
    day before it, then predict the eval day from the train day's labels."""
    def scores(day: int, ds: FeaturizedDataset) -> np.ndarray:
        history = bundle.faults_of(day)
        return baselines.prev_day_scores(history["element_id"], history["label"],
                                         ds.columns["element_id"])

    train_day = pair.train_day
    if train_day >= 1:
        cal_scores = scores(train_day - 1, pair.cal_ds)
        threshold = calibrate_threshold(cal_scores, pair.cal_ds.labels(), target_kkd)
    else:
        threshold = baselines.PREV_DAY_THRESHOLD + 1e-9
    return compute_metrics(scores(train_day, pair.eval_ds), pair.eval_ds.labels(), threshold)


def run_svm(bundle: Bundle, pair: DayPair, target_kkd: float) -> MetricRow:
    """The boundary-expansion SVM on the global vectors of every fault of the
    training slots (unbalanced), calibrated on the train-day tail."""
    params, accounting = baselines.svm_train_expanded(pair.fit_ds.global_rows(),
                                                      pair.fit_ds.labels())
    log.info("svm expansion: %s", accounting)
    cal_margins = params.margins(pair.cal_ds.global_rows())
    threshold = calibrate_threshold(cal_margins, pair.cal_ds.labels(), target_kkd)
    return compute_metrics(params.margins(pair.eval_ds.global_rows()), pair.eval_ds.labels(),
                           threshold)


def run_system(bundle: Bundle, pair: DayPair, system: str) -> MetricRow:
    """The row of ``system`` on ``pair``: "prevday", "svm" or a model variant."""
    cfg = bundle.config
    if system == "prevday":
        return run_prev_day(bundle, pair, cfg.train.target_kkd)
    if system == "svm":
        return run_svm(bundle, pair, cfg.train.target_kkd)
    return evaluate_model(pair, train_on_pair(pair, system, cfg.model, cfg.train))


def run_systems(bundle: Bundle, pair: DayPair, systems,
                rows: dict | None = None) -> dict[str, MetricRow]:
    """The row of each distinct system of ``systems`` on ``pair``, each run
    once; a system already in ``rows`` (rows of this pair) is not run again."""
    rows = dict(rows or {})
    for system in systems:
        if system not in rows:
            rows[system] = run_system(bundle, pair, system)
            log.info("%s on days (%d, %d): %s", system, pair.train_day, pair.eval_day,
                     rows[system].formatted())
    return rows


def _include_raw(bundle: Bundle, systems) -> bool:
    """Whether a system of ``systems`` reads raw bus states; a ValueError
    names those that :func:`run_system` does not know."""
    unknown = set(systems) - {"prevday", "svm", *VARIANTS}
    if unknown:
        raise ValueError(f"unknown systems {sorted(unknown)}")
    return any(reads_raw(system, bundle.config.model) for system in systems
               if system in VARIANTS)


def daily_report(bundle: Bundle, system: str,
                 compare: bool = False) -> tuple[list[dict], list[dict]]:
    """The rows of ``system`` (any name :func:`run_system` takes), one per
    (train day d, eval day d+1) pair, and, with ``compare``, the
    :data:`COMPARISON_ROWS` table on the last pair (else no rows).

    Each day is featurized once, with raw states when a system of the run
    reads them: a pair's eval day is the next pair's train day.  The
    comparison reuses the last pair and ``system``'s row on it.
    """
    compared = [name for _, name in COMPARISON_ROWS] if compare else []
    raw = _include_raw(bundle, [system, *compared])
    if compare and bundle.days < 2:
        raise ValueError("the comparison needs a day pair, and the data holds day 0 only")
    daily, pair = [], None
    for day in range(1, bundle.days):
        pair = prepare_day_pair(bundle, day - 1, day, raw, pair and pair.eval_ds)
        rows = run_systems(bundle, pair, [system])
        daily.append(_row_dict(day, rows[system]))
    if not compare:
        return daily, []
    rows = run_systems(bundle, pair, compared, rows)
    return daily, [_row_dict(label, rows[name]) for label, name in COMPARISON_ROWS]


def comparison_table(bundle: Bundle, train_day: int, eval_day: int) -> list[dict]:
    """The six-system comparison on one day pair."""
    return pair_table(bundle, train_day, eval_day, COMPARISON_ROWS)


def ablation_table(bundle: Bundle, train_day: int, eval_day: int) -> list[dict]:
    """Full model against the three variants that each remove one feature family."""
    return pair_table(bundle, train_day, eval_day, ABLATION_ROWS)


def pair_table(bundle: Bundle, train_day: int, eval_day: int, table: tuple) -> list[dict]:
    """The (label, system) rows of ``table`` on one day pair, featurized with
    raw states when a system reads them."""
    systems = [system for _, system in table]
    pair = prepare_day_pair(bundle, train_day, eval_day, _include_raw(bundle, systems))
    rows = run_systems(bundle, pair, systems)
    return [_row_dict(label, rows[system]) for label, system in table]


def _row_dict(date, row: MetricRow) -> dict:
    return {"date": date, **asdict(row)}


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
