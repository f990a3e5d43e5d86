"""Screening metrics, reliability-constrained calibration, class balancing.

The four screening quantities: reliability kkd (recall on unstable faults),
redundancy ryd (flagged faults that were actually stable), compression ysl
(fraction of the fault set pruned from detailed simulation), and accuracy.
A sample is predicted unstable when its score is >= the threshold; ties
deliberately favor reliability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _is_real, check_fields

# the rule of a reliability target, as check_fields reads it
TARGET_KKD = (lambda v: _is_real(v) and 0.0 <= v <= 100.0, "a number in [0, 100]")


@dataclass(frozen=True)
class ConfusionCounts:
    """Raw counts behind the metric formulas."""

    s_f: int     # total fault samples
    s_tf: int    # truly unstable
    l: int       # missed unstable (predicted stable, truly unstable)
    p_ds: int    # predicted unstable
    p_df: int    # predicted unstable that are truly unstable

    def __post_init__(self):
        if not (0 <= self.l <= self.s_tf <= self.s_f):
            raise ValueError(f"inconsistent counts {self}")
        if self.p_df != self.s_tf - self.l or self.p_df > min(self.p_ds, self.s_tf):
            raise ValueError(f"inconsistent counts {self}")


@dataclass(frozen=True)
class MetricRow:
    kkd: float
    ryd: float
    ysl: float
    acc: float
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("kkd", "ryd", "ysl", "acc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name}={v} outside [0, 100]")

    def formatted(self) -> str:
        return f"{self.kkd:.2f} {self.ryd:.2f} {self.ysl:.2f} {self.acc:.2f}"


def confusion_counts(scores, labels, threshold: float) -> ConfusionCounts:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores/labels must be equal-length and non-empty")
    pred = scores >= threshold
    truth = labels > 0.5
    s_f = int(scores.size)
    s_tf = int(truth.sum())
    p_ds = int(pred.sum())
    p_df = int((pred & truth).sum())
    return ConfusionCounts(s_f=s_f, s_tf=s_tf, l=s_tf - p_df, p_ds=p_ds, p_df=p_df)


def metrics_from_counts(c: ConfusionCounts, threshold: float = 0.5) -> MetricRow:
    kkd = 100.0 if c.s_tf == 0 else 100.0 * (c.s_tf - c.l) / c.s_tf
    ryd = 0.0 if c.p_ds == 0 else 100.0 * (c.p_ds - c.p_df) / c.p_ds
    ysl = 100.0 * (c.s_f - c.p_ds) / c.s_f
    acc = 100.0 * (c.p_df + (c.s_f - c.s_tf - (c.p_ds - c.p_df))) / c.s_f
    return MetricRow(kkd=round(kkd, 2), ryd=round(ryd, 2), ysl=round(ysl, 2),
                     acc=round(acc, 2), threshold=threshold)


def compute_metrics(scores, labels, threshold: float) -> MetricRow:
    """All four screening percentages at one decision threshold."""
    return metrics_from_counts(confusion_counts(scores, labels, threshold), threshold)


def calibrate_threshold(scores, labels, target_kkd: float = 98.0) -> float:
    """Largest score value whose threshold keeps kkd >= target.

    Lower thresholds flag more samples, so this maximizes compression subject
    to the reliability constraint.  With k the least unstable count whose
    catch rate ``100 * k / s_tf`` reaches the target, it is the k-th largest
    unstable score, or the largest score when k is 0.  The lowest score
    catches every unstable sample, so any target in [0, 100] is reached.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise ValueError("calibration scores must be a 1-d vector of finite numbers")
    if labels.shape != scores.shape:
        raise ValueError(f"calibration labels have shape {labels.shape}, "
                         f"scores {scores.shape}")
    check_fields({"target_kkd": target_kkd}, {"target_kkd": TARGET_KKD})
    truth = labels > 0.5
    s_tf = int(truth.sum())
    if s_tf == 0:
        raise ValueError("calibration needs at least one unstable sample")
    # catch rates computed as metrics_from_counts computes kkd
    k = int(np.argmax(100.0 * np.arange(s_tf + 1) / s_tf >= target_kkd))
    if k == 0:
        return float(scores.max())
    return float(np.sort(scores[truth])[-k])


def balanced_rows(labels, seed: int) -> np.ndarray:
    """Rows of every unstable label (1), then of as many stable ones (0),
    each in order; stable rows are subsampled when they outnumber the
    unstable ones.  Deterministic in the seed; raises unless both classes
    are present."""
    labels = np.asarray(labels)
    unstable, stable = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    if not unstable.size or not stable.size:
        raise ValueError("undersampling needs both classes present")
    if len(stable) > len(unstable):
        rng = np.random.default_rng([seed, 7])
        stable = stable[np.sort(rng.choice(len(stable), size=len(unstable), replace=False))]
    return np.concatenate([unstable, stable])


def undersample_balance(samples, seed: int) -> list:
    """The items of ``samples`` at :func:`balanced_rows` of their ``label``
    attributes."""
    return [samples[i] for i in balanced_rows([s.label for s in samples], seed)]
