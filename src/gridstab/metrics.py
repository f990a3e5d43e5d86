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


def calibrate_threshold(scores, labels, target_kkd: float = 98.0
                        ) -> tuple[float, bool]:
    """Largest score value whose threshold keeps kkd >= target.

    Later thresholds flag fewer samples, so this maximizes compression
    subject to the reliability constraint.  Returns (threshold, feasible);
    when even flagging everything misses the target the threshold falls
    back to 0 with feasible=False.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    truth = labels > 0.5
    s_tf = int(truth.sum())
    if s_tf == 0:
        raise ValueError("calibration needs at least one unstable sample")
    unstable_scores = np.sort(scores[truth])

    def kkd_at(threshold: float) -> float:
        caught = unstable_scores.size - np.searchsorted(
            unstable_scores, threshold, side="left")
        return 100.0 * caught / s_tf

    for threshold in np.unique(scores)[::-1]:
        if kkd_at(float(threshold)) >= target_kkd:
            return float(threshold), True
    if kkd_at(0.0) >= target_kkd:
        return 0.0, True
    return 0.0, False


def undersample_balance(samples, seed: int):
    """Keep every unstable sample, subsample stable ones to the same count.

    ``samples`` is any sequence whose items expose a ``label`` attribute.
    Deterministic in the seed; raises unless both classes are present.
    """
    unstable = [s for s in samples if s.label == 1]
    stable = [s for s in samples if s.label == 0]
    if not unstable or not stable:
        raise ValueError("undersampling needs both classes present")
    if len(stable) <= len(unstable):
        return list(unstable) + list(stable)
    rng = np.random.default_rng([seed, 7])
    picked = rng.choice(len(stable), size=len(unstable), replace=False)
    return list(unstable) + [stable[i] for i in sorted(picked)]
