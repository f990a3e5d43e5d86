"""Comparison systems: previous-day label averaging and the boundary-expansion
SVM.  The MLP baseline is the ``MlpOnly`` model variant (see :mod:`.model`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import FeaturizedDataset

PREV_DAY_THRESHOLD = 0.03


@dataclass
class PrevDayIndex:
    """Per-element label history over one day's slots."""

    day: int
    labels: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def from_faults(cls, faults, day: int) -> "PrevDayIndex":
        index = cls(day=day)
        for fs in faults:
            if fs.day == day:
                index.labels.setdefault(fs.element_id, []).append(int(fs.label))
        return index

    def mean_label(self, element_id: int) -> float:
        history = self.labels.get(element_id)
        return float(np.mean(history)) if history else 0.0


def prev_day_scores(index: PrevDayIndex, faults) -> np.ndarray:
    """Yesterday's per-element label mean as a score for each fault sample."""
    return np.array([index.mean_label(fs.element_id) for fs in faults])


# ------------------------------------------------------------------- SVM

@dataclass
class LinearSvmParams:
    weights: np.ndarray
    bias: float
    penalty: float
    feature_mu: np.ndarray
    feature_sd: np.ndarray

    def margins(self, features: np.ndarray) -> np.ndarray:
        x = (features - self.feature_mu) / self.feature_sd
        return x @ self.weights + self.bias


def _hinge_fit(x: np.ndarray, y_signed: np.ndarray, sample_weight: np.ndarray,
               penalty: float, iters: int = 400) -> tuple[np.ndarray, float]:
    """Deterministic averaged full-batch subgradient descent on the primal
    weighted hinge objective  lam/2 |w|^2 + mean(cw * hinge),
    with lam = 1 / (penalty * n)."""
    n, d = x.shape
    lam = 1.0 / (penalty * n)
    w = np.zeros(d)
    b = 0.0
    w_sum = np.zeros(d)
    b_sum = 0.0
    averaged = 0
    for t in range(1, iters + 1):
        margin = y_signed * (x @ w + b)
        active = margin < 1.0
        coeff = sample_weight * active * y_signed
        grad_w = lam * w - (coeff[:, None] * x).mean(axis=0)
        grad_b = -coeff.mean()
        step = 1.0 / np.sqrt(t)
        w -= step * grad_w
        b -= step * grad_b
        if t > iters // 2:
            w_sum += w
            b_sum += b
            averaged += 1
    return w_sum / averaged, b_sum / averaged


def svm_train_expanded(features: np.ndarray, labels: np.ndarray,
                       penalty: float = 20000.0):
    """Two-stage boundary-expansion training of a linear hinge classifier.

    Stage 1 trains on everything (class-weighted), then grows the unstable
    side with its support vectors (|margin| <= 1) and the stable samples it
    misflagged.  Stage 2 retrains on the expanded unstable set against the
    equally many stable samples closest to the boundary.

    Returns (LinearSvmParams, accounting dict).
    """
    labels = np.asarray(labels, dtype=float)
    features = np.asarray(features, dtype=float)
    if labels.min() == labels.max():
        raise ValueError("boundary expansion needs both classes present")
    n = labels.size
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    x = (features - mu) / sd
    y_signed = np.where(labels > 0.5, 1.0, -1.0)

    n_pos = int((labels > 0.5).sum())
    n_neg = n - n_pos
    class_weight = np.where(labels > 0.5, n / (2.0 * n_pos), n / (2.0 * n_neg))

    w1, b1 = _hinge_fit(x, y_signed, class_weight, penalty)
    margin = x @ w1 + b1

    truly_unstable = set(np.where(labels > 0.5)[0])
    support = set(np.where(np.abs(margin) <= 1.0)[0])
    false_pos = set(np.where((labels < 0.5) & (margin >= 0.0))[0])
    expanded = truly_unstable | support | false_pos
    accounting = {
        "truly_unstable": len(truly_unstable),
        "support_vectors": len(support),
        "false_positives": len(false_pos),
        "expanded": len(expanded),
    }

    stable_rest = np.array(sorted(set(range(n)) - expanded - truly_unstable), dtype=int)
    w_norm = float(np.linalg.norm(w1))
    distance = np.abs(margin[stable_rest]) / max(w_norm, 1e-12)
    take = min(len(expanded), stable_rest.size)
    nearest = stable_rest[np.argsort(distance, kind="stable")[:take]]

    idx2 = np.concatenate([np.array(sorted(expanded), dtype=int), nearest])
    y2 = np.concatenate([np.ones(len(expanded)), -np.ones(len(nearest))])
    x2 = x[idx2]
    weight2 = np.ones(idx2.size)
    w2, b2 = _hinge_fit(x2, y2, weight2, penalty, iters=800)

    params = LinearSvmParams(weights=w2, bias=b2, penalty=penalty,
                             feature_mu=mu, feature_sd=sd)
    accounting["stage2_stable"] = int(len(nearest))
    accounting["stage2_total"] = int(idx2.size)
    return params, accounting


def svm_dataset_features(dataset: FeaturizedDataset) -> np.ndarray:
    return np.stack([s.global_vec for s in dataset.samples])
