"""Comparison systems: previous-day label averaging and the boundary-expansion
SVM.  The MLP baseline is the ``MlpOnly`` model variant (see :mod:`.model`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PREV_DAY_THRESHOLD = 0.03


def prev_day_scores(day_ids, day_labels, element_ids) -> np.ndarray:
    """Each of ``element_ids``' mean label over one day's labeled faults,
    whose element ids and labels are ``day_ids`` and ``day_labels`` (-1 for
    unlabeled); 0 for an element with no labeled fault that day."""
    day_ids, day_labels, element_ids = (np.asarray(a, dtype=np.int64)
                                        for a in (day_ids, day_labels, element_ids))
    day_ids, day_labels = day_ids[day_labels >= 0], day_labels[day_labels >= 0]
    size = max(day_ids.max(initial=-1), element_ids.max(initial=-1)) + 1
    count = np.bincount(day_ids, minlength=size)
    total = np.bincount(day_ids, weights=day_labels.astype(float), minlength=size)
    return np.divide(total, count, out=np.zeros(size), where=count > 0)[element_ids]


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
        # Inactive rows add only signed zeros.  numpy sums axis 0 of a
        # matrix of two or more columns row by row, so leaving them out keeps
        # every bit but the sign of an all-zero sum, which lam * w - sum
        # cannot show.  (One column is summed pairwise and may round apart.)
        rows = np.flatnonzero(active)
        grad_w = lam * w - np.add.reduce(coeff[rows, None] * x[rows], axis=0) / n
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

    support = np.abs(margin) <= 1.0
    false_pos = (labels < 0.5) & (margin >= 0.0)
    grown = (labels > 0.5) | support | false_pos
    expanded, stable_rest = np.flatnonzero(grown), np.flatnonzero(~grown)
    accounting = {
        "truly_unstable": n_pos,
        "support_vectors": int(np.count_nonzero(support)),
        "false_positives": int(np.count_nonzero(false_pos)),
        "expanded": expanded.size,
    }

    w_norm = float(np.linalg.norm(w1))
    distance = np.abs(margin[stable_rest]) / max(w_norm, 1e-12)
    take = min(expanded.size, stable_rest.size)
    nearest = stable_rest[np.argsort(distance, kind="stable")[:take]]

    idx2 = np.concatenate([expanded, nearest])
    y2 = np.concatenate([np.ones(expanded.size), -np.ones(len(nearest))])
    x2 = x[idx2]
    weight2 = np.ones(idx2.size)
    w2, b2 = _hinge_fit(x2, y2, weight2, penalty, iters=800)

    params = LinearSvmParams(weights=w2, bias=b2, penalty=penalty,
                             feature_mu=mu, feature_sd=sd)
    accounting["stage2_stable"] = int(len(nearest))
    accounting["stage2_total"] = int(idx2.size)
    return params, accounting

