import numpy as np
import pytest

from gridstab.metrics import (
    ConfusionCounts, calibrate_threshold, compute_metrics, confusion_counts,
    metrics_from_counts, undersample_balance,
)


def brute_force_metrics(scores, labels, threshold):
    """Independent confusion-matrix accounting with plain loops."""
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        pred = s >= threshold
        if pred and y:
            tp += 1
        elif pred and not y:
            fp += 1
        elif not pred and y:
            fn += 1
        else:
            tn += 1
    total = tp + fp + tn + fn
    unstable = tp + fn
    flagged = tp + fp
    kkd = 100.0 if unstable == 0 else 100.0 * tp / unstable
    ryd = 0.0 if flagged == 0 else 100.0 * fp / flagged
    ysl = 100.0 * (total - flagged) / total
    acc = 100.0 * (tp + tn) / total
    return round(kkd, 2), round(ryd, 2), round(ysl, 2), round(acc, 2)


def test_worked_example():
    # S_f=1000, S_tf=100, L=2, P_ds=300 => P_df=98
    counts = ConfusionCounts(s_f=1000, s_tf=100, l=2, p_ds=300, p_df=98)
    row = metrics_from_counts(counts)
    assert (row.kkd, row.ryd, row.ysl, row.acc) == (98.0, 67.33, 70.0, 79.6)


def test_perfect_predictor():
    scores = np.concatenate([np.ones(100), np.zeros(900)])
    labels = np.concatenate([np.ones(100), np.zeros(900)])
    row = compute_metrics(scores, labels, threshold=0.5)
    assert (row.kkd, row.ryd, row.ysl, row.acc) == (100.0, 0.0, 90.0, 100.0)


def test_row_formatting_matches_report_convention():
    row = metrics_from_counts(ConfusionCounts(1000, 100, 2, 300, 98))
    assert row.formatted() == "98.00 67.33 70.00 79.60"


def test_conventions_for_degenerate_counts():
    # no unstable samples at all -> kkd 100; nothing flagged -> ryd 0
    row = compute_metrics(np.array([0.1, 0.2]), np.array([0.0, 0.0]), 0.9)
    assert row.kkd == 100.0 and row.ryd == 0.0


def test_ties_predict_unstable():
    row = compute_metrics(np.array([0.5]), np.array([1.0]), 0.5)
    assert row.kkd == 100.0


def test_compute_metrics_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        scores = rng.uniform(size=n).round(2)
        labels = (rng.uniform(size=n) < 0.3).astype(float)
        threshold = float(rng.uniform())
        row = compute_metrics(scores, labels, threshold)
        assert (row.kkd, row.ryd, row.ysl, row.acc) == brute_force_metrics(
            scores, labels, threshold)


def test_counts_invariants_enforced():
    with pytest.raises(ValueError):
        ConfusionCounts(s_f=10, s_tf=20, l=0, p_ds=5, p_df=5)
    with pytest.raises(ValueError):
        ConfusionCounts(s_f=10, s_tf=5, l=0, p_ds=3, p_df=5)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.array([]), np.array([]), 0.5)


def test_calibrate_small_example():
    scores = np.array([0.9, 0.8, 0.1])
    labels = np.array([1.0, 1.0, 0.0])
    threshold, feasible = calibrate_threshold(scores, labels, target_kkd=100.0)
    assert feasible and threshold == 0.8
    row = compute_metrics(scores, labels, threshold)
    assert row.kkd == 100.0 and row.ysl == pytest.approx(33.33)


def test_calibrate_all_scored_one():
    scores = np.ones(5)
    labels = np.ones(5)
    threshold, feasible = calibrate_threshold(scores, labels, 100.0)
    assert feasible and threshold == 1.0


def test_calibrate_returns_score_value():
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=200)
    labels = (rng.uniform(size=200) < 0.2).astype(float)
    threshold, feasible = calibrate_threshold(scores, labels, 98.0)
    assert feasible and (threshold in scores or threshold == 0.0)


def test_calibrate_requires_unstable():
    with pytest.raises(ValueError):
        calibrate_threshold(np.array([0.5]), np.array([0.0]), 98.0)


def test_threshold_monotonicity_sweep():
    rng = np.random.default_rng(29)
    scores = rng.uniform(size=400)
    labels = (rng.uniform(size=400) < 0.15).astype(float)
    rows = [compute_metrics(scores, labels, float(t))   # descending thresholds
            for t in np.unique(scores)[::-1]]
    for earlier, later in zip(rows, rows[1:]):
        assert later.kkd >= earlier.kkd     # lowering threshold never lowers kkd
        assert later.ysl <= earlier.ysl     # and never raises compression


class _Labeled:
    def __init__(self, idx, label):
        self.idx = idx
        self.label = label


def test_undersample_balances_classes():
    samples = [_Labeled(i, 1 if i < 10 else 0) for i in range(100)]
    out = undersample_balance(samples, seed=5)
    labels = [s.label for s in out]
    assert labels.count(1) == labels.count(0) == 10
    assert len(out) == 20   # 10% unstable input -> 20% of input size
    # every unstable sample retained
    assert {s.idx for s in out if s.label == 1} == set(range(10))


def test_undersample_deterministic():
    samples = [_Labeled(i, 1 if i % 7 == 0 else 0) for i in range(70)]
    a = undersample_balance(samples, seed=9)
    b = undersample_balance(samples, seed=9)
    assert [s.idx for s in a] == [s.idx for s in b]


def test_undersample_single_class_rejected():
    with pytest.raises(ValueError):
        undersample_balance([_Labeled(0, 1)], seed=0)
