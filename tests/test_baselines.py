import numpy as np
import pytest

from gridstab.baselines import (
    PREV_DAY_THRESHOLD, PrevDayIndex, prev_day_scores, svm_train_expanded,
)
from gridstab.grid import STABLE, UNSTABLE, FaultSample
from gridstab.metrics import compute_metrics
from gridstab.model import ModelConfig, TrainConfig, scores_for, train

from conftest import make_toy_dataset


# ---------------------------------------------------------- previous day

def faults_for_day(day, labels_by_element):
    out = []
    for element_id, labels in labels_by_element.items():
        for slot, label in enumerate(labels):
            out.append(FaultSample(day=day, slot=slot, element_id=element_id,
                                   label=label))
    return out


def next_day_score(index, element_id):
    """The previous-day score of one fault on ``element_id`` the next day."""
    fault = FaultSample(day=index.day + 1, slot=0, element_id=element_id, label=None)
    return float(prev_day_scores(index, [fault])[0])


def test_prev_day_mean_rule():
    labels = [UNSTABLE] * 10 + [STABLE] * 86
    index = PrevDayIndex.from_faults(faults_for_day(0, {4: labels}), day=0)
    assert index.mean_label(4) == pytest.approx(10 / 96)
    assert next_day_score(index, 4) == index.mean_label(4) > PREV_DAY_THRESHOLD


def test_prev_day_all_stable_history():
    index = PrevDayIndex.from_faults(faults_for_day(0, {1: [STABLE] * 8}), day=0)
    assert next_day_score(index, 1) == 0.0


def test_prev_day_absent_element_predicts_stable():
    index = PrevDayIndex.from_faults([], day=0)
    assert next_day_score(index, 99) == 0.0


def test_prev_day_zero_threshold_flags_any_history():
    index = PrevDayIndex.from_faults(
        faults_for_day(0, {1: [STABLE] * 95 + [UNSTABLE]}), day=0)
    assert next_day_score(index, 1) == index.mean_label(1) > 0.0


def test_prev_day_scores_vector():
    index = PrevDayIndex.from_faults(
        faults_for_day(0, {0: [UNSTABLE, STABLE], 1: [STABLE, STABLE]}), day=0)
    faults = [FaultSample(day=1, slot=0, element_id=e, label=None) for e in (0, 1, 2)]
    assert prev_day_scores(index, faults).tolist() == [0.5, 0.0, 0.0]


# ------------------------------------------------------------------- SVM

def separable_cloud(n, seed):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([
        rng.normal(loc=(-3.0, -3.0), scale=0.4, size=(half, 2)),
        rng.normal(loc=(3.0, 3.0), scale=0.4, size=(n - half, 2)),
    ])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return x, y


def test_svm_separable_toy_zero_errors():
    x, y = separable_cloud(200, seed=33)
    params, accounting = svm_train_expanded(x, y, penalty=20000.0)
    pred = params.margins(x) >= 0.0
    assert np.array_equal(pred, y > 0.5)
    assert accounting["expanded"] >= accounting["truly_unstable"]


def test_svm_stage2_balanced():
    rng = np.random.default_rng(35)
    n = 400
    x = rng.normal(size=(n, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0.8).astype(float)
    params, accounting = svm_train_expanded(x, y)
    assert accounting["stage2_total"] == accounting["expanded"] + accounting["stage2_stable"]
    # balanced unless the stable pool ran out
    n_stable_outside = int((y < 0.5).sum()) - (
        accounting["expanded"] - accounting["truly_unstable"])
    expected = min(accounting["expanded"], n_stable_outside)
    assert accounting["stage2_stable"] == expected


def test_svm_single_class_rejected():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError):
        svm_train_expanded(x, np.ones(10))


def test_svm_accounting_identity_on_synthetic():
    rng = np.random.default_rng(37)
    n = 300
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] + rng.normal(scale=0.8, size=n) > 1.0).astype(float)
    params, acc = svm_train_expanded(x, y)
    margins = (x - params.feature_mu) / params.feature_sd @ params.weights  # noqa: F841
    assert acc["expanded"] <= acc["truly_unstable"] + acc["support_vectors"] + acc["false_positives"]
    assert acc["expanded"] >= max(acc["truly_unstable"], 1)


# ------------------------------------------------------------------- MLP

def test_mlp_baseline_separable():
    train_ds = make_toy_dataset(160, seed=39)
    result = train("MlpOnly", train_ds, train_ds,
                   ModelConfig(), TrainConfig(epochs=30, batch_size=16, seed=39,
                                              balance=False, target_kkd=100.0))
    assert result.variant == "MlpOnly"
    assert result.params["m1_w"].shape[1] == 200
    assert result.params["m2_w"].shape == (200, 100)
    scores = scores_for(result, train_ds)
    row = compute_metrics(scores, train_ds.labels(), result.threshold)
    assert row.acc == 100.0
