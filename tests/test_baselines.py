from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridstab import baselines
from gridstab.baselines import (
    PREV_DAY_THRESHOLD, _hinge_fit, prev_day_scores, svm_train_expanded,
)
from gridstab.grid import STABLE, UNSTABLE
from gridstab.metrics import compute_metrics
from gridstab.model import ModelConfig, TrainConfig, scores_for, train

from conftest import make_toy_dataset


# ---------------------------------------------------------- previous day

def day_history(labels_by_element):
    """The element ids and labels of one day's faults, one per slot and
    listed element."""
    pairs = [(element_id, label) for element_id, labels in labels_by_element.items()
             for label in labels]
    ids, labels = zip(*pairs) if pairs else ((), ())
    return list(ids), list(labels)


def next_day_score(history, element_id):
    """The previous-day score of one fault on ``element_id`` the next day."""
    return float(prev_day_scores(*history, [element_id])[0])


def test_prev_day_mean_rule():
    labels = [UNSTABLE] * 10 + [STABLE] * 86
    score = next_day_score(day_history({4: labels}), 4)
    assert score == pytest.approx(10 / 96) and score > PREV_DAY_THRESHOLD
    assert score == np.mean(labels)


def test_prev_day_all_stable_history():
    assert next_day_score(day_history({1: [STABLE] * 8}), 1) == 0.0


def test_prev_day_absent_element_predicts_stable():
    assert next_day_score(day_history({}), 99) == 0.0


def test_prev_day_zero_threshold_flags_any_history():
    labels = [STABLE] * 95 + [UNSTABLE]
    score = next_day_score(day_history({1: labels}), 1)
    assert score == np.mean(labels) > 0.0


def test_prev_day_scores_vector():
    history = day_history({0: [UNSTABLE, STABLE], 1: [STABLE, STABLE]})
    assert prev_day_scores(*history, [0, 1, 2]).tolist() == [0.5, 0.0, 0.0]


def test_prev_day_unlabeled_faults_are_no_history():
    assert prev_day_scores([0, 0, 0, 1], [UNSTABLE, -1, STABLE, -1], [0, 1]).tolist() == [
        0.5, 0.0]


def test_prev_day_scores_are_each_element_label_mean(small_world):
    """On every day of a generated world, each element's score has the
    bytes of ``np.mean`` over its labels that day, and 0 without any."""
    faults = small_world["faults"]
    ids = list(range(len(small_world["network"].elements)))
    for day in sorted({f.day for f in faults}):
        history = {}
        for f in faults:
            if f.day == day:
                history.setdefault(f.element_id, []).append(f.label)
        want = np.array([np.mean(history[i]) if i in history else 0.0 for i in ids])
        got = prev_day_scores(*day_history(history), ids)
        assert got.tobytes() == want.tobytes(), day


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


def _hinge_fit_reference(x: np.ndarray, y_signed: np.ndarray, sample_weight: np.ndarray,
                         penalty: float, iters: int = 400) -> tuple[np.ndarray, float]:
    """``baselines._hinge_fit`` as it was before it reduced over the active
    rows only, kept verbatim as the reference."""
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


# Dyadic values keep the first steps exact, so margins land exactly on 1.
SVM_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0]),
                       st.floats(-4.0, 4.0, allow_nan=False))
# Row 0 of class +1 and row 1 of class -1, mirrored, with a constant column of
# zeros of both signs: every row is active in step 1, and in step 2 both
# margins are exactly 1, so none is.
MIRRORED = [[1.0, 0.0], [-1.0, -0.0]]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 8, 16, 33]), d=st.integers(2, 5), data=st.data())
@example(n=2, d=2, data=None)
def test_svm_matches_reference_hinge_fit(n, d, data):
    """Reducing over the active rows only keeps every byte of the fit.  A
    one-column ``x`` is summed pairwise by numpy, so it is not covered."""
    if data is None:
        x, labels, weight = np.array(MIRRORED), np.array([1.0, 0.0]), np.ones(2)
    else:
        x = np.array(data.draw(st.lists(st.lists(SVM_VALUES, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        constant = data.draw(st.none() | st.integers(0, d - 1))
        if constant is not None:
            x[:, constant] = x[0, constant]
        labels = np.array([1.0, 0.0] + data.draw(
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n - 2, max_size=n - 2)))
        weight = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]),
                                             min_size=n, max_size=n)))
    y_signed = np.where(labels > 0.5, 1.0, -1.0)
    for iters in (2, 9):
        w, b = _hinge_fit(x, y_signed, weight, 20000.0, iters=iters)
        w_ref, b_ref = _hinge_fit_reference(x, y_signed, weight, 20000.0, iters=iters)
        assert w.tobytes() == w_ref.tobytes() and float(b).hex() == float(b_ref).hex()
    params, accounting = svm_train_expanded(x, labels)
    with mock.patch.object(baselines, "_hinge_fit", _hinge_fit_reference):
        ref, ref_accounting = svm_train_expanded(x, labels)
    assert params.weights.tobytes() == ref.weights.tobytes()
    assert float(params.bias).hex() == float(ref.bias).hex()
    assert accounting == ref_accounting


def test_mirrored_example_hits_margin_one():
    """The pinned example reaches the cases it is there for."""
    x, y = np.array(MIRRORED), np.array([1.0, -1.0])
    w, b = _hinge_fit(x, y, np.ones(2), 20000.0, iters=1)   # one step, all active
    assert (y * (x @ w + b)).tolist() == [1.0, 1.0]
    assert np.signbit(x[1, 1]) and not np.signbit(x[0, 1])


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
