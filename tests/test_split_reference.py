"""The day split and the report's day pair as views, pinned against the
object paths they replaced.

Before a dataset was int columns over one store, ``gridstab train`` cut a
featurized day with ``dataclasses.replace(ds, samples=...)`` slices and then
balanced the training slice the same way, and ``report.prepare_day_pair``
balanced the train day's faults and featurized the balanced, calibration and
eval faults one call each.  Those paths are kept below as references.
``replace`` with new samples built a new dataset from them, as
``with_samples`` does.  On a small world with raw states the views must give
the same samples in the same order, the same bytes for every model input
(``global``, ``raw``, ``ids`` and the gathered ``local`` rows) and the same
bytes for every scaler.  The comparison table is pinned by a digest of its
rows taken before the change.
"""

import hashlib
import math

import numpy as np
import pytest

from gridstab import baselines, report
from gridstab.features import featurize, snapshot_globals
from gridstab.metrics import balanced_rows
from gridstab.model import ModelConfig, ScreeningModel, TrainConfig, _dims_for, train
from gridstab.synth import SynthConfig, build_dataset

from conftest import same_array, with_samples

WORLD = SynthConfig(n_bus=24, days=3, slots_per_day=10, seed=5)
# One configuration reads the global statistics, the other the raw states;
# both read the local rows and the element ids.
CONFIGS = (
    ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12, sid_hidden=4),
    ModelConfig(global_encoder="rawcnn", gcn_hidden=8, sg_dim=8, sl_dim=8,
                sid_hidden=4, cnn_channels=4),
)
TINY_COMPARISON = "d9e2449db6a65a5e"


# ------------------------------------------------------------- the references

def ref_undersample_balance(samples, seed):
    unstable = [s for s in samples if s.label == 1]
    stable = [s for s in samples if s.label == 0]
    if len(stable) <= len(unstable):
        return list(unstable) + list(stable)
    rng = np.random.default_rng([seed, 7])
    picked = rng.choice(len(stable), size=len(unstable), replace=False)
    return list(unstable) + [stable[i] for i in sorted(picked)]


def ref_day_slice(ds, day, lo_slot=0, hi_slot=math.inf):
    samples = ds.samples
    idx = [i for i, s in enumerate(samples) if s.day == day and lo_slot <= s.slot < hi_slot]
    assert idx
    return with_samples(ds, [samples[i] for i in idx])


def ref_train_cal_split(ds, day, calibration_frac):
    slots = {s.slot for s in ds.samples if s.day == day}
    cut = report.day_cut(max(slots) + 1, calibration_frac)
    return ref_day_slice(ds, day, 0, cut), ref_day_slice(ds, day, cut)


def ref_prepare_day_pair(bundle, train_day, eval_day, include_raw):
    cfg = bundle.config
    cut = report.day_cut(cfg.synth.slots_per_day, cfg.calibration_frac)
    _, _, faults, _ = build_dataset(cfg.synth)      # the fault objects, not the bundle's

    def faults_of(day, lo=0, hi=math.inf):
        return [f for f in faults if f.day == day and lo <= f.slot < hi]

    balanced = ref_undersample_balance(faults_of(train_day, 0, cut), cfg.train.seed)
    kw = dict(spec=bundle.spec, max_nodes=cfg.max_nodes, include_raw=include_raw,
              synth_fingerprint=bundle.synth_fingerprint)
    return [featurize(bundle.network, bundle.snapshots, faults, **kw)
            for faults in (balanced, faults_of(train_day, cut), faults_of(eval_day))]


# ---------------------------------------------------------------- the checks

def keys(ds):
    return [(s.day, s.slot, s.element_id, s.label) for s in ds.samples]


def assert_same_reads(got, want):
    """Same samples in the same order, and every input a model reads from
    them, and every scaler it fits to them, byte for byte."""
    assert keys(got) == keys(want)
    n = len(want.samples)
    orders = (range(n), np.random.default_rng(n).permutation(n)[:37])
    for config in CONFIGS:
        models = []
        for ds in (got, want):
            models.append(ScreeningModel("GraphModel", config, _dims_for(ds)))
            models[-1].fit_scalers(ds)
        assert sorted(models[0].scalers) == sorted(models[1].scalers)
        for name, scaler in models[1].scalers.items():
            assert same_array(models[0].scalers[name], scaler), name
        for rows in orders:
            a, b = (model.index_batch(ds, rows) for model, ds in zip(models, (got, want)))
            for key in ("global", "raw", "ids"):
                assert (a[key] is None) == (b[key] is None), key
                assert b[key] is None or same_array(a[key], b[key]), key
            for x, y in zip(a["local"].gather(), b["local"].gather()):
                assert same_array(x, y)


@pytest.fixture(scope="module")
def bundle():
    return report.build_bundle(report.ExperimentConfig(synth=WORLD))


def test_cli_split_views_read_like_the_replace_slices(bundle):
    cfg = bundle.config
    ds = featurize(bundle.network, bundle.snapshots, bundle.faults, bundle.spec,
                   include_raw=True, synth_fingerprint=bundle.synth_fingerprint)
    for day in (0, 2):
        train_view, cal_view = report.split_day(ds, day, cfg.calibration_frac)
        train_ref, cal_ref = ref_train_cal_split(ds, day, cfg.calibration_frac)
        assert train_view.store is cal_view.store is ds.store
        assert_same_reads(train_view, train_ref)
        assert_same_reads(cal_view, cal_ref)
        # train's balancing: the rows of balanced_rows against the old
        # undersampling of the slice's samples
        balanced = train_view.take(balanced_rows(train_view.columns["label"], cfg.train.seed))
        ref = with_samples(train_ref, ref_undersample_balance(train_ref.samples,
                                                               cfg.train.seed))
        assert len(balanced) < len(train_view)
        assert_same_reads(balanced, ref)


def test_train_balances_the_view_it_is_given(bundle, monkeypatch):
    """``train`` with ``balance`` fits its scalers to the balanced view."""
    ds = featurize(bundle.network, bundle.snapshots, bundle.faults, bundle.spec,
                   include_raw=True)
    train_view, cal_view = report.split_day(ds, 1, 0.2)
    seen = []
    real = ScreeningModel.fit_scalers
    monkeypatch.setattr(ScreeningModel, "fit_scalers",
                        lambda model, dataset: seen.append(dataset) or real(model, dataset))
    train("GraphModel", train_view, cal_view, CONFIGS[0], TrainConfig(epochs=0, seed=4))
    ref = ref_day_slice(ds, 1, 0, report.day_cut(10, 0.2))
    assert_same_reads(seen[0], with_samples(ref, ref_undersample_balance(ref.samples, 4)))


def test_report_pair_views_read_like_the_separate_featurize_calls(bundle):
    pair = report.prepare_day_pair(bundle, 1, 2, include_raw=True)
    train_ref, cal_ref, eval_ref = ref_prepare_day_pair(bundle, 1, 2, include_raw=True)
    assert pair.train_ds.store is pair.cal_ds.store is pair.fit_ds.store
    assert_same_reads(pair.train_ds, train_ref)
    assert_same_reads(pair.cal_ds, cal_ref)
    assert_same_reads(pair.eval_ds, eval_ref)


def test_svm_trains_on_the_stored_vectors_of_the_training_slots(bundle, monkeypatch):
    """``run_svm`` reads its training vectors from the train day's store:
    every fault of the training slots, unbalanced, with the bytes of the
    per-snapshot statistics it used to compute again."""
    pair = report.prepare_day_pair(bundle, 1, 2)
    seen = {}
    real = baselines.svm_train_expanded

    def spy(x, y):
        seen.update(x=x, y=y)
        return real(x, y)

    monkeypatch.setattr(baselines, "svm_train_expanded", spy)
    report.run_svm(bundle, pair, 98.0)
    cut = report.day_cut(WORLD.slots_per_day, 0.2)
    faults = [f for f in build_dataset(WORLD)[2] if f.day == 1 and f.slot < cut]
    keys = [(f.day, f.slot) for f in faults]
    per_snapshot = snapshot_globals(bundle.network, bundle.snapshots, dict.fromkeys(keys),
                                    bundle.spec)
    want = np.stack([per_snapshot[key][1] for key in keys])
    assert same_array(seen["x"], want)
    assert same_array(seen["y"], np.array([f.label for f in faults], dtype=float))
    assert not hasattr(report, "snapshot_globals")


def test_comparison_rows_are_unchanged_on_a_tiny_world():
    cfg = report.ExperimentConfig(
        synth=SynthConfig(n_bus=20, days=3, slots_per_day=8, seed=3),
        model=ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12, sid_hidden=4,
                          mlp_hidden=(10, 6), cnn_channels=4),
        train=TrainConfig(epochs=2, seed=1))
    rows = report.comparison_table(report.build_bundle(cfg), 1, 2)
    digest = hashlib.sha256(repr([sorted(r.items()) for r in rows]).encode()).hexdigest()
    assert digest[:16] == TINY_COMPARISON
