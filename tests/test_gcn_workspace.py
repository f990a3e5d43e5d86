"""The GCN head's arena: one model reused across training steps and scoring
blocks gives the bytes of a fresh model, a cache overwritten by a later
forward is refused, and a training step allocates little beyond the arena.

``GcnHead`` writes its node rows, activations, propagated inputs and
gradients into views of one flat float64 arena that lives on the head.  A
reused arena still holds the previous batch's numbers, so these tests run
batches of different sizes through one model and compare every output with
a fresh model's.
"""

import tracemalloc

import numpy as np
import pytest

from gridstab import nn
from gridstab.features import default_feature_spec, featurize
from gridstab.model import GcnHead, ModelConfig, ScreeningModel, TrainingError, _dims_for
from gridstab.synth import SynthConfig, build_dataset

from conftest import make_toy_dataset

CASES = {
    "GraphModel": ("GraphModel", ModelConfig()),
    "GraphPool": ("GraphPool", ModelConfig()),
    "NoGraph": ("NoGraph", ModelConfig()),
    "no-final-relu": ("GraphModel", ModelConfig(gcn_final_relu=False)),
}
SIZES = (64, 17, 64, 1)


@pytest.fixture(scope="module")
def synth_ds():
    """A 40-bus world featurized at 50 nodes: 20 snapshots of every AC line."""
    network, snapshots, faults, _ = build_dataset(
        SynthConfig(n_bus=40, days=1, slots_per_day=20, seed=11))
    return featurize(network, snapshots, faults, default_feature_spec())


def fresh_model(variant, config, ds, scalers=None):
    model = ScreeningModel(variant, config, _dims_for(ds))
    if scalers is None:
        model.fit_scalers(ds)
    else:
        model.scalers = scalers
    return model


def step(model, params, ds, idx):
    """One forward and backward on the samples ``idx``: scores and grads."""
    y, caches = model.forward(params, model.build_batch(ds, idx))
    _, grad_y = nn.bce_loss(y, ds.labels()[idx])
    return y, model.backward(params, caches, grad_y)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reused_arena_gives_a_fresh_models_bytes(synth_ds, case):
    variant, config = CASES[case]
    model = fresh_model(variant, config, synth_ds)
    params = model.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(4)
    part = synth_ds.take(range(150))
    for k in SIZES:
        idx = rng.permutation(len(synth_ds.samples))[:k]
        y, grads = step(model, params, synth_ds, idx)
        want_y, want_grads = step(fresh_model(variant, config, synth_ds, model.scalers),
                                  params, synth_ds, idx)
        assert y.tobytes() == want_y.tobytes(), k
        assert sorted(grads) == sorted(want_grads)
        for name, grad in want_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), (k, name)
        # Scoring between steps writes its own blocks into the same arena.
        scores = model.predict(params, part)
        want = fresh_model(variant, config, synth_ds, model.scalers).predict(params, part)
        assert scores.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("between", ["forward", "predict"])
def test_backward_on_overwritten_caches_raises(synth_ds, between):
    model = fresh_model("GraphModel", ModelConfig(), synth_ds)
    params = model.init_params(np.random.default_rng(5))
    idx = np.arange(16)
    y, caches = model.forward(params, model.build_batch(synth_ds, idx))
    if between == "forward":
        model.forward(params, model.build_batch(synth_ds, idx + 16))
    else:
        model.predict(params, synth_ds.take(range(40)))
    _, grad_y = nn.bce_loss(y, synth_ds.labels()[idx])
    with pytest.raises(TrainingError, match="overwritten"):
        model.backward(params, caches, grad_y)


def test_training_step_allocates_little_beyond_the_arena(synth_ds):
    """At default dims a fresh model's first 64-sample step makes the arena
    (seven views of 64 x 50 x 64 float64, 11.5 MB) and the standardized
    tables; a later step reuses the arena.  Before the arena a step
    allocated about 21 MB of fresh (64, 50, *) arrays every time."""
    model = fresh_model("GraphModel", ModelConfig(), synth_ds)
    params = model.init_params(np.random.default_rng(6))
    rng = np.random.default_rng(7)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(4):
            idx = rng.permutation(len(synth_ds.samples))[:64]
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y, grads = step(model, params, synth_ds, idx)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            del y, grads
    finally:
        tracemalloc.stop()
    mb = [p / 1e6 for p in peaks]
    assert mb[0] < 16.0, mb
    assert max(mb[1:]) < 4.0, mb


def test_mean_pool_of_full_and_padded_blocks(monkeypatch):
    """A block whose samples have no padded node is pooled without the mask
    multiply, since x * 1.0 == x.  Full, padded and full blocks, trained and
    scored on one model, give the bytes of a fresh model that always
    multiplies."""
    ds = make_toy_dataset(120, seed=12)
    full = [i for i, s in enumerate(ds.samples) if s.local.node_mask.all()]
    padded = [i for i, s in enumerate(ds.samples) if not s.local.node_mask.all()]
    assert len(full) >= 8 and len(padded) >= 8
    model = fresh_model("GraphModel", ModelConfig(), ds)
    params = model.init_params(np.random.default_rng(13))
    runs = []
    for idx in (full, padded, full):
        part = ds.take(idx)
        runs.append((step(model, params, ds, idx), model.predict(params, part)))

    def always_multiply(self, h3, mask, scratch):
        cnt = mask.sum(axis=1, keepdims=True)
        masked = np.multiply(h3, mask[:, :, None], out=scratch)
        return masked.sum(axis=1) / cnt, (mask, cnt)

    monkeypatch.setattr(GcnHead, "_pool", always_multiply)
    for idx, ((y, grads), scores) in zip((full, padded, full), runs):
        want_model = fresh_model("GraphModel", ModelConfig(), ds, model.scalers)
        want_y, want_grads = step(want_model, params, ds, idx)
        assert y.tobytes() == want_y.tobytes()
        for name, grad in want_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), name
        part = ds.take(idx)
        want = fresh_model("GraphModel", ModelConfig(), ds, model.scalers).predict(params, part)
        assert scores.tobytes() == want.tobytes()
