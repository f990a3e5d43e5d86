"""Blocked GCN scoring: ``predict`` bytes against whole-chunk scoring, and a
memory guard.

``GcnHead.score`` gathers, standardizes and propagates ``model.BLOCK``
samples at a time.  The reference below is the whole-chunk scoring it
replaced, kept only here: each 512-sample chunk is one ``build_batch`` whose
local rows are gathered whole (``test_batch_reference.py`` pins both), and
the GCN layers run over the whole chunk, dropping each layer's cache as they
go.
"""

import tracemalloc

import numpy as np
import pytest

from gridstab import nn
from gridstab.features import default_feature_spec, featurize
from gridstab.model import BLOCK, GcnHead, ModelConfig, ScreeningModel, _dims_for
from gridstab.synth import SynthConfig, build_dataset

from conftest import make_toy_dataset

GCN_VARIANTS = ("GraphModel", "GraphPool", "NoGlobal", "NoGraph", "NoEmbedding")
SIZES = (1, 47, 63, 64, 65, 129, 512, 513, 600)
SMALL = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                    sid_hidden=4, mlp_hidden=(10, 6))


# ------------------------------------------------------ the whole-chunk scoring

def ref_gcn_forward(head, params, batch):
    h3, mask, a = batch["local"].gather()
    for name, relu in (("l1_w", True), ("l2_w", True), ("l3_w", head.layers[2][1])):
        h3, cache = nn.gcn_forward(h3, a, params[name], apply_relu=relu)
        del cache
    if head.pool == "mean":
        cnt = mask.sum(axis=1, keepdims=True)
        return (h3 * mask[:, :, None]).sum(axis=1) / cnt
    neg = np.where(mask[:, :, None] > 0, h3, -np.inf)
    idx = neg.argmax(axis=1)
    return np.take_along_axis(h3, idx[:, None, :], axis=1)[:, 0, :]


def ref_predict(model, params, dataset, batch_size=512):
    scores = np.empty(len(dataset.samples))
    for start in range(0, len(dataset.samples), batch_size):
        idx = range(start, min(start + batch_size, len(dataset.samples)))
        batch = model.build_batch(dataset, idx)
        outs = [ref_gcn_forward(head, params, batch) if isinstance(head, GcnHead)
                else head.forward(params, batch, keep_caches=False)[0]
                for head in model.heads]
        z_out, _ = nn.dense_forward(np.concatenate(outs, axis=1),
                                    params["out_w"], params["out_b"])
        scores[list(idx)] = nn.sigmoid(z_out[:, 0])
    return scores


# ------------------------------------------------------------------- helpers

@pytest.fixture(scope="module")
def synth_ds():
    """A 40-bus world featurized at 50 nodes: 20 snapshots of every AC line."""
    network, snapshots, faults, _ = build_dataset(
        SynthConfig(n_bus=40, days=1, slots_per_day=20, seed=11))
    ds = featurize(network, snapshots, faults, default_feature_spec())
    assert len(ds.samples) >= max(SIZES)
    return ds


def scored(variant, ds, config, sizes):
    model = ScreeningModel(variant, config, _dims_for(ds))
    model.fit_scalers(ds)
    params = model.init_params(np.random.default_rng(7))
    for n in sizes:
        part = ds.take(range(n))
        yield n, model.predict(params, part), ref_predict(model, params, part)


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("variant", GCN_VARIANTS)
def test_blocked_scores_equal_whole_chunk_scores_on_a_synth_world(synth_ds, variant):
    one_snapshot = sum(1 for s in synth_ds.samples if s.slot == 0)   # every line, in order
    for n, got, want in scored(variant, synth_ds, ModelConfig(), SIZES + (one_snapshot,)):
        assert got.tobytes() == want.tobytes(), (variant, n)


@pytest.mark.parametrize("variant", GCN_VARIANTS)
def test_blocked_scores_equal_whole_chunk_scores_on_toy_data(variant):
    ds = make_toy_dataset(max(SIZES), seed=41)
    for n, got, want in scored(variant, ds, SMALL, SIZES):
        assert got.tobytes() == want.tobytes(), (variant, n)


def test_scoring_memory_stays_within_a_block(synth_ds, monkeypatch):
    """Scoring 600 samples at default dims peaks far below one 512-sample
    chunk's activations (about 64 MB before blocking), and no GCN layer call
    sees more than a block."""
    ds = synth_ds.take(range(600))
    model = ScreeningModel("GraphModel", ModelConfig(), _dims_for(ds))
    model.fit_scalers(ds)
    params = model.init_params(np.random.default_rng(7))
    seen = []
    real = nn.gcn_forward
    monkeypatch.setattr(nn, "gcn_forward",
                        lambda h, *args, **kw: seen.append(len(h)) or real(h, *args, **kw))
    tracemalloc.start()
    try:
        scores = model.predict(params, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (600,)
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert seen and max(seen) <= BLOCK
    assert sum(seen) == 3 * 600
