"""Pin ``ScreeningModel.build_batch`` and ``fit_scalers`` bit for bit against
the per-sample implementation, which stacked each sample's own node matrix,
global vector and propagation matrix.  The reference below is that
implementation, kept only here; its propagation matrices are computed per
sample, without a cache.  ``build_batch`` holds the local inputs as row
indices, so its ``h``, ``mask`` and ``a`` are read from
``batch["local"].gather()``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstab import nn
from gridstab.features import default_feature_spec, featurize
from gridstab.model import ModelConfig, ScreeningModel, _dims_for, _safe_sd
from gridstab.synth import SynthConfig, build_dataset

from conftest import make_toy_dataset

VARIANTS = ("GraphModel", "GraphPool", "NoGraph", "DeepCnn5", "MlpOnly")
SMALL = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                    sid_hidden=4, mlp_hidden=(10, 6), cnn_channels=4)


# ------------------------------------------------- the original implementation

def ref_propagation(local, graph):
    if graph:
        return nn.normalize_adjacency(local.adjacency, local.node_mask)
    return np.diag(local.node_mask.astype(float))


def ref_fit_scalers(model, dataset):
    scalers = {}
    if "global" in model.inputs:
        g = np.stack([s.global_vec for s in dataset.samples])
        scalers["global_mu"] = g.mean(axis=0)
        scalers["global_sd"] = _safe_sd(g.std(axis=0))
    if "local" in model.inputs:
        rows = np.vstack([
            s.local.node_features[s.local.node_mask] for s in dataset.samples
        ])
        scalers["local_mu"] = rows.mean(axis=0)
        scalers["local_sd"] = _safe_sd(rows.std(axis=0))
    if "raw" in model.inputs:
        raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in dataset.samples])
        scalers["raw_mu"] = raws.mean(axis=(0, 1))
        scalers["raw_sd"] = _safe_sd(raws.std(axis=(0, 1)))
    return scalers


def ref_build_batch(model, dataset, indices):
    sc = model.scalers
    batch = dict.fromkeys(("global", "raw", "h", "a", "mask", "ids"))
    samples = [dataset.samples[i] for i in indices]
    if "global" in model.inputs:
        g = np.stack([s.global_vec for s in samples])
        batch["global"] = (g - sc["global_mu"]) / sc["global_sd"]
    if "raw" in model.inputs:
        raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in samples])
        raws = (raws - sc["raw_mu"]) / sc["raw_sd"]
        batch["raw"] = raws.transpose(0, 2, 1)[:, :, None, :]   # (B, 13, 1, n_bus)
    if "local" in model.inputs:
        mask = np.stack([s.local.node_mask for s in samples]).astype(float)
        h = np.stack([s.local.node_features for s in samples])
        h = (h - sc["local_mu"]) / sc["local_sd"]
        h *= mask[:, :, None]
        batch["h"] = h
        batch["mask"] = mask
        batch["a"] = np.stack([ref_propagation(s.local, "adjacency" in model.inputs)
                               for s in samples])
    if "ids" in model.inputs:
        batch["ids"] = np.array([s.element_id for s in samples], dtype=int)
    return batch


# ------------------------------------------------------------------- helpers

def same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_batches_match_reference(variant, ds, orders):
    model = ScreeningModel(variant, SMALL, _dims_for(ds))
    model.fit_scalers(ds)
    want = ref_fit_scalers(model, ds)
    assert sorted(model.scalers) == sorted(want)
    for name, value in want.items():
        assert same(model.scalers[name], value), name
    for indices in orders:
        got = gathered(model.build_batch(ds, indices))
        expected = ref_build_batch(model, ds, indices)
        assert sorted(got) == sorted(expected)
        for key in expected:
            assert same(got[key], expected[key]), (variant, key)


def gathered(batch):
    """``batch`` with its ``local`` rows replaced by the gathered ``h``,
    ``mask`` and ``a``."""
    local = batch.pop("local")
    batch["h"], batch["mask"], batch["a"] = (None,) * 3 if local is None else local.gather()
    return batch


def index_orders(n, seed):
    rng = np.random.default_rng(seed)
    return [range(n), range(n - 1, -1, -1), rng.permutation(n),
            list(rng.integers(0, n, size=max(1, n // 3)))]


@pytest.fixture(scope="module")
def worlds():
    out = {}
    for n_bus, seed in ((16, 3), (40, 5)):
        network, snapshots, faults, _ = build_dataset(
            SynthConfig(n_bus=n_bus, days=1, slots_per_day=3, seed=seed))
        out[n_bus] = (network, snapshots, faults)
    return out


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_bus", [16, 40])
def test_batches_match_reference_on_synth_worlds(worlds, variant, n_bus):
    network, snapshots, faults = worlds[n_bus]
    one_snapshot = [f for f in faults if f.slot == 0]    # every line once, in order
    for max_nodes in (20, 50, n_bus + 7):
        for chosen in (faults, one_snapshot):
            ds = featurize(network, snapshots, chosen, default_feature_spec(), max_nodes,
                           include_raw=True)
            assert_batches_match_reference(variant, ds,
                                           index_orders(len(ds.samples), max_nodes))


@pytest.mark.parametrize("variant", VARIANTS)
def test_batches_match_reference_on_hand_built_graphs(variant):
    ds = make_toy_dataset(24, seed=31)
    rng = np.random.default_rng(32)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(30, 13)) for s in ds.samples}
    assert_batches_match_reference(variant, ds, index_orders(len(ds.samples), 33))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), max_nodes=st.integers(3, 10), seed=st.integers(0, 2 ** 16),
       variant=st.sampled_from(VARIANTS), data=st.data())
def test_batches_match_reference_on_any_toy_data(n, max_nodes, seed, variant, data):
    ds = make_toy_dataset(n, seed=seed, max_nodes=max_nodes)
    rng = np.random.default_rng(seed)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(12, 13)) for s in ds.samples}
    indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    assert_batches_match_reference(variant, ds, [indices, range(n)])
