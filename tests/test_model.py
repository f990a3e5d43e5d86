import dataclasses

import numpy as np
import pytest

from gridstab import nn
from gridstab.features import (
    FeaturizedSample, LocalGraph, default_feature_spec, featurize,
)
from gridstab.model import (
    VARIANTS, ModelConfig, ScreeningModel, TrainConfig, TrainingError,
    scores_for, train,
)

from conftest import make_toy_dataset, with_samples

SMALL = ModelConfig(gcn_hidden=8, sg_dim=8, sl_dim=8, stats_hidden=12,
                    sid_hidden=4, mlp_hidden=(10, 6))


def small_model(variant, ds, config=SMALL):
    n_bus = next(iter(ds.raw_states.values())).shape[0] if ds.raw_states else 0
    model = ScreeningModel(variant, config, {
        "global_dim": ds.global_dim, "n_elements": ds.n_elements,
        "max_nodes": ds.max_nodes, "node_features": 59, "n_bus": n_bus,
    })
    model.fit_scalers(ds)
    return model


@pytest.mark.parametrize("variant", ["GraphModel", "NoGraph"])
@pytest.mark.parametrize("source", ["toy", "featurize"])
def test_build_batch_adjacency_is_per_sample_normalization(
        small_world, monkeypatch, variant, source):
    if source == "toy":
        ds = make_toy_dataset(10, seed=4)
    else:
        faults = [f for f in small_world["faults"] if f.day == 0 and f.slot < 3]
        ds = featurize(small_world["network"], small_world["snapshots"], faults,
                       default_feature_spec(), max_nodes=12)
    attributes = [set(vars(s)) for s in ds.samples]
    model = small_model(variant, ds)
    calls = []
    real = nn.normalize_adjacency
    monkeypatch.setattr(nn, "normalize_adjacency",
                        lambda *args: calls.append(1) or real(*args))
    n = len(ds.samples)
    _, _, a = model.build_batch(ds, range(n))["local"].gather()
    _, _, again = model.build_batch(ds, range(n - 1, -1, -1))["local"].gather()
    for i, s in enumerate(ds.samples):
        if variant == "GraphModel":
            want = real(s.local.adjacency, s.local.node_mask)
        else:
            want = np.diag(s.local.node_mask.astype(float))
        assert a[i].tobytes() == want.tobytes()
        assert again[n - 1 - i].tobytes() == want.tobytes()
    pairs = {(id(s.local.adjacency), id(s.local.node_mask)) for s in ds.samples}
    assert len(calls) == (len(pairs) if variant == "GraphModel" else 0)
    assert [set(vars(s)) for s in ds.samples] == attributes
    # The propagation cache is process-wide: a second model reuses it.
    calls.clear()
    _, _, second = small_model(variant, ds).build_batch(ds, range(n))["local"].gather()
    assert calls == []
    assert second.tobytes() == a.tobytes()


def test_zero_weights_give_half():
    ds = make_toy_dataset(8, seed=0)
    model = small_model("GraphModel", ds)
    params = model.init_params(np.random.default_rng(0))
    for key in params:
        params[key] = np.zeros_like(params[key])
    y, _ = model.forward(params, model.build_batch(ds, range(8)))
    assert np.allclose(y, 0.5)


def test_forward_deterministic():
    ds = make_toy_dataset(6, seed=1)
    model = small_model("GraphModel", ds)
    params = model.init_params(np.random.default_rng(1))
    batch = model.build_batch(ds, range(6))
    y1, _ = model.forward(params, batch)
    y2, _ = model.forward(params, batch)
    assert np.array_equal(y1, y2)
    assert np.all((y1 > 0.0) & (y1 < 1.0))


def test_node_permutation_invariance():
    ds = make_toy_dataset(5, seed=2)
    model = small_model("GraphModel", ds)
    params = model.init_params(np.random.default_rng(2))
    base, _ = model.forward(params, model.build_batch(ds, range(5)))

    rng = np.random.default_rng(3)
    permuted_samples = []
    for s in ds.samples:
        perm = rng.permutation(ds.max_nodes)
        permuted_samples.append(FeaturizedSample(
            day=s.day, slot=s.slot, element_id=s.element_id, label=s.label,
            global_vec=s.global_vec,
            local=LocalGraph(
                adjacency=s.local.adjacency[np.ix_(perm, perm)],
                node_features=s.local.node_features[perm],
                node_mask=s.local.node_mask[perm],
                fault_element_id=s.local.fault_element_id,
            ),
        ))
    permuted = with_samples(ds, permuted_samples)
    out, _ = model.forward(params, model.build_batch(permuted, range(5)))
    assert np.allclose(base, out, atol=1e-12)


def test_max_pool_permutation_invariance():
    ds = make_toy_dataset(4, seed=4)
    model = small_model("GraphPool", ds)
    params = model.init_params(np.random.default_rng(4))
    base, _ = model.forward(params, model.build_batch(ds, range(4)))
    perm = np.random.default_rng(5).permutation(ds.max_nodes)
    permuted = with_samples(ds, [
        FeaturizedSample(
            day=s.day, slot=s.slot, element_id=s.element_id, label=s.label,
            global_vec=s.global_vec,
            local=LocalGraph(s.local.adjacency[np.ix_(perm, perm)],
                             s.local.node_features[perm], s.local.node_mask[perm],
                             s.local.fault_element_id))
        for s in ds.samples
    ])
    out, _ = model.forward(params, model.build_batch(permuted, range(4)))
    assert np.allclose(base, out, atol=1e-12)


def test_no_graph_equals_per_node_mlp_with_pool():
    ds = make_toy_dataset(6, seed=6)
    model = small_model("NoGraph", ds)
    params = model.init_params(np.random.default_rng(6))
    batch = model.build_batch(ds, range(6))
    y, _ = model.forward(params, batch)

    # identity propagation: three per-node dense layers, masked mean pool
    h, mask, _ = batch["local"].gather()
    h1 = np.maximum(h @ params["l1_w"], 0.0)
    h2 = np.maximum(h1 @ params["l2_w"], 0.0)
    h3 = np.maximum(h2 @ params["l3_w"], 0.0)
    sl = (h3 * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1, keepdims=True)

    z1, _ = nn.dense_forward(batch["global"], params["g1_w"], params["g1_b"])
    sg = np.maximum(nn.dense_forward(np.maximum(z1, 0.0), params["g2_w"],
                                     params["g2_b"])[0], 0.0)
    emb = params["emb_table"][batch["ids"]]
    sid = np.maximum(emb @ params["emb_w"] + params["emb_b"], 0.0)
    concat = np.concatenate([sg, sl, sid], axis=1)
    z = concat @ params["out_w"] + params["out_b"]
    assert np.allclose(y, nn.sigmoid(z[:, 0]), atol=1e-12)


def test_ablated_variants_do_not_read_ablated_inputs():
    ds = make_toy_dataset(4, seed=7)
    for variant, missing in [("NoGlobal", "global"), ("NoLocal", "local"),
                             ("MlpOnly", "ids")]:
        model = small_model(variant, ds)
        batch = model.build_batch(ds, range(4))
        assert batch[missing] is None


@pytest.mark.parametrize("variant,encoder", [
    *(pytest.param(v, "stats", id=v) for v in VARIANTS),
    pytest.param("GraphModel", "rawcnn", id="GraphModel-rawcnn"),
])
def test_assembled_model_gradcheck(variant, encoder):
    ds = make_toy_dataset(3, seed=8)
    rng = np.random.default_rng(9)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(12, 13)) for s in ds.samples}
    model = small_model(variant, ds, dataclasses.replace(
        SMALL, global_encoder=encoder, cnn_channels=3))
    params = model.init_params(np.random.default_rng(8))
    batch = model.build_batch(ds, range(3))
    labels = ds.labels()[:3]

    def closure(p):
        y, caches = model.forward(p, batch)
        loss, gy = nn.bce_loss(y, labels)
        return loss, model.backward(p, caches, gy)

    err, worst = nn.grad_check(closure, params, max_entries_per_param=30)
    assert err < 1e-3, worst


def test_training_reaches_perfect_accuracy_on_separable_toy():
    train_ds = make_toy_dataset(200, seed=9)
    result = train("GraphModel", train_ds, train_ds, SMALL,
                   TrainConfig(epochs=30, batch_size=16, seed=9, balance=False,
                               target_kkd=100.0))
    scores = scores_for(result, train_ds)
    # accuracy at the model's calibrated operating threshold
    from gridstab.metrics import compute_metrics
    assert compute_metrics(scores, train_ds.labels(), result.threshold).acc == 100.0

    # epoch-0 loss is one bit when predictions start at 0.5
    assert abs(result.history[0]["train_loss"] - 1.0) < 0.1

    # loss is non-increasing over the first five epochs
    losses = [row["train_loss"] for row in result.history]
    for a, b in zip(losses[:5], losses[1:6]):
        assert b <= a + 1e-9


def test_training_deterministic():
    train_ds = make_toy_dataset(80, seed=11)
    val_ds = make_toy_dataset(40, seed=12)
    cfg = TrainConfig(epochs=3, seed=13, balance=False)
    a = train("GraphModel", train_ds, val_ds, SMALL, cfg)
    b = train("GraphModel", train_ds, val_ds, SMALL, cfg)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])
    assert a.threshold == b.threshold


def test_shuffled_labels_hit_noise_floor():
    train_ds = make_toy_dataset(300, seed=14, separable=False)
    val_ds = make_toy_dataset(400, seed=15, separable=False)
    result = train("GraphModel", train_ds, val_ds, SMALL,
                   TrainConfig(epochs=10, seed=14, balance=False))
    scores = scores_for(result, val_ds)
    acc = np.mean((scores >= 0.5) == (val_ds.labels() > 0.5))
    assert 0.45 <= acc <= 0.55


def test_empty_train_set_rejected():
    ds = make_toy_dataset(4, seed=16)
    with pytest.raises(TrainingError):
        train("GraphModel", ds.take([]), ds, SMALL,
              TrainConfig(epochs=1))


def test_feature_hash_mismatch_rejected():
    train_ds = make_toy_dataset(30, seed=17)
    result = train("GraphModel", train_ds, train_ds, SMALL,
                   TrainConfig(epochs=1, seed=17, balance=False))
    other = make_toy_dataset(10, seed=18, max_nodes=12)
    with pytest.raises(TrainingError):
        scores_for(result, other)


def test_mlp_only_hidden_sizes():
    ds = make_toy_dataset(30, seed=19)
    model = ScreeningModel("MlpOnly", ModelConfig(), {
        "global_dim": ds.global_dim, "n_elements": ds.n_elements,
        "max_nodes": ds.max_nodes, "node_features": 59, "n_bus": 0,
    })
    params = model.init_params(np.random.default_rng(0))
    assert params["m1_w"].shape == (ds.global_dim, 200)
    assert params["m2_w"].shape == (200, 100)


def test_variant_head_declarations():
    assert VARIANTS["GraphModel"].pool == "mean"
    assert VARIANTS["GraphPool"].pool == "max"
    assert not VARIANTS["MlpOnly"].local and not VARIANTS["MlpOnly"].embedding
    assert not VARIANTS["NoGraph"].graph and VARIANTS["NoGraph"].local
    assert VARIANTS["NoGlobal"].global_kind == "none"


def test_model_config_validation():
    """The GCN depth (3) and the embedding width (20) are fixed, so neither
    is a config field; the sizes that are must be positive integers."""
    with pytest.raises(TypeError):
        ModelConfig(gcn_layers=2)
    with pytest.raises(TypeError):
        ModelConfig(embed_dim=16)
    with pytest.raises(ValueError):
        ModelConfig(gcn_hidden=0).validate()
    with pytest.raises(ValueError):
        ModelConfig(global_encoder="lstm").validate()


def toy_with_raw(n, seed):
    ds = make_toy_dataset(n, seed=seed)
    rng = np.random.default_rng(seed)
    ds.raw_states = {(s.day, s.slot): rng.normal(size=(12, 13)) for s in ds.samples}
    return ds


RAW_READERS = [
    pytest.param("DeepCnn5", SMALL, id="DeepCnn5"),
    pytest.param("GraphModel", dataclasses.replace(SMALL, global_encoder="rawcnn"),
                 id="GraphModel-rawcnn"),
]


@pytest.mark.parametrize("variant,config", RAW_READERS)
def test_raw_reader_without_raw_states_is_a_training_error(variant, config):
    with_raw = toy_with_raw(16, seed=41)
    no_raw = with_raw.take(range(len(with_raw)))
    no_raw.raw_states = {}
    with pytest.raises(TrainingError, match="reads raw bus states.*carries no raw states"):
        train(variant, no_raw, no_raw, config, TrainConfig(epochs=1, balance=False))
    result = train(variant, with_raw, with_raw, config, TrainConfig(epochs=0, balance=False))
    with pytest.raises(TrainingError, match="reads raw bus states.*carries no raw states"):
        scores_for(result, no_raw)


@pytest.mark.parametrize("variant,config,name", [
    ("GraphModel", SMALL, "global_mu"),
    ("GraphModel", SMALL, "local_sd"),
    ("DeepCnn5", SMALL, "raw_mu"),
])
def test_checkpoint_scaler_shapes_are_checked(variant, config, name):
    ds = toy_with_raw(16, seed=43)
    result = train(variant, ds, ds, config, TrainConfig(epochs=0, balance=False))
    good = result.scalers[name]
    result.scalers[name] = good[:-1]
    with pytest.raises(TrainingError) as info:
        scores_for(result, ds)
    assert str(info.value) == (f"checkpoint scaler {name!r} has shape "
                               f"{good[:-1].shape}, expected {good.shape}")


@pytest.mark.parametrize("field,value", [
    ("epochs", -1), ("epochs", 1.5), ("epochs", True), ("batch_size", 0),
    ("lr", 0.0), ("lr", float("inf")), ("lr", float("nan")),
    ("target_kkd", 100.5), ("target_kkd", -1.0), ("target_kkd", float("nan")),
    ("seed", -1), ("seed", 2.0), ("seed", None),
])
def test_train_config_validation(field, value):
    ds = make_toy_dataset(8, seed=45)
    config = TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        config.validate()
    with pytest.raises(ValueError, match=field):
        train("MlpOnly", ds, ds, SMALL, config)
    TrainConfig(epochs=0, batch_size=1, lr=1, seed=0, target_kkd=100).validate()
