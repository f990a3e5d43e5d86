"""Screening models: global encoder + local graph head + element embedding.

Every variant feeds its head outputs through one logistic-regression layer
producing the instability probability.  Ablated variants drop a head and
never read the corresponding input.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .features import FeaturizedDataset, LocalGraph
from .metrics import calibrate_threshold, compute_metrics, undersample_balance

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class VariantSpec:
    name: str
    has_global: bool = True
    global_kind: str = "config"   # "config" (per ModelConfig), "mlp", "cnn5"
    local: bool = True
    graph: bool = True            # False: propagate over the masked identity
    embedding: bool = True
    pool: str = "mean"


VARIANTS = {
    "GraphModel": VariantSpec("GraphModel"),
    "GraphPool": VariantSpec("GraphPool", pool="max"),
    "MlpOnly": VariantSpec("MlpOnly", global_kind="mlp", local=False, embedding=False),
    "DeepCnn5": VariantSpec("DeepCnn5", global_kind="cnn5", local=False, embedding=False),
    "NoGlobal": VariantSpec("NoGlobal", has_global=False),
    "NoLocal": VariantSpec("NoLocal", local=False),
    "NoGraph": VariantSpec("NoGraph", graph=False),
    "NoEmbedding": VariantSpec("NoEmbedding", embedding=False),
}

VARIANT_ALIASES = {
    "graph": "GraphModel", "graphpool": "GraphPool",
    "mlp": "MlpOnly", "deepcnn5": "DeepCnn5",
}
ABLATION_ALIASES = {
    "global": "NoGlobal", "local": "NoLocal",
    "graph": "NoGraph", "embedding": "NoEmbedding",
}


@dataclass
class ModelConfig:
    global_encoder: str = "stats"      # "stats" or "rawcnn"
    gcn_layers: int = 3
    gcn_hidden: int = 64
    sg_dim: int = 64
    sl_dim: int = 64
    stats_hidden: int = 64
    sid_hidden: int = 32
    embed_dim: int = 20
    mlp_hidden: tuple = (200, 100)
    cnn_channels: int = 16
    cnn_kernel: int = 3
    cnn_stages: int = 2
    gcn_final_relu: bool = True
    pool: str | None = None            # None: variant default

    def validate(self) -> None:
        if self.gcn_layers != 3:
            raise ValueError("gcn_layers is fixed at 3")
        if self.embed_dim != 20:
            raise ValueError("embed_dim is fixed at 20")
        if self.global_encoder not in ("stats", "rawcnn"):
            raise ValueError(f"unknown global encoder {self.global_encoder!r}")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    target_kkd: float = 98.0
    balance: bool = True
    positive_class_only_loss: bool = False


class ScreeningModel:
    """One variant with its parameter tensors and batched forward/backward."""

    def __init__(self, variant: str, config: ModelConfig, dims: dict):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        config.validate()
        self.variant = VARIANTS[variant]
        self.config = config
        self.dims = dict(dims)   # global_dim, n_elements, max_nodes, node_features, n_bus
        self.scalers: dict[str, np.ndarray] = {}
        # (id(adjacency), id(node_mask)) -> (adjacency, node_mask, propagation
        # matrix).  Holding the arrays keeps their ids from being reused.
        self._adj_cache: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------ setup

    @property
    def global_kind(self) -> str:
        if not self.variant.has_global:
            return "none"
        if self.variant.global_kind == "config":
            return "cnn" if self.config.global_encoder == "rawcnn" else "stats"
        if self.variant.global_kind == "cnn5":
            return "cnn"
        return self.variant.global_kind

    @property
    def cnn_stages(self) -> int:
        return 5 if self.variant.global_kind == "cnn5" else self.config.cnn_stages

    @property
    def pool(self) -> str:
        return self.config.pool or self.variant.pool

    def needs(self) -> dict[str, bool]:
        kind = self.global_kind
        return {
            "global": kind in ("stats", "mlp"),
            "raw": kind == "cnn",
            "local": self.variant.local,
            "ids": self.variant.embedding,
        }

    def _cnn_plan(self) -> list[tuple[int, int]]:
        """(in_channels, width_after_stage) per feasible conv+pool stage."""
        width = self.dims["n_bus"]
        chans = 13
        plan = []
        for _ in range(self.cnn_stages):
            conv_w = width - self.config.cnn_kernel + 1
            if conv_w < 2:
                break
            plan.append((chans, conv_w // 2))
            chans = self.config.cnn_channels
            width = conv_w // 2
            if width < self.config.cnn_kernel:
                break
        if not plan:
            raise ValueError("bus axis too short for even one conv stage")
        return plan

    def init_params(self, rng: np.random.Generator) -> dict:
        cfg = self.config
        p: dict[str, np.ndarray] = {}
        head_dim = 0
        kind = self.global_kind
        if kind == "stats":
            g = self.dims["global_dim"]
            p["g1_w"] = nn.glorot_uniform(rng, g, cfg.stats_hidden)
            p["g1_b"] = np.zeros(cfg.stats_hidden)
            p["g2_w"] = nn.glorot_uniform(rng, cfg.stats_hidden, cfg.sg_dim)
            p["g2_b"] = np.zeros(cfg.sg_dim)
            head_dim += cfg.sg_dim
        elif kind == "mlp":
            g = self.dims["global_dim"]
            sizes = (g,) + tuple(cfg.mlp_hidden)
            for i in range(len(cfg.mlp_hidden)):
                p[f"m{i + 1}_w"] = nn.glorot_uniform(rng, sizes[i], sizes[i + 1])
                p[f"m{i + 1}_b"] = np.zeros(sizes[i + 1])
            head_dim += cfg.mlp_hidden[-1]
        elif kind == "cnn":
            plan = self._cnn_plan()
            chans = 13
            for i, (c_in, _) in enumerate(plan):
                k = cfg.cnn_kernel
                p[f"c{i + 1}_k"] = nn.glorot_uniform(
                    rng, c_in * k, cfg.cnn_channels * k,
                    shape=(cfg.cnn_channels, c_in, 1, k))
                p[f"c{i + 1}_b"] = np.zeros(cfg.cnn_channels)
                chans = cfg.cnn_channels
            flat = plan[-1][1] * chans
            p["cd_w"] = nn.glorot_uniform(rng, flat, cfg.sg_dim)
            p["cd_b"] = np.zeros(cfg.sg_dim)
            head_dim += cfg.sg_dim

        if self.variant.local:
            f = self.dims["node_features"]
            p["l1_w"] = nn.glorot_uniform(rng, f, cfg.gcn_hidden)
            p["l2_w"] = nn.glorot_uniform(rng, cfg.gcn_hidden, cfg.gcn_hidden)
            p["l3_w"] = nn.glorot_uniform(rng, cfg.gcn_hidden, cfg.sl_dim)
            head_dim += cfg.sl_dim

        if self.variant.embedding:
            p["emb_table"] = rng.normal(0.0, 0.1, size=(self.dims["n_elements"], cfg.embed_dim))
            p["emb_w"] = nn.glorot_uniform(rng, cfg.embed_dim, cfg.sid_hidden)
            p["emb_b"] = np.zeros(cfg.sid_hidden)
            head_dim += cfg.sid_hidden

        # Small output init keeps initial predictions near 0.5.
        p["out_w"] = 0.1 * nn.glorot_uniform(rng, head_dim, 1)
        p["out_b"] = np.zeros(1)
        return p

    # ------------------------------------------------------- data plumbing

    def fit_scalers(self, dataset: FeaturizedDataset) -> None:
        """Per-dimension standardization statistics from the training data."""
        needs = self.needs()
        scalers = {}
        if needs["global"]:
            g = np.stack([s.global_vec for s in dataset.samples])
            scalers["global_mu"] = g.mean(axis=0)
            scalers["global_sd"] = _safe_sd(g.std(axis=0))
        if needs["local"]:
            rows = np.vstack([
                s.local.node_features[s.local.node_mask] for s in dataset.samples
            ])
            scalers["local_mu"] = rows.mean(axis=0)
            scalers["local_sd"] = _safe_sd(rows.std(axis=0))
        if needs["raw"]:
            raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in dataset.samples])
            scalers["raw_mu"] = raws.mean(axis=(0, 1))
            scalers["raw_sd"] = _safe_sd(raws.std(axis=(0, 1)))
        self.scalers = scalers

    def build_batch(self, dataset: FeaturizedDataset, indices) -> dict:
        needs = self.needs()
        sc = self.scalers
        batch: dict[str, np.ndarray | None] = {
            "global": None, "raw": None, "h": None, "a": None,
            "mask": None, "ids": None,
        }
        samples = [dataset.samples[i] for i in indices]
        if needs["global"]:
            g = np.stack([s.global_vec for s in samples])
            batch["global"] = (g - sc["global_mu"]) / sc["global_sd"]
        if needs["raw"]:
            raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in samples])
            raws = (raws - sc["raw_mu"]) / sc["raw_sd"]
            batch["raw"] = raws.transpose(0, 2, 1)[:, :, None, :]   # (B, 13, 1, n_bus)
        if needs["local"]:
            mask = np.stack([s.local.node_mask for s in samples]).astype(float)
            h = np.stack([s.local.node_features for s in samples])
            h = (h - sc["local_mu"]) / sc["local_sd"]
            h *= mask[:, :, None]
            batch["h"] = h
            batch["mask"] = mask
            batch["a"] = np.stack([self._adj_norm(s.local) for s in samples])
        if needs["ids"]:
            batch["ids"] = np.array([s.element_id for s in samples], dtype=int)
        return batch

    def _adj_norm(self, local: LocalGraph) -> np.ndarray:
        """Propagation matrix of one subgraph, computed once per distinct
        (adjacency, node_mask) pair; ``featurize`` shares one pair per line."""
        key = (id(local.adjacency), id(local.node_mask))
        cached = self._adj_cache.get(key)
        if cached is None:
            if self.variant.graph:
                a = nn.normalize_adjacency(local.adjacency, local.node_mask)
            else:
                a = np.diag(local.node_mask.astype(float))
            cached = self._adj_cache[key] = (local.adjacency, local.node_mask, a)
        return cached[2]

    # -------------------------------------------------------- forward/backward

    def forward(self, params: dict, batch: dict):
        cfg = self.config
        caches: dict = {}
        heads = []
        kind = self.global_kind
        if kind == "stats":
            z1, caches["g1"] = nn.dense_forward(batch["global"], params["g1_w"], params["g1_b"])
            a1 = nn.relu(z1)
            z2, caches["g2"] = nn.dense_forward(a1, params["g2_w"], params["g2_b"])
            caches["g_z"] = (z1, z2)
            heads.append(nn.relu(z2))
        elif kind == "mlp":
            act = batch["global"]
            zs = []
            for i in range(len(cfg.mlp_hidden)):
                z, caches[f"m{i + 1}"] = nn.dense_forward(act, params[f"m{i + 1}_w"], params[f"m{i + 1}_b"])
                zs.append(z)
                act = nn.relu(z)
            caches["m_z"] = zs
            heads.append(act)
        elif kind == "cnn":
            x = batch["raw"]
            convs = []
            n_stage = sum(1 for k in params if k.endswith("_k"))
            for i in range(1, n_stage + 1):
                x, c = nn.conv_maxpool_forward(x, params[f"c{i}_k"], params[f"c{i}_b"], pool=(1, 2))
                convs.append(c)
            caches["convs"] = convs
            caches["conv_shape"] = x.shape
            flat = x.reshape(x.shape[0], -1)
            zd, caches["cd"] = nn.dense_forward(flat, params["cd_w"], params["cd_b"])
            caches["cd_z"] = zd
            heads.append(nn.relu(zd))

        if self.variant.local:
            h1, caches["l1"] = nn.gcn_forward(batch["h"], batch["a"], params["l1_w"])
            h2, caches["l2"] = nn.gcn_forward(h1, batch["a"], params["l2_w"])
            h3, caches["l3"] = nn.gcn_forward(h2, batch["a"], params["l3_w"],
                                              apply_relu=cfg.gcn_final_relu)
            mask = batch["mask"]
            cnt = mask.sum(axis=1, keepdims=True)
            if self.pool == "mean":
                sl = (h3 * mask[:, :, None]).sum(axis=1) / cnt
                caches["pool"] = ("mean", mask, cnt, h3.shape)
            else:
                neg = np.where(mask[:, :, None] > 0, h3, -np.inf)
                idx = neg.argmax(axis=1)
                sl = np.take_along_axis(h3, idx[:, None, :], axis=1)[:, 0, :]
                caches["pool"] = ("max", idx, h3.shape)
            heads.append(sl)

        if self.variant.embedding:
            emb, caches["emb"] = nn.embedding_forward(params["emb_table"], batch["ids"])
            ze, caches["emb_dense"] = nn.dense_forward(emb, params["emb_w"], params["emb_b"])
            caches["emb_z"] = ze
            heads.append(nn.relu(ze))

        concat = np.concatenate(heads, axis=1)
        caches["head_dims"] = [h.shape[1] for h in heads]
        z_out, caches["out"] = nn.dense_forward(concat, params["out_w"], params["out_b"])
        z_out = z_out[:, 0]
        y = nn.sigmoid(z_out)
        caches["y"] = y
        return y, caches

    def backward(self, params: dict, caches: dict, grad_y: np.ndarray) -> dict:
        grads: dict[str, np.ndarray] = {}
        y = caches["y"]
        grad_z = grad_y * y * (1.0 - y)
        grad_concat, grads["out_w"], grads["out_b"] = nn.dense_backward(
            grad_z[:, None], caches["out"])

        pieces = []
        start = 0
        for d in caches["head_dims"]:
            pieces.append(grad_concat[:, start:start + d])
            start += d
        pieces.reverse()   # consume in the reverse order heads were appended

        if self.variant.embedding:
            g_sid = pieces.pop(0)
            g_ze = g_sid * (caches["emb_z"] > 0.0)
            g_emb, grads["emb_w"], grads["emb_b"] = nn.dense_backward(g_ze, caches["emb_dense"])
            grads["emb_table"] = nn.embedding_backward(g_emb, caches["emb"])

        if self.variant.local:
            g_sl = pieces.pop(0)
            pool = caches["pool"]
            if pool[0] == "mean":
                _, mask, cnt, h3_shape = pool
                g_h3 = (g_sl / cnt)[:, None, :] * mask[:, :, None]
            else:
                _, idx, h3_shape = pool
                g_h3 = np.zeros(h3_shape)
                np.put_along_axis(g_h3, idx[:, None, :], g_sl[:, None, :], axis=1)
            g_h2, grads["l3_w"] = nn.gcn_backward(g_h3, caches["l3"])
            g_h1, grads["l2_w"] = nn.gcn_backward(g_h2, caches["l2"])
            _, grads["l1_w"] = nn.gcn_backward(g_h1, caches["l1"])

        kind = self.global_kind
        if kind == "stats":
            g_sg = pieces.pop(0)
            z1, z2 = caches["g_z"]
            g_z2 = g_sg * (z2 > 0.0)
            g_a1, grads["g2_w"], grads["g2_b"] = nn.dense_backward(g_z2, caches["g2"])
            g_z1 = g_a1 * (z1 > 0.0)
            _, grads["g1_w"], grads["g1_b"] = nn.dense_backward(g_z1, caches["g1"])
        elif kind == "mlp":
            g_act = pieces.pop(0)
            zs = caches["m_z"]
            for i in range(len(zs), 0, -1):
                g_z = g_act * (zs[i - 1] > 0.0)
                g_act, grads[f"m{i}_w"], grads[f"m{i}_b"] = nn.dense_backward(
                    g_z, caches[f"m{i}"])
        elif kind == "cnn":
            g_sg = pieces.pop(0)
            g_zd = g_sg * (caches["cd_z"] > 0.0)
            g_flat, grads["cd_w"], grads["cd_b"] = nn.dense_backward(g_zd, caches["cd"])
            g_x = g_flat.reshape(caches["conv_shape"])
            for i in range(len(caches["convs"]), 0, -1):
                g_x, grads[f"c{i}_k"], grads[f"c{i}_b"] = nn.conv_maxpool_backward(
                    g_x, caches["convs"][i - 1])
        return grads

    def predict(self, params: dict, dataset: FeaturizedDataset,
                batch_size: int = 512) -> np.ndarray:
        scores = np.empty(len(dataset.samples))
        for start in range(0, len(dataset.samples), batch_size):
            idx = range(start, min(start + batch_size, len(dataset.samples)))
            batch = self.build_batch(dataset, idx)
            scores[list(idx)], _ = self.forward(params, batch)
        return scores


def _safe_sd(sd: np.ndarray) -> np.ndarray:
    return np.where(sd < 1e-12, 1.0, sd)


@dataclass
class TrainResult:
    variant: str
    params: dict
    scalers: dict
    history: list
    threshold: float
    calibration_feasible: bool
    best_epoch: int
    config: ModelConfig
    feature_spec_hash: str


def train(variant: str, train_set: FeaturizedDataset, val_set: FeaturizedDataset,
          model_config: ModelConfig | None = None,
          train_config: TrainConfig | None = None) -> TrainResult:
    """Adam training with the best epoch selected by reliability-constrained
    validation accuracy; deterministic in the seed."""
    mc = model_config or ModelConfig()
    tc = train_config or TrainConfig()
    if not train_set.samples:
        raise TrainingError("empty training set")

    if tc.balance:
        balanced = undersample_balance(train_set.samples, tc.seed)
        train_set = replace(train_set, samples=balanced)

    dims = _dims_for(train_set)
    model = ScreeningModel(variant, mc, dims)
    model.fit_scalers(train_set)
    rng = np.random.default_rng([tc.seed, 101])
    params = model.init_params(rng)
    state = nn.adam_init(params, lr=tc.lr)
    shuffle_rng = np.random.default_rng([tc.seed, 102])

    labels = train_set.labels()
    n = len(train_set.samples)
    best = {"acc": -1.0, "params": _copy_params(params), "threshold": 0.5,
            "feasible": False, "epoch": 0}
    history = []

    def epoch_row(epoch: int, train_loss: float):
        val_scores = model.predict(params, val_set)
        thr, feasible = calibrate_threshold(val_scores, val_set.labels(), tc.target_kkd)
        row_metrics = compute_metrics(val_scores, val_set.labels(), thr)
        history.append({
            "epoch": epoch, "train_loss": train_loss,
            "val_kkd": row_metrics.kkd, "val_acc": row_metrics.acc,
        })
        # ties go to the later (more trained) epoch
        if row_metrics.acc >= best["acc"]:
            best.update(acc=row_metrics.acc, params=_copy_params(params),
                        threshold=thr, feasible=feasible, epoch=epoch)

    def full_loss() -> float:
        total = 0.0
        for start in range(0, n, 512):
            idx = range(start, min(start + 512, n))
            y, _ = model.forward(params, model.build_batch(train_set, idx))
            loss, _ = nn.bce_loss(y, labels[list(idx)], tc.positive_class_only_loss)
            total += loss * len(list(idx))
        return total / n

    epoch_row(0, full_loss())

    for epoch in range(1, tc.epochs + 1):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            batch = model.build_batch(train_set, idx)
            y, caches = model.forward(params, batch)
            loss, grad_y = nn.bce_loss(y, labels[idx], tc.positive_class_only_loss)
            if not np.isfinite(loss):
                norms = {k: float(np.abs(v).max()) for k, v in params.items()}
                raise TrainingError(f"non-finite loss at epoch {epoch}; |param|max={norms}")
            grads = model.backward(params, caches, grad_y)
            nn.adam_step(params, grads, state)
            losses.append(loss)
        epoch_row(epoch, float(np.mean(losses)))

    log.info("trained %s: best epoch %d, val acc %.2f, threshold %.6g",
             variant, best["epoch"], best["acc"], best["threshold"])
    return TrainResult(
        variant=variant, params=best["params"], scalers=model.scalers,
        history=history, threshold=float(best["threshold"]),
        calibration_feasible=bool(best["feasible"]), best_epoch=best["epoch"],
        config=mc, feature_spec_hash=train_set.feature_spec_hash(),
    )


def scores_for(result: TrainResult, dataset: FeaturizedDataset) -> np.ndarray:
    """Score a dataset with a trained model, enforcing feature compatibility."""
    if dataset.feature_spec_hash() != result.feature_spec_hash:
        raise TrainingError(
            f"feature spec hash mismatch: dataset {dataset.feature_spec_hash()} "
            f"vs checkpoint {result.feature_spec_hash}")
    model = ScreeningModel(result.variant, result.config, _dims_for(dataset))
    model.scalers = result.scalers
    return model.predict(result.params, dataset)


def _dims_for(dataset: FeaturizedDataset) -> dict:
    n_bus = 0
    if dataset.raw_states:
        n_bus = next(iter(dataset.raw_states.values())).shape[0]
    sample = dataset.samples[0]
    return {
        "global_dim": dataset.global_dim,
        "n_elements": dataset.n_elements,
        "max_nodes": dataset.max_nodes,
        "node_features": sample.local.node_features.shape[1],
        "n_bus": n_bus,
    }


def _copy_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}
