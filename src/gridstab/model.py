"""Screening models: a list of heads joined by one logistic layer.

:func:`build_heads` turns a variant into its heads.  Each head names the
batch inputs it reads, declares its parameter shapes in draw order, maps a
batch to a ``(batch, width)`` block and writes its own gradients.  The
blocks are concatenated into one logistic-regression layer (``out_w``,
``out_b``) that gives the instability probability.  :class:`DenseStack` is
the global statistics encoder, the MLP baseline and the dense tail of
:class:`ConvPoolHead` (raw bus states) and :class:`EmbeddingHead`;
:class:`GcnHead` runs GCN layers (Kipf & Welling, arXiv:1609.02907) over the
faulted line's local subgraph.  Ablated variants leave a head out and never
read its input.
"""

from __future__ import annotations

import logging
import math
import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .features import FeaturizedDataset, LocalGraph
from .grid import N_BUS_STATE
from .metrics import calibrate_threshold, compute_metrics, undersample_balance

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class VariantSpec:
    name: str
    global_kind: str = "config"   # "config" (per ModelConfig), "mlp", "cnn5", "none"
    local: bool = True
    graph: bool = True            # False: propagate over the masked identity
    embedding: bool = True
    pool: str = "mean"


VARIANTS = {
    "GraphModel": VariantSpec("GraphModel"),
    "GraphPool": VariantSpec("GraphPool", pool="max"),
    "MlpOnly": VariantSpec("MlpOnly", global_kind="mlp", local=False, embedding=False),
    "DeepCnn5": VariantSpec("DeepCnn5", global_kind="cnn5", local=False, embedding=False),
    "NoGlobal": VariantSpec("NoGlobal", global_kind="none"),
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
        if self.pool not in (None, "mean", "max"):
            raise ValueError(f"pool must be null, 'mean' or 'max', not {self.pool!r}")
        if not isinstance(self.mlp_hidden, (tuple, list)) or not self.mlp_hidden:
            raise ValueError(f"mlp_hidden must be a non-empty list of layer sizes, "
                             f"not {self.mlp_hidden!r}")
        sizes = {name: getattr(self, name) for name in (
            "gcn_hidden", "sg_dim", "sl_dim", "stats_hidden", "sid_hidden",
            "cnn_channels", "cnn_kernel", "cnn_stages")}
        sizes.update((f"mlp_hidden[{i}]", n) for i, n in enumerate(self.mlp_hidden))
        for name, n in sizes.items():
            if not _is_int(n) or n < 1:
                raise ValueError(f"{name} must be a positive integer, not {n!r}")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    target_kkd: float = 98.0
    balance: bool = True
    positive_class_only_loss: bool = False

    def validate(self) -> None:
        if not _is_int(self.epochs) or self.epochs < 0:
            raise ValueError(f"epochs must be an integer >= 0, not {self.epochs!r}")
        if not _is_int(self.batch_size) or self.batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, not {self.batch_size!r}")
        if not _is_real(self.lr) or not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be a finite number > 0, not {self.lr!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")
        if not _is_real(self.target_kkd) or not 0.0 <= self.target_kkd <= 100.0:
            raise ValueError(f"target_kkd must be a number in [0, 100], not "
                             f"{self.target_kkd!r}")


def _is_int(n) -> bool:
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class Head:
    """One model head: the ``inputs`` it reads from a batch, its parameter
    ``shapes`` in draw order, and the ``width`` of its output block."""

    def init(self, rng: np.random.Generator, p: dict) -> None:
        """Draw this head's parameters into ``p``: zero biases, Glorot-uniform
        dense weights and conv kernels."""
        for name, shape in self.shapes.items():
            if len(shape) == 1:
                p[name] = np.zeros(shape)
            elif len(shape) == 4:   # conv kernel (c_out, c_in, 1, k)
                c_out, c_in, _, k = shape
                p[name] = nn.glorot_uniform(rng, c_in * k, c_out * k, shape=shape)
            else:
                p[name] = nn.glorot_uniform(rng, *shape)


class DenseStack(Head):
    """ReLU dense layers ``{name}_w``/``{name}_b`` mapping ``sizes[i]`` to
    ``sizes[i + 1]``.  As a head it reads the standardized global vector; as
    the tail of another head it is fed through :meth:`run`."""

    inputs = ("global",)

    def __init__(self, names: tuple[str, ...], sizes: tuple[int, ...]):
        self.names = names
        self.shapes = {}
        for name, n_in, n_out in zip(names, sizes, sizes[1:]):
            self.shapes[f"{name}_w"] = (n_in, n_out)
            self.shapes[f"{name}_b"] = (n_out,)
        self.width = sizes[-1]

    def forward(self, params: dict, batch: dict):
        return self.run(params, batch["global"])

    def run(self, params: dict, x: np.ndarray):
        caches = []
        for name in self.names:
            z, cache = nn.dense_forward(x, params[f"{name}_w"], params[f"{name}_b"])
            caches.append((z, cache))
            x = nn.relu(z)
        return x, caches

    def backward(self, params: dict, caches, g: np.ndarray, grads: dict) -> np.ndarray:
        """Write the layers' grads; return the gradient of the stack's input."""
        for name, (z, cache) in zip(reversed(self.names), reversed(caches)):
            g, grads[f"{name}_w"], grads[f"{name}_b"] = nn.dense_backward(g * (z > 0.0), cache)
        return g


class ConvPoolHead(Head):
    """Conv+max-pool stages ``c{i}`` along the bus axis of the standardized
    raw bus states, flattened into one dense layer ``cd``."""

    inputs = ("raw",)

    def __init__(self, n_bus: int, channels: int, kernel: int, stages: int, width: int):
        self.shapes = {}
        c_in, n = 13, n_bus
        for i in range(1, stages + 1):
            if n - kernel + 1 < 2:
                break
            self.shapes[f"c{i}_k"] = (channels, c_in, 1, kernel)
            self.shapes[f"c{i}_b"] = (channels,)
            c_in, n = channels, (n - kernel + 1) // 2
            if n < kernel:
                break
        if not self.shapes:
            raise ValueError("bus axis too short for even one conv stage")
        self.n_stages = len(self.shapes) // 2
        self.tail = DenseStack(("cd",), (n * channels, width))
        self.shapes.update(self.tail.shapes)
        self.width = width

    def forward(self, params: dict, batch: dict):
        x = batch["raw"]
        convs = []
        for i in range(1, self.n_stages + 1):
            x, cache = nn.conv_maxpool_forward(x, params[f"c{i}_k"], params[f"c{i}_b"])
            convs.append(cache)
        out, tail = self.tail.run(params, x.reshape(x.shape[0], -1))
        return out, (convs, x.shape, tail)

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        convs, shape, tail = cache
        g = self.tail.backward(params, tail, g, grads).reshape(shape)
        for i in range(len(convs), 0, -1):
            g, grads[f"c{i}_k"], grads[f"c{i}_b"] = nn.conv_maxpool_backward(g, convs[i - 1])


class GcnHead(Head):
    """GCN layers ``l1``-``l3`` over the local subgraph, pooled over its real
    nodes.  ``inputs`` names the propagation matrix: the normalized
    ``adjacency``, or the masked ``identity`` when the graph is ablated."""

    def __init__(self, node_features: int, hidden: int, width: int,
                 final_relu: bool, pool: str, graph: bool):
        self.inputs = ("local", "adjacency" if graph else "identity")
        self.shapes = {"l1_w": (node_features, hidden), "l2_w": (hidden, hidden),
                       "l3_w": (hidden, width)}
        self.width = width
        self.final_relu = final_relu
        self.pool = pool

    def forward(self, params: dict, batch: dict):
        a, mask = batch["a"], batch["mask"]
        h1, c1 = nn.gcn_forward(batch["h"], a, params["l1_w"])
        h2, c2 = nn.gcn_forward(h1, a, params["l2_w"])
        h3, c3 = nn.gcn_forward(h2, a, params["l3_w"], apply_relu=self.final_relu)
        if self.pool == "mean":
            cnt = mask.sum(axis=1, keepdims=True)
            out = (h3 * mask[:, :, None]).sum(axis=1) / cnt
            pooled = (mask, cnt)
        else:
            neg = np.where(mask[:, :, None] > 0, h3, -np.inf)
            idx = neg.argmax(axis=1)
            out = np.take_along_axis(h3, idx[:, None, :], axis=1)[:, 0, :]
            pooled = idx
        return out, ((c1, c2, c3), h3.shape, pooled)

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        (c1, c2, c3), shape, pooled = cache
        if self.pool == "mean":
            mask, cnt = pooled
            g_h3 = (g / cnt)[:, None, :] * mask[:, :, None]
        else:
            g_h3 = np.zeros(shape)
            np.put_along_axis(g_h3, pooled[:, None, :], g[:, None, :], axis=1)
        g_h2, grads["l3_w"] = nn.gcn_backward(g_h3, c3)
        g_h1, grads["l2_w"] = nn.gcn_backward(g_h2, c2)
        _, grads["l1_w"] = nn.gcn_backward(g_h1, c1)


class EmbeddingHead(Head):
    """The faulted element's row of ``emb_table``, then one dense layer ``emb``."""

    inputs = ("ids",)

    def __init__(self, n_elements: int, embed_dim: int, width: int):
        self.tail = DenseStack(("emb",), (embed_dim, width))
        self.shapes = {"emb_table": (n_elements, embed_dim), **self.tail.shapes}
        self.width = width

    def init(self, rng: np.random.Generator, p: dict) -> None:
        p["emb_table"] = rng.normal(0.0, 0.1, size=self.shapes["emb_table"])
        self.tail.init(rng, p)

    def forward(self, params: dict, batch: dict):
        emb, cache = nn.embedding_forward(params["emb_table"], batch["ids"])
        out, tail = self.tail.run(params, emb)
        return out, (cache, tail)

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        emb, tail = cache
        g = self.tail.backward(params, tail, g, grads)
        grads["emb_table"] = nn.embedding_backward(g, emb)


def _global_kind(spec: VariantSpec, config: ModelConfig) -> str:
    """The variant's global head: "stats", "mlp", "cnn", "cnn5" or "none"."""
    if spec.global_kind == "config":
        return "cnn" if config.global_encoder == "rawcnn" else "stats"
    return spec.global_kind


def reads_raw(variant: str, config: ModelConfig) -> bool:
    """Whether ``variant`` under ``config`` reads the raw bus states."""
    return _global_kind(VARIANTS[variant], config) in ("cnn", "cnn5")


def build_heads(spec: VariantSpec, cfg: ModelConfig, dims: dict) -> list[Head]:
    """The heads of one variant, in the order their outputs are concatenated."""
    heads: list[Head] = []
    kind = _global_kind(spec, cfg)
    if kind == "stats":
        heads.append(DenseStack(("g1", "g2"),
                                (dims["global_dim"], cfg.stats_hidden, cfg.sg_dim)))
    elif kind == "mlp":
        names = tuple(f"m{i + 1}" for i in range(len(cfg.mlp_hidden)))
        heads.append(DenseStack(names, (dims["global_dim"], *cfg.mlp_hidden)))
    elif kind in ("cnn", "cnn5"):
        stages = 5 if kind == "cnn5" else cfg.cnn_stages
        heads.append(ConvPoolHead(dims["n_bus"], cfg.cnn_channels, cfg.cnn_kernel,
                                  stages, cfg.sg_dim))
    if spec.local:
        heads.append(GcnHead(dims["node_features"], cfg.gcn_hidden, cfg.sl_dim,
                             cfg.gcn_final_relu, cfg.pool or spec.pool, spec.graph))
    if spec.embedding:
        heads.append(EmbeddingHead(dims["n_elements"], cfg.embed_dim, cfg.sid_hidden))
    return heads


class ScreeningModel:
    """One variant's heads, its scalers and the batched forward/backward."""

    def __init__(self, variant: str, config: ModelConfig, dims: dict):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        config.validate()
        # dims: global_dim, n_elements, node_features, n_bus (0 for a dataset
        # without raw states)
        if reads_raw(variant, config) and not dims["n_bus"]:
            raise TrainingError(f"variant {variant} reads raw bus states, and the "
                                f"dataset carries no raw states")
        self.variant = VARIANTS[variant]
        self.heads = build_heads(self.variant, config, dims)
        self.inputs = {name for head in self.heads for name in head.inputs}
        self.width = sum(head.width for head in self.heads)
        self.scalers: dict[str, np.ndarray] = {}
        self._scaler_shapes = {"global": (dims["global_dim"],),
                               "local": (dims["node_features"],), "raw": (N_BUS_STATE,)}
        # Propagation matrices come from the process-wide _PROPAGATION cache,
        # keyed by the identity of each sample's adjacency and mask arrays, so
        # a model built per snapshot (as scores_for does) normalizes no line
        # the process has seen.
        self._graph = "adjacency" in self.inputs

    def init_params(self, rng: np.random.Generator) -> dict:
        p: dict[str, np.ndarray] = {}
        for head in self.heads:
            head.init(rng, p)
        # Small output init keeps initial predictions near 0.5.
        p["out_w"] = 0.1 * nn.glorot_uniform(rng, self.width, 1)
        p["out_b"] = np.zeros(1)
        return p

    def check_params(self, params: dict, scalers: dict) -> None:
        """Raise :class:`TrainingError` naming a parameter the heads and the
        output layer do not declare with that shape, or a scaler that is
        missing or does not match the dataset's dims."""
        want = {name: shape for head in self.heads for name, shape in head.shapes.items()}
        want.update(out_w=(self.width, 1), out_b=(1,))
        for name, shape in want.items():
            if name not in params:
                raise TrainingError(f"checkpoint lacks parameter {name!r}")
            if params[name].shape != shape:
                raise TrainingError(f"checkpoint parameter {name!r} has shape "
                                    f"{params[name].shape}, expected {shape}")
        unused = sorted(set(params) - set(want))
        if unused:
            raise TrainingError(f"checkpoint parameters {unused} are not in variant "
                                f"{self.variant.name}")
        for kind in sorted(self.inputs & {"global", "local", "raw"}):
            for name in (f"{kind}_mu", f"{kind}_sd"):
                if name not in scalers:
                    raise TrainingError(f"checkpoint lacks scaler {name!r}")
                if scalers[name].shape != self._scaler_shapes[kind]:
                    raise TrainingError(f"checkpoint scaler {name!r} has shape "
                                        f"{scalers[name].shape}, expected "
                                        f"{self._scaler_shapes[kind]}")

    # ------------------------------------------------------- data plumbing

    def fit_scalers(self, dataset: FeaturizedDataset) -> None:
        """Per-dimension standardization statistics from the training data."""
        scalers = {}
        if "global" in self.inputs:
            g = np.stack([s.global_vec for s in dataset.samples])
            scalers["global_mu"] = g.mean(axis=0)
            scalers["global_sd"] = _safe_sd(g.std(axis=0))
        if "local" in self.inputs:
            rows = np.vstack([
                s.local.node_features[s.local.node_mask] for s in dataset.samples
            ])
            scalers["local_mu"] = rows.mean(axis=0)
            scalers["local_sd"] = _safe_sd(rows.std(axis=0))
        if "raw" in self.inputs:
            raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in dataset.samples])
            scalers["raw_mu"] = raws.mean(axis=(0, 1))
            scalers["raw_sd"] = _safe_sd(raws.std(axis=(0, 1)))
        self.scalers = scalers

    def build_batch(self, dataset: FeaturizedDataset, indices) -> dict:
        sc = self.scalers
        batch: dict[str, np.ndarray | None] = dict.fromkeys(
            ("global", "raw", "h", "a", "mask", "ids"))
        samples = [dataset.samples[i] for i in indices]
        if "global" in self.inputs:
            g = np.stack([s.global_vec for s in samples])
            batch["global"] = (g - sc["global_mu"]) / sc["global_sd"]
        if "raw" in self.inputs:
            raws = np.stack([dataset.raw_states[(s.day, s.slot)] for s in samples])
            raws = (raws - sc["raw_mu"]) / sc["raw_sd"]
            batch["raw"] = raws.transpose(0, 2, 1)[:, :, None, :]   # (B, 13, 1, n_bus)
        if "local" in self.inputs:
            mask = np.stack([s.local.node_mask for s in samples]).astype(float)
            h = np.stack([s.local.node_features for s in samples])
            h = (h - sc["local_mu"]) / sc["local_sd"]
            h *= mask[:, :, None]
            batch["h"] = h
            batch["mask"] = mask
            batch["a"] = np.stack([_propagation(s.local, self._graph) for s in samples])
        if "ids" in self.inputs:
            batch["ids"] = np.array([s.element_id for s in samples], dtype=int)
        return batch

    # -------------------------------------------------------- forward/backward

    def forward(self, params: dict, batch: dict):
        outs, head_caches = zip(*(head.forward(params, batch) for head in self.heads))
        z_out, out_cache = nn.dense_forward(np.concatenate(outs, axis=1),
                                            params["out_w"], params["out_b"])
        y = nn.sigmoid(z_out[:, 0])
        return y, {"heads": head_caches, "out": out_cache, "y": y}

    def backward(self, params: dict, caches: dict, grad_y: np.ndarray) -> dict:
        grads: dict[str, np.ndarray] = {}
        y = caches["y"]
        grad_z = grad_y * y * (1.0 - y)
        grad_concat, grads["out_w"], grads["out_b"] = nn.dense_backward(
            grad_z[:, None], caches["out"])
        start = 0
        for head, cache in zip(self.heads, caches["heads"]):
            head.backward(params, cache, grad_concat[:, start:start + head.width], grads)
            start += head.width
        return grads

    def predict(self, params: dict, dataset: FeaturizedDataset,
                batch_size: int = 512) -> np.ndarray:
        scores = np.empty(len(dataset.samples))
        for start in range(0, len(dataset.samples), batch_size):
            idx = range(start, min(start + batch_size, len(dataset.samples)))
            batch = self.build_batch(dataset, idx)
            scores[list(idx)], _ = self.forward(params, batch)
        return scores


# (id(adjacency), id(node_mask), graph) -> propagation matrix, for every
# model in the process.  ``featurize`` shares one (adjacency, node_mask) pair
# per line for the life of its network index, so each line is normalized once
# per network.  An entry is dropped when either array dies, which bounds the
# cache by the datasets alive and keeps a reused id() from serving a stale
# matrix.  The arrays must not be written once a model has read them.
_PROPAGATION: dict[tuple[int, int, bool], np.ndarray] = {}


def _propagation(local: LocalGraph, graph: bool) -> np.ndarray:
    """The normalized adjacency of a subgraph, or its masked identity when the
    graph is ablated."""
    key = (id(local.adjacency), id(local.node_mask), graph)
    a = _PROPAGATION.get(key)
    if a is None:
        if graph:
            a = nn.normalize_adjacency(local.adjacency, local.node_mask)
        else:
            a = np.diag(local.node_mask.astype(float))
        _PROPAGATION[key] = a
        weakref.finalize(local.adjacency, _PROPAGATION.pop, key, None)
        weakref.finalize(local.node_mask, _PROPAGATION.pop, key, None)
    return a


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
    tc.validate()
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
            f"feature_spec_hash mismatch: dataset {dataset.feature_spec_hash()} "
            f"vs checkpoint {result.feature_spec_hash}")
    model = ScreeningModel(result.variant, result.config, _dims_for(dataset))
    model.check_params(result.params, result.scalers)
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
        "node_features": sample.local.node_features.shape[1],
        "n_bus": n_bus,
    }


def _copy_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}
