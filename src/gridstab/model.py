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
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import (
    EMBED_DIM, INDEX_COLUMNS, LINE_COLUMNS, FeaturizedDataset, FeatureStore, LineTemplates,
    gather_nodes,
)
from .grid import FINITE, FLAG, N_BUS_STATE, _is_int, at_least, check_fields
from .metrics import TARGET_KKD, balanced_rows, calibrate_threshold, compute_metrics

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


# Samples the GCN head scores at a time (the default training batch).  Only
# that head is blocked: tests/test_blas_probes.py records why dense rows
# would round apart.
BLOCK = 64
PREDICT_ROWS = 512   # samples per forward call of predict, and per loss block
# Views of GcnHead's arena: scoring's, then training's (see GcnHead).
SCORE_VIEWS = ("x", "y", "t", "a")
TRAIN_VIEWS = SCORE_VIEWS + ("s0", "s1", "s2")


@dataclass
class ModelConfig:
    global_encoder: str = "stats"      # "stats" or "rawcnn"
    gcn_hidden: int = 64
    sg_dim: int = 64
    sl_dim: int = 64
    stats_hidden: int = 64
    sid_hidden: int = 32
    mlp_hidden: tuple = (200, 100)
    cnn_channels: int = 16
    cnn_kernel: int = 3
    cnn_stages: int = 2
    gcn_final_relu: bool = True
    pool: str | None = None            # None: variant default

    # field -> (test of a valid value, what it must be), as check_fields reads it
    RULES = {
        "global_encoder": (lambda v: v in ("stats", "rawcnn"), "'stats' or 'rawcnn'"),
        "pool": (lambda v: v in (None, "mean", "max"), "null, 'mean' or 'max'"),
        "mlp_hidden": (lambda v: isinstance(v, (tuple, list)) and v
                       and all(_is_int(n) and n >= 1 for n in v),
                       "a non-empty list of positive integers"),
        **{name: at_least(1, "a positive integer") for name in (
            "gcn_hidden", "sg_dim", "sl_dim", "stats_hidden", "sid_hidden",
            "cnn_channels", "cnn_kernel", "cnn_stages")},
        "gcn_final_relu": FLAG,
    }

    def validate(self) -> None:
        check_fields(vars(self), self.RULES)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0
    target_kkd: float = 98.0
    balance: bool = True
    positive_class_only_loss: bool = False

    RULES = {"epochs": at_least(0), "batch_size": at_least(1),
             "lr": (lambda v: FINITE[0](v) and v > 0.0, "a finite number > 0"),
             "seed": at_least(0), "target_kkd": TARGET_KKD,
             "balance": FLAG, "positive_class_only_loss": FLAG}

    def validate(self) -> None:
        check_fields(vars(self), self.RULES)


class Head:
    """One model head: the ``inputs`` it reads from a batch, its parameter
    ``shapes`` in draw order, and the ``width`` of its output block.

    ``forward(params, batch, keep_caches)`` returns the head's output block
    and the cache its ``backward`` reads.  Training and scoring pass the same
    batch, :meth:`ScreeningModel.index_batch`'s, which holds the local inputs
    as row indices (:class:`LocalRows`): the GCN head gathers them into its
    arena, a whole training batch at once or :data:`BLOCK` samples at a time
    when scoring.  Without ``keep_caches`` (scoring) the conv head drops each
    stage's cache as it goes, and no head keeps a cache.
    """

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
    the tail of another head it is fed through :meth:`run`, and its
    :meth:`backward` returns the gradient of its input."""

    inputs = ("global",)

    def __init__(self, names: tuple[str, ...], sizes: tuple[int, ...]):
        self.names = names
        self.shapes = {}
        for name, n_in, n_out in zip(names, sizes, sizes[1:]):
            self.shapes[f"{name}_w"] = (n_in, n_out)
            self.shapes[f"{name}_b"] = (n_out,)
        self.width = sizes[-1]

    def forward(self, params: dict, batch: dict, keep_caches: bool = True):
        return self.run(params, batch["global"])

    def run(self, params: dict, x: np.ndarray):
        caches = []
        for name in self.names:
            z, cache = nn.dense_forward(x, params[f"{name}_w"], params[f"{name}_b"])
            caches.append((z, cache))
            x = nn.relu(z)
        return x, caches

    def backward(self, params: dict, caches, g: np.ndarray, grads: dict,
                 need_input_grad: bool = False) -> np.ndarray | None:
        """Write the layers' grads; return the gradient of the stack's input
        with ``need_input_grad`` (a tail), else ``None`` (a head, whose input
        is data)."""
        for name, (z, cache) in zip(reversed(self.names), reversed(caches)):
            g, grads[f"{name}_w"], grads[f"{name}_b"] = nn.dense_backward(
                g * (z > 0.0), cache,
                need_input_grad=need_input_grad or name != self.names[0])
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

    def forward(self, params: dict, batch: dict, keep_caches: bool = True):
        x = batch["raw"]
        convs = []
        for i in range(1, self.n_stages + 1):
            x, cache = nn.conv_maxpool_forward(x, params[f"c{i}_k"], params[f"c{i}_b"])
            if keep_caches:
                convs.append(cache)
            del cache
        out, tail = self.tail.run(params, x.reshape(x.shape[0], -1))
        return out, (convs, x.shape, tail)

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        convs, shape, tail = cache
        g = self.tail.backward(params, tail, g, grads, need_input_grad=True).reshape(shape)
        for i in range(len(convs), 0, -1):
            # Stage 1's input is data, so its input gradient is not computed.
            g, grads[f"c{i}_k"], grads[f"c{i}_b"] = nn.conv_maxpool_backward(
                g, convs[i - 1], need_input_grad=i > 1)


class GcnHead(Head):
    """GCN layers ``l1``-``l3`` over the local subgraph, pooled over its real
    nodes.  ``inputs`` names the propagation matrix: the normalized
    ``adjacency``, or the masked ``identity`` when the graph is ablated.

    The head's node-level arrays live in one flat float64 arena, cut into
    ``(k, max_nodes, <= w)`` views for a block or batch of k samples: the
    node rows ``x``, the layer outputs (alternating between ``y`` and ``x``),
    a scratch ``t`` and the propagation matrices ``a`` (:data:`SCORE_VIEWS`);
    training also keeps each layer's propagated input ``s0``-``s2``
    (:data:`TRAIN_VIEWS`).  The arena is sized for the largest block or
    batch run so far and replaced, the old one released first, only when a
    larger one comes; it dies with the head.  A training cache keeps each
    layer's ``s`` and bool ReLU mask, not its float output.  Its views are
    overwritten by the next forward, so :meth:`backward` refuses a cache
    that another forward has followed.
    """

    def __init__(self, node_features: int, hidden: int, width: int,
                 final_relu: bool, pool: str, graph: bool):
        self.inputs = ("local", "adjacency" if graph else "identity")
        self.shapes = {"l1_w": (node_features, hidden), "l2_w": (hidden, hidden),
                       "l3_w": (hidden, width)}
        self.layers = (("l1_w", True), ("l2_w", True), ("l3_w", final_relu))
        self.width = width
        self.pool = pool
        self._arena: np.ndarray | None = None
        self._stamp = 0      # forwards run; a training cache records its own

    def forward(self, params: dict, batch: dict, keep_caches: bool = True):
        local = batch["local"]
        if not keep_caches:
            return self.score(params, local), None
        views = self._views(len(local), local.max_nodes, TRAIN_VIEWS)
        out, layers, pooled = self._run(params, local, slice(None), views, keep_caches=True)
        return out, (self._stamp, layers, pooled, views)

    def score(self, params: dict, local: LocalRows) -> np.ndarray:
        """The ``(n, width)`` output of ``local``'s samples, gathered and
        propagated :data:`BLOCK` at a time in the arena.  A GCN layer and the
        pooling act on each sample alone, so a sample's bytes do not depend
        on its block."""
        n = len(local)
        views = self._views(min(n, BLOCK), local.max_nodes, SCORE_VIEWS)
        out = np.empty((n, self.width))
        for lo in range(0, n, BLOCK):
            pooled = self._run(params, local, slice(lo, lo + BLOCK), views)[0]
            out[lo:lo + len(pooled)] = pooled
        return out

    def _views(self, k: int, m: int, names: tuple[str, ...]) -> dict:
        """Flat views ``names`` of the arena, each long enough for k samples
        of m nodes at the head's widest row.  Every forward takes its views
        here once, which stamps it."""
        self._stamp += 1
        size = k * m * max(m, *(n for shape in self.shapes.values() for n in shape))
        if self._arena is None or self._arena.size < size * len(names):
            self._arena = None      # release the old arena before making the new one
            self._arena = np.empty(size * len(names))
        return {name: self._arena[i * size:(i + 1) * size] for i, name in enumerate(names)}

    def _run(self, params: dict, local: LocalRows, rows: slice, views: dict,
             keep_caches: bool = False):
        """Gather the samples ``rows`` into ``views``, run the layers and pool;
        returns the pooled rows, each layer's cache (with ``keep_caches``) and
        what :meth:`backward` needs to route the pooled gradient."""
        h, mask, a = local.gather(rows, out=(views["x"], views["a"]))
        k, m = mask.shape
        layers, dst = [], "y"
        for i, (name, relu) in enumerate(self.layers):
            w = params[name]
            s = _shaped(views[f"s{i}" if keep_caches else "t"], k, m, w.shape[0])
            h, _ = nn.gcn_forward(h, a, w, apply_relu=relu,
                                  out=(s, _shaped(views[dst], k, m, w.shape[1])))
            if keep_caches:
                layers.append((s, a, w, h > 0.0 if relu else None, relu))
            dst = "x" if dst == "y" else "y"
        out, pooled = self._pool(h, mask, _shaped(views["t"], k, m, self.width))
        return out, layers, pooled

    def _pool(self, h3: np.ndarray, mask: np.ndarray, scratch: np.ndarray):
        """Pool ``h3`` over each sample's real nodes, with the masked
        activations in ``scratch``; returns the pooled rows and what
        :meth:`backward` needs to route the gradient."""
        if self.pool == "mean":
            cnt = mask.sum(axis=1, keepdims=True)
            # x * 1.0 == x, so a block with no padded node is not multiplied.
            masked = h3 if mask.all() else np.multiply(h3, mask[:, :, None], out=scratch)
            return masked.sum(axis=1) / cnt, (mask, cnt)
        scratch.fill(-np.inf)
        np.copyto(scratch, h3, where=mask[:, :, None] > 0)
        idx = scratch.argmax(axis=1)
        return np.take_along_axis(h3, idx[:, None, :], axis=1)[:, 0, :], idx

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        stamp, layers, pooled, views = cache
        if stamp != self._stamp:
            raise TrainingError(f"GCN caches of forward {stamp} were overwritten by "
                                f"forward {self._stamp}; run backward on the last "
                                f"forward's caches")
        k, m = layers[0][0].shape[:2]
        g_h = _shaped(views["x"], k, m, self.width)
        if self.pool == "mean":
            mask, cnt = pooled
            np.multiply((g / cnt)[:, None, :], mask[:, :, None], out=g_h)
        else:
            g_h.fill(0.0)
            np.put_along_axis(g_h, pooled[:, None, :], g[:, None, :], axis=1)
        dst = "y"
        for (name, _), layer in zip(reversed(self.layers), reversed(layers)):
            n_in = layer[2].shape[0]
            out = (g_h, _shaped(views["t"], k, m, n_in), _shaped(views[dst], k, m, n_in))
            # Layer 1's input is data, so its input gradient is not computed.
            g_h, grads[name] = nn.gcn_backward(
                g_h, layer, need_input_grad=layer is not layers[0], out=out)
            dst = "x" if dst == "y" else "y"


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

    def forward(self, params: dict, batch: dict, keep_caches: bool = True):
        emb, cache = nn.embedding_forward(params["emb_table"], batch["ids"])
        out, tail = self.tail.run(params, emb)
        return out, (cache, tail)

    def backward(self, params: dict, cache, g: np.ndarray, grads: dict) -> None:
        emb, tail = cache
        g = self.tail.backward(params, tail, g, grads, need_input_grad=True)
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
        heads.append(EmbeddingHead(dims["n_elements"], EMBED_DIM, cfg.sid_hidden))
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
        self.scalers = {}
        self._scaler_shapes = {"global": (dims["global_dim"],),
                               "local": (dims["node_features"],), "raw": (N_BUS_STATE,)}
        # Propagation matrices are kept on the dataset store's templates, which
        # featurize shares per network, so a model built per snapshot (as
        # scores_for does) normalizes no line the process has seen.
        self._graph = "adjacency" in self.inputs

    @property
    def scalers(self) -> dict[str, np.ndarray]:
        return self._scalers

    @scalers.setter
    def scalers(self, scalers: dict[str, np.ndarray]) -> None:
        self._scalers = scalers
        # id(store) -> (store, its LocalTables under these scalers)
        self._local_tables: dict[int, tuple[FeatureStore, LocalTables]] = {}

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
        store = dataset.store
        table, template = (dataset.columns[name] for name in INDEX_COLUMNS)
        if "global" in self.inputs:
            g = dataset.global_rows()
            scalers["global_mu"] = g.mean(axis=0)
            scalers["global_sd"] = _safe_sd(g.std(axis=0))
        if "local" in self.inputs:
            # Every real node row of every sample, in sample then node order.
            sample, node = np.nonzero(store.templates.node_mask[template])
            rows = gather_nodes(store.tables, store.templates, table[sample],
                                template[sample], node)
            scalers["local_mu"] = rows.mean(axis=0)
            scalers["local_sd"] = _safe_sd(rows.std(axis=0))
        if "raw" in self.inputs:
            raws = dataset.raw_rows()
            scalers["raw_mu"] = raws.mean(axis=(0, 1))
            scalers["raw_sd"] = _safe_sd(raws.std(axis=(0, 1)))
        self.scalers = scalers

    def index_batch(self, dataset: FeaturizedDataset, indices) -> dict:
        """The batch training and scoring read: the standardized ``global``
        vectors, ``raw`` states and ``ids`` of the samples at ``indices``,
        and under ``local`` their :class:`LocalRows`, with no node row
        gathered."""
        sc = self.scalers
        batch: dict = dict.fromkeys(("global", "raw", "ids", "local"))
        columns = dataset.columns
        if "global" in self.inputs:
            batch["global"] = (dataset.global_rows(indices) - sc["global_mu"]) / sc["global_sd"]
        if "raw" in self.inputs:
            raws = (dataset.raw_rows(indices) - sc["raw_mu"]) / sc["raw_sd"]
            batch["raw"] = raws.transpose(0, 2, 1)[:, :, None, :]   # (B, 13, 1, n_bus)
        if "local" in self.inputs:
            batch["local"] = LocalRows(self._local_source(dataset.store),
                                       *(columns[name][indices] for name in INDEX_COLUMNS))
        if "ids" in self.inputs:
            batch["ids"] = columns["element_id"][indices]
        return batch

    def build_batch(self, dataset: FeaturizedDataset, indices) -> dict:
        """The batch of one training step: :meth:`index_batch`'s.  There is
        one batch path; the GCN head gathers the node rows into its arena in
        :meth:`forward` (``batch["local"].gather()`` gives them as arrays)."""
        return self.index_batch(dataset, indices)

    def _local_source(self, store: FeatureStore) -> LocalTables:
        """``store``'s :class:`LocalTables` under this model's scalers, made
        on first use and kept until the scalers are replaced."""
        hit = self._local_tables.get(id(store))
        if hit is None:
            source = LocalTables.of(store, self.scalers, self._graph)
            hit = self._local_tables[id(store)] = (store, source)
        return hit[1]

    # -------------------------------------------------------- forward/backward

    def forward(self, params: dict, batch: dict, keep_caches: bool = True):
        """Scores of an :meth:`index_batch` and the caches :meth:`backward`
        reads; scoring passes ``keep_caches=False`` and gets no caches.  The
        GCN head's caches hold only until its next forward."""
        outs, head_caches = zip(*(head.forward(params, batch, keep_caches)
                                  for head in self.heads))
        z_out, out_cache = nn.dense_forward(np.concatenate(outs, axis=1),
                                            params["out_w"], params["out_b"])
        y = nn.sigmoid(z_out[:, 0])
        if not keep_caches:
            return y, None
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

    def predict(self, params: dict, dataset: FeaturizedDataset) -> np.ndarray:
        """The scores of ``dataset``, :data:`PREDICT_ROWS` samples a forward."""
        n = len(dataset)
        scores = np.empty(n)
        for start in range(0, n, PREDICT_ROWS):
            idx = range(start, min(start + PREDICT_ROWS, n))
            batch = self.index_batch(dataset, idx)
            scores[list(idx)], _ = self.forward(params, batch, keep_caches=False)
        return scores


@dataclass(frozen=True)
class LocalTables:
    """A store's node inputs standardized by one model's local scalers: the
    ``tables``, and each template's ``rows``, standardized ``line_values``,
    ``node_mask`` and ``propagation`` matrix, all on the templates' axis.
    :func:`~features.gather_nodes` reads it as it reads a store.

    Standardizing ``(x - mu) / sd`` is elementwise, so gathering standardized
    rows gives the bytes of standardizing gathered ones.  Padded nodes read
    the standardized zero row and are then masked to the signed zero that
    ``((0 - mu) / sd) * 0`` gives.
    """

    tables: np.ndarray         # (T, R, F) float64, read-only
    rows: np.ndarray           # (L, m) intp
    line_values: np.ndarray    # (L, m, len(LINE_COLUMNS)) float64, read-only
    node_mask: np.ndarray      # (L, m) bool
    propagation: np.ndarray    # (L, m, m)

    @classmethod
    def of(cls, store: FeatureStore, scalers: dict, adjacency: bool) -> LocalTables:
        mu, sd = scalers["local_mu"], scalers["local_sd"]
        # In the tables' own dtype, then widened exactly, as a gathered row
        # was standardized in place.
        tables = store.tables.copy()
        lines = store.templates.line_values.astype(tables.dtype)
        for array, cols in ((tables, slice(None)), (lines, LINE_COLUMNS)):
            array -= mu[cols]
            array /= sd[cols]
        tables, lines = tables.astype(float, copy=False), lines.astype(float, copy=False)
        for array in (tables, lines):
            array.flags.writeable = False
        templates = store.templates
        return cls(tables, templates.rows, lines, templates.node_mask,
                   _propagation(templates, adjacency))


@dataclass(frozen=True)
class LocalRows:
    """The local inputs of a batch as row indices: each sample's ``table``
    and ``template`` row into its dataset's :class:`LocalTables`."""

    source: LocalTables
    table: np.ndarray
    template: np.ndarray

    def __len__(self) -> int:
        return len(self.template)

    @property
    def max_nodes(self) -> int:
        return self.source.node_mask.shape[1]

    def gather(self, rows: slice = slice(None), out: tuple | None = None):
        """Standardized, masked node rows ``h`` (:func:`~features.gather_nodes`),
        float node ``mask`` and propagation matrices ``a`` of the samples ``rows``.

        ``out=(h, a)`` names flat float64 buffers to write ``h`` and ``a``
        into, with the same bytes.  Every template once, in order (one
        screened snapshot), returns the propagation stack itself: the same
        bytes, and no copy.
        """
        src = self.source
        table, template = self.table[rows], self.template[rows]
        node_mask = src.node_mask[template]
        k, m = node_mask.shape
        h = gather_nodes(src.tables, src, table[:, None], template,
                         out=None if out is None else out[0])
        if not node_mask.all():      # x * 1.0 == x, so a full mask is skipped
            h *= node_mask[:, :, None]
        a = src.propagation
        if not (len(template) == len(a) and np.array_equal(template, np.arange(len(a)))):
            a = np.take(a, template, axis=0, mode="clip",
                        out=None if out is None else _shaped(out[1], k, m, m))
        return h, node_mask.astype(float), a


def _shaped(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading ``prod(shape)`` entries of the flat array ``flat``, viewed
    as ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def _propagation(templates: LineTemplates, graph: bool) -> np.ndarray:
    """(L, m, m) propagation matrices of every template of ``templates``: the
    normalized adjacency, or the masked identity when the graph is ablated.

    Computed once per templates object and kind and kept on it, so every
    model and every dataset sharing the templates reuses them.
    """
    a = templates.propagation.get(graph)
    if a is None:
        masks = templates.node_mask
        if graph:
            # Template by template: normalizing the whole stack in one call gives
            # the same bytes faster, but it raised cli's peak RSS by 6-8 MB
            # on two of six 54-bus worlds, through heap layout alone (the
            # heap grew while 15 MB of it was free).
            a = np.stack([nn.normalize_adjacency(adj, mask) for adj, mask
                          in zip(templates.dense_adjacency(), masks)])
        else:
            a = np.stack([np.diag(mask.astype(float)) for mask in masks])
        templates.propagation[graph] = a
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
    best_epoch: int
    config: ModelConfig
    feature_spec_hash: str
    calibration_feasible: bool = True   # always: calibration reaches any target


def train(variant: str, train_set: FeaturizedDataset, val_set: FeaturizedDataset,
          model_config: ModelConfig | None = None,
          train_config: TrainConfig | None = None) -> TrainResult:
    """Adam training with the best epoch selected by reliability-constrained
    validation accuracy; deterministic in the seed."""
    mc = model_config or ModelConfig()
    tc = train_config or TrainConfig()
    tc.validate()
    if not len(train_set):
        raise TrainingError("empty training set")

    if tc.balance:
        train_set = train_set.take(balanced_rows(train_set.columns["label"], tc.seed))

    dims = _dims_for(train_set)
    model = ScreeningModel(variant, mc, dims)
    model.fit_scalers(train_set)
    rng = np.random.default_rng([tc.seed, 101])
    params = model.init_params(rng)
    state = nn.adam_init(params, lr=tc.lr)
    shuffle_rng = np.random.default_rng([tc.seed, 102])

    labels = train_set.labels()
    n = len(train_set)
    best = {"acc": -1.0, "params": _copy_params(params), "threshold": 0.5, "epoch": 0}
    history = []

    def epoch_row(epoch: int, train_loss: float):
        val_scores = model.predict(params, val_set)
        thr = calibrate_threshold(val_scores, val_set.labels(), tc.target_kkd)
        row_metrics = compute_metrics(val_scores, val_set.labels(), thr)
        history.append({
            "epoch": epoch, "train_loss": train_loss,
            "val_kkd": row_metrics.kkd, "val_acc": row_metrics.acc,
        })
        # ties go to the later (more trained) epoch
        if row_metrics.acc >= best["acc"]:
            best.update(acc=row_metrics.acc, params=_copy_params(params),
                        threshold=thr, epoch=epoch)

    def full_loss() -> float:
        """The mean of the per-block losses over :meth:`predict`'s blocks."""
        y, total = model.predict(params, train_set), 0.0
        for start in range(0, n, PREDICT_ROWS):
            block = slice(start, start + PREDICT_ROWS)
            loss, _ = nn.bce_loss(y[block], labels[block], tc.positive_class_only_loss)
            total += loss * y[block].size
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
        history=history, threshold=float(best["threshold"]), best_epoch=best["epoch"],
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
    return {
        "global_dim": dataset.global_dim,
        "n_elements": dataset.n_elements,
        "node_features": dataset.store.tables.shape[-1],
        "n_bus": n_bus,
    }


def _copy_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}
