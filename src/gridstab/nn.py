"""From-scratch differentiable layers with hand-derived backward passes.

Everything operates on plain float64 numpy arrays, and every layer takes a
batch: a leading batch axis on each input, with no one-sample form.
Each layer is a forward function returning (output, cache) and a backward
function mapping the upstream gradient plus the cache to input/parameter
gradients.  The convolution layer pools the one way the models use: the
max of each adjacent pair of columns along the bus axis.  A
finite-difference checker validates every backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_CLAMP = 1e-7
LOG2 = math.log(2.0)


class ShapeError(ValueError):
    pass


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(np.asarray(z, dtype=float))
    z = np.asarray(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------- dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x W + b for x of shape (batch, n)."""
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: input dim {x.shape[1]} vs weight {w.shape}")
    return x @ w + b, (x, w)


def dense_backward(grad_y: np.ndarray, cache):
    x, w = cache
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


# ------------------------------------------------- convolution + max-pool

def conv_maxpool_forward(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray):
    """Valid cross-correlation, bias, ReLU, then the max of each adjacent pair
    of columns along the last axis; an odd last column is dropped.

    x: (batch, c_in, h, w); kernels: (c_out, c_in, kh, kw); biases: (c_out,).
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError("conv expects 4-d input and kernels")
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv: {c_in} input channels vs kernel {kc}")
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    if w - kw + 1 < 2:
        raise ShapeError(f"conv output width {w - kw + 1} has no pair to pool")

    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    conv = np.einsum("bchwij,ocij->bohw", windows, kernels, optimize=True)
    conv = conv + biases[None, :, None, None]
    act = np.maximum(conv, 0.0)

    wo = act.shape[3] // 2
    pairs = act[..., :2 * wo].reshape(*act.shape[:3], wo, 2)
    argmax = pairs.argmax(axis=4)[..., None]
    pooled = np.take_along_axis(pairs, argmax, axis=4)[..., 0]
    return pooled, (x, kernels, conv, argmax)


def conv_maxpool_backward(grad_out: np.ndarray, cache):
    x, kernels, conv, argmax = cache
    c_out, _, kh, kw = kernels.shape
    hc, wc = conv.shape[2], conv.shape[3]

    grad_act = np.zeros_like(conv)
    # Splitting the last axis is always a view, so the put writes into grad_act.
    pairs = grad_act[..., :2 * grad_out.shape[3]].reshape(*argmax.shape[:4], 2)
    np.put_along_axis(pairs, argmax, grad_out[..., None], axis=4)

    grad_conv = grad_act * (conv > 0.0)
    grad_b = grad_conv.sum(axis=(0, 2, 3))
    grad_k = np.zeros_like(kernels)
    grad_x = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, :, i:i + hc, j:j + wc]
            grad_k[:, :, i, j] = np.einsum("bohw,bchw->oc", grad_conv, patch, optimize=True)
            grad_x[:, :, i:i + hc, j:j + wc] += np.einsum(
                "bohw,oc->bchw", grad_conv, kernels[:, :, i, j], optimize=True)
    return grad_x, grad_k, grad_b


# ------------------------------------------------------ graph convolution

def normalize_adjacency(adj: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Self-loop augmented symmetric degree normalization.

    With a node mask, padded (masked-out) rows and columns pass through as
    zeros and receive no self-loop.
    """
    a = np.asarray(adj, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("adjacency must be square")
    if not np.allclose(a, a.T):
        raise ShapeError("adjacency must be symmetric")
    if np.any(np.diagonal(a) != 0.0):
        raise ShapeError("adjacency diagonal must be zero")
    a_hat = a.copy()
    if mask is None:
        a_hat[np.diag_indices_from(a_hat)] = 1.0
    else:
        m = np.asarray(mask, dtype=bool)
        idx = np.where(m)[0]
        a_hat[idx, idx] = 1.0
        a_hat[~m, :] = 0.0
        a_hat[:, ~m] = 0.0
    deg = a_hat.sum(axis=1)
    inv_sqrt = np.where(deg > 0.0, 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0)), 0.0)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(h: np.ndarray, adj_norm: np.ndarray, w: np.ndarray,
                apply_relu: bool = True):
    """One propagation step: act(adj_norm @ h @ w).

    h: (batch, n, f); adj_norm: (batch, n, n).
    """
    if h.shape[-1] != w.shape[0]:
        raise ShapeError(f"gcn: feature dim {h.shape[-1]} vs weight {w.shape}")
    if adj_norm.shape[-1] != h.shape[1]:
        raise ShapeError("gcn: adjacency size does not match node count")
    s = adj_norm @ h
    z = s @ w
    y = np.maximum(z, 0.0) if apply_relu else z
    return y, (s, adj_norm, w, z, apply_relu)


def gcn_backward(grad_y: np.ndarray, cache):
    s, adj_norm, w, z, apply_relu = cache
    g = grad_y * (z > 0.0) if apply_relu else grad_y
    grad_w = np.einsum("bnf,bng->fg", s, g, optimize=True)
    grad_h = np.matmul(adj_norm.transpose(0, 2, 1), g @ w.T)
    return grad_h, grad_w


# ------------------------------------------------------------- embedding

def embedding_forward(table: np.ndarray, ids: np.ndarray):
    """Rows ``table[ids]`` for an integer id vector."""
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    return table[ids], (table.shape, ids)


def embedding_backward(grad_y: np.ndarray, cache):
    shape, ids = cache
    grad_table = np.zeros(shape)
    np.add.at(grad_table, ids, grad_y)
    return grad_table


# ------------------------------------------------------------------ loss

def bce_loss(y_hat: np.ndarray, y: np.ndarray, positive_class_only: bool = False):
    """Mean cross-entropy in bits; returns (loss, grad wrt y_hat).

    Predictions are clamped away from {0, 1}; clamped entries get zero
    gradient.  ``positive_class_only`` drops the (1-y)log2(1-p) term,
    reproducing a degenerate historical form kept only for comparison.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape:
        raise ShapeError(f"loss: predictions {y_hat.shape} vs labels {y.shape}")
    n = y.size
    if n == 0:
        raise ShapeError("loss on empty input")
    p = np.clip(y_hat, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (y_hat > PROB_CLAMP) & (y_hat < 1.0 - PROB_CLAMP)
    if positive_class_only:
        loss = -np.sum(y * np.log2(p)) / n
        grad = np.where(inside, -(y / p) / (n * LOG2), 0.0)
    else:
        loss = -np.sum(y * np.log2(p) + (1.0 - y) * np.log2(1.0 - p)) / n
        grad = np.where(inside, -(y / p - (1.0 - y) / (1.0 - p)) / (n * LOG2), 0.0)
    return float(loss), grad


# ------------------------------------------------------------------ adam

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict, lr: float = 0.001) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        t=0, lr=lr,
    )


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place bias-corrected update; missing grads are treated as zero."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for key, p in params.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise ShapeError(f"adam: grad shape {g.shape} vs param {p.shape} for {key}")
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / bc1
        v_hat = state.v[key] / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------- verification

def grad_check(loss_and_grads, params: dict, eps: float = 1e-5,
               max_entries_per_param: int | None = None):
    """Compare analytic gradients against central finite differences.

    ``loss_and_grads(params) -> (loss, grads)`` must be deterministic.
    Returns (max relative error, name of the worst parameter entry).
    """
    _, analytic = loss_and_grads(params)
    worst = 0.0
    worst_name = ""
    for key in sorted(params):
        p = params[key]
        flat = p.reshape(-1)
        n = flat.size
        idxs = range(n)
        if max_entries_per_param is not None and n > max_entries_per_param:
            idxs = np.linspace(0, n - 1, max_entries_per_param).astype(int)
        ga = analytic[key].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grads(params)
            flat[i] = orig - eps
            lm, _ = loss_and_grads(params)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(numeric) + abs(ga[i]), 1e-8)
            err = abs(numeric - ga[i]) / denom
            if err > worst:
                worst = err
                worst_name = f"{key}[{i}]"
    return worst, worst_name


# ------------------------------------------------------------------ init

def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)
