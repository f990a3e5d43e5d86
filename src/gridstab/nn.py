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


def dense_backward(grad_y: np.ndarray, cache, need_input_grad: bool = True):
    """(grad_x, grad_w, grad_b); ``grad_x`` is ``None`` without
    ``need_input_grad`` (a first layer, whose input is data)."""
    x, w = cache
    grad_x = grad_y @ w.T if need_input_grad else None
    return grad_x, x.T @ grad_y, grad_y.sum(axis=0)


# ------------------------------------------------- convolution + max-pool
#
# Each stage is one GEMM over the unfolded input ("im2col"; Chellapilla et
# al., 2006), with the operand shapes and memory layouts that
# ``np.einsum(..., optimize=True)`` used to hand to ``matmul``.  The layouts
# are part of the pinned bytes: on this BLAS build a 2-d ``matmul`` rounds an
# F-contiguous operand differently from its C-contiguous copy
# (``tests/test_blas_probes.py``), so each operand below is copied, or left
# a transposed view, exactly as einsum did.

def conv_maxpool_forward(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray):
    """Valid cross-correlation, bias, ReLU, then the max of each adjacent pair
    of columns along the last axis; an odd last column is dropped.

    x: (batch, c_in, h, w); kernels: (c_out, c_in, kh, kw); biases: (c_out,).
    The output is a ``(batch, c_out, h', w')`` view of a ``(c_out, batch, h',
    w')`` array.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError("conv expects 4-d input and kernels")
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv: {c_in} input channels vs kernel {kc}")
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    hc, wc = h - kh + 1, w - kw + 1
    if wc < 2:
        raise ShapeError(f"conv output width {wc} has no pair to pool")

    # cols[c, i, j] is tap (i, j)'s input window, C-contiguous.
    cols = np.empty((c_in, kh, kw, b, hc, wc))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, :, i:i + hc, j:j + wc].transpose(1, 0, 2, 3)
    conv = kernels.reshape(c_out, -1) @ cols.reshape(c_in * kh * kw, -1)
    del cols
    conv += biases[:, None]
    conv = conv.reshape(c_out, b, hc, wc)
    act = np.maximum(conv, 0.0)

    wo = wc // 2
    even, odd = act[..., 0:2 * wo:2], act[..., 1:2 * wo:2]
    # argmax's rule: the odd column wins only when strictly larger, or when
    # it is NaN and the even one is not.
    right = odd > even
    right |= np.isnan(odd) & ~np.isnan(even)
    pooled = np.where(right, odd, even)
    return pooled.transpose(1, 0, 2, 3), (x, kernels, conv > 0.0, right)


def conv_maxpool_backward(grad_out: np.ndarray, cache, need_input_grad: bool = True):
    """(grad_x, grad_kernels, grad_biases) of one conv+max-pool stage.

    Without ``need_input_grad`` (the first stage, whose input is data) the
    input gradient is not computed; an empty ``(batch, 0, 0, 0)`` array
    stands in for it, so every call still returns a gradient with the batch
    axis.
    """
    x, kernels, positive, right = cache
    c_out, c_in, kh, kw = kernels.shape
    _, b, hc, wc = positive.shape
    wo = right.shape[3]

    # Route each pooled gradient to its pair's winner, then through the ReLU.
    g = grad_out.transpose(1, 0, 2, 3)
    grad_conv = np.zeros(positive.shape)
    np.copyto(grad_conv[..., 1:2 * wo:2], g, where=right)
    np.copyto(grad_conv[..., 0:2 * wo:2], g, where=~right)
    grad_conv *= positive
    grad_b = grad_conv.transpose(1, 0, 2, 3).sum(axis=(0, 2, 3))
    gc = grad_conv.reshape(c_out, -1)     # gc.T is an F-contiguous operand

    grad_k = np.empty(kernels.shape)
    grad_x = np.zeros((c_in, b, x.shape[2], x.shape[3])) if need_input_grad else None
    for i in range(kh):
        for j in range(kw):
            patch = x[:, :, i:i + hc, j:j + wc].transpose(1, 0, 2, 3)
            if 1 in patch.shape:
                # einsum dropped a size-1 axis by reducing into a copy in the
                # input's memory order: for the first stage's (batch, bus,
                # channel) raw states, an F-contiguous operand.
                patch = patch.copy(order="K")
            grad_k[:, :, i, j] = (patch.reshape(c_in, -1) @ gc.T).T
            if need_input_grad:
                grad_x[:, :, i:i + hc, j:j + wc] += (
                    kernels[:, :, i, j].T @ gc).reshape(c_in, b, hc, wc)
    if not need_input_grad:
        return np.empty((b, 0, 0, 0)), grad_k, grad_b
    return grad_x.transpose(1, 0, 2, 3), grad_k, grad_b


# ------------------------------------------------------ graph convolution

def normalize_adjacency(adj: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Self-loop augmented symmetric degree normalization over the real nodes.

    Padded (masked-out) rows and columns pass through as zeros and receive
    no self-loop.
    """
    a = np.asarray(adj, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("adjacency must be square")
    # the exact test passes every 0/1 graph, at a fraction of allclose's cost
    if not (np.array_equal(a, a.T) or np.allclose(a, a.T)):
        raise ShapeError("adjacency must be symmetric")
    if np.any(np.diagonal(a) != 0.0):
        raise ShapeError("adjacency diagonal must be zero")
    a_hat = a.copy()
    m = np.asarray(mask, dtype=bool)
    idx = np.where(m)[0]
    a_hat[idx, idx] = 1.0
    a_hat[~m, :] = 0.0
    a_hat[:, ~m] = 0.0
    deg = a_hat.sum(axis=1)
    inv_sqrt = np.where(deg > 0.0, 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0)), 0.0)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(h: np.ndarray, adj_norm: np.ndarray, w: np.ndarray,
                apply_relu: bool = True, out: tuple | None = None):
    """One propagation step: act(adj_norm @ h @ w).

    h: (batch, n, f); adj_norm: (batch, n, n).  ``out=(s, y)`` writes
    ``adj_norm @ h`` into ``s`` (batch, n, f) and the result into ``y``
    (batch, n, w.shape[1]) instead of allocating them, with the same bytes;
    the returned result and cache are then those arrays.
    """
    if h.shape[-1] != w.shape[0]:
        raise ShapeError(f"gcn: feature dim {h.shape[-1]} vs weight {w.shape}")
    if adj_norm.shape[-1] != h.shape[1]:
        raise ShapeError("gcn: adjacency size does not match node count")
    s, y = (None, None) if out is None else out
    s = np.matmul(adj_norm, h, out=s)
    y = np.matmul(s, w, out=y)
    if apply_relu:
        np.maximum(y, 0.0, out=y)
    # ReLU keeps exactly the positive entries, so y > 0 wherever s @ w > 0.
    return y, (s, adj_norm, w, y, apply_relu)


def gcn_backward(grad_y: np.ndarray, cache, need_input_grad: bool = True,
                 out: tuple | None = None):
    """(grad_h, grad_w) of one propagation step.

    The cache is :func:`gcn_forward`'s, or the same tuple with the bool
    ReLU mask ``y > 0`` in place of ``y``.  Without ``need_input_grad`` (the
    first layer, whose input is data) ``grad_h`` is not computed; an empty
    ``(batch, 0, 0)`` array stands in for it, so every call still returns a
    gradient with the batch axis.  ``out=(g, t, grad_h)`` writes the masked
    upstream gradient into ``g`` (which may be ``grad_y`` itself), ``g @ w.T``
    into ``t`` and the input gradient into ``grad_h`` instead of allocating
    them, with the same bytes; a ``None`` entry is allocated.
    """
    s, adj_norm, w, y, apply_relu = cache
    g, t, grad_h = (None, None, None) if out is None else out
    if apply_relu:
        # A bool mask multiplies like (y > 0.0): by exactly 1.0 or 0.0.
        g = np.multiply(grad_y, y if y.dtype == bool else y > 0.0, out=g)
    else:
        g = grad_y
    # One (f, B·n) x (B·n, g) GEMM over every node of every sample.
    grad_w = s.reshape(-1, s.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    if not need_input_grad:
        return np.empty((len(g), 0, 0)), grad_w
    # adj_norm is symmetric, yet adj_norm.T @ x does not round like
    # adj_norm @ x; the pinned gradients are the transposed product.
    t = np.matmul(g, w.T, out=t)
    grad_h = np.matmul(adj_norm.transpose(0, 2, 1), t, out=grad_h)
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
    """One in-place bias-corrected update of ``params`` and of ``state``'s
    moments; missing grads are treated as zero.

    Every product keeps the operands of ``m = b1·m + (1−b1)·g``,
    ``v = b2·v + ((1−b2)·g)·g`` and ``p −= (lr·m̂) / (sqrt(v̂) + eps)``, so
    the bytes are those of the expressions written out, with two scratch
    arrays per parameter.
    """
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
        m, v = state.m[key], state.v[key]
        step = np.multiply(1.0 - b1, g)
        m *= b1
        m += step
        scale = np.multiply(1.0 - b2, g)
        scale *= g
        v *= b2
        v += scale
        np.divide(m, bc1, out=step)
        step *= state.lr
        np.divide(v, bc2, out=scale)
        np.sqrt(scale, out=scale)
        scale += state.eps
        step /= scale
        p -= step


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
