"""Pin ``conv_maxpool_forward``/``conv_maxpool_backward`` bit for bit against
the original loop-based layer, which took a general pooling window and
stride and visited one output column at a time.  The reference below is
that implementation, kept only here; the model only ever used it with a
``(1, 2)`` window, which is the pooling the layer now fixes."""

import numpy as np
import pytest

from gridstab import nn


# ------------------------------------------------- the original implementation

def ref_conv_maxpool_forward(x, kernels, biases, pool, pool_stride=None):
    x = np.asarray(x, dtype=float)
    kernels = np.asarray(kernels, dtype=float)
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    stride = pool if pool_stride is None else pool_stride

    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    conv = np.einsum("bchwij,ocij->bohw", windows, kernels, optimize=True)
    conv = conv + biases[None, :, None, None]
    act = np.maximum(conv, 0.0)

    hc, wc = act.shape[2], act.shape[3]
    ph, pw = pool
    sh, sw = stride
    ho = (hc - ph) // sh + 1
    wo = (wc - pw) // sw + 1
    pooled = np.empty((b, c_out, ho, wo))
    argmax = np.empty((b, c_out, ho, wo), dtype=np.int64)
    for i in range(ho):
        for j in range(wo):
            block = act[:, :, i * sh:i * sh + ph, j * sw:j * sw + pw]
            flat = block.reshape(b, c_out, -1)
            idx = flat.argmax(axis=2)
            pooled[:, :, i, j] = np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0]
            argmax[:, :, i, j] = idx
    cache = (x, kernels, conv, argmax, pool, stride)
    return pooled, cache


def ref_conv_maxpool_backward(grad_out, cache):
    x, kernels, conv, argmax, pool, stride = cache
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    hc, wc = conv.shape[2], conv.shape[3]
    ph, pw = pool
    sh, sw = stride
    ho, wo = grad_out.shape[2], grad_out.shape[3]

    grad_act = np.zeros_like(conv)
    bi = np.arange(b)[:, None]
    ci = np.arange(c_out)[None, :]
    for i in range(ho):
        for j in range(wo):
            idx = argmax[:, :, i, j]
            r = i * sh + idx // pw
            c = j * sw + idx % pw
            np.add.at(grad_act, (bi, ci, r, c), grad_out[:, :, i, j])

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


# ---------------------------------------------------------------- the pin

def random_case(rng, integer: bool):
    """One layer input: batch 1-70, channels 1-16, kernel width 1-3 and
    height up to the input height, conv output widths of both parities.
    Integer-valued draws make ties in the pooled pairs (zeros included)."""
    batch = int(rng.integers(1, 71))
    c_in, c_out = (int(c) for c in rng.integers(1, 17, size=2))
    h = int(rng.integers(1, 4))
    kh = int(rng.integers(1, h + 1))
    kw = int(rng.integers(1, 4))
    w = kw - 1 + int(rng.integers(2, 30))      # conv output width >= 2
    draw = ((lambda size: rng.integers(-2, 3, size=size).astype(float)) if integer
            else (lambda size: rng.normal(size=size)))
    return draw((batch, c_in, h, w)), draw((c_out, c_in, kh, kw)), draw(c_out), draw


@pytest.mark.parametrize("integer", [True, False], ids=["ties", "normal"])
def test_conv_maxpool_matches_loop_reference(integer):
    rng = np.random.default_rng(61 if integer else 67)
    for _ in range(100):
        x, k, b, draw = random_case(rng, integer)
        want, ref_cache = ref_conv_maxpool_forward(x, k, b, pool=(1, 2))
        got, cache = nn.conv_maxpool_forward(x, k, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

        grad_out = draw(want.shape)
        for g, r in zip(nn.conv_maxpool_backward(grad_out, cache),
                        ref_conv_maxpool_backward(grad_out, ref_cache)):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()
