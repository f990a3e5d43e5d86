"""Pin the property of this numpy/BLAS build that blocked GCN scoring relies
on: a sample's rows of a batched ``A @ H`` and of a broadcast ``S @ W`` do
not depend on how many other samples share the call.

``ScreeningModel.predict`` scores in chunks of 512 samples, and its GCN head
(``model.GcnHead.score``) splits each chunk into blocks of ``model.BLOCK``.
The golden scores stay the same only while the GCN products keep this
property.  A BLAS build that breaks it should fail here, and not through an
unexplained golden digest.

Dense rows do not have it, so no other part of scoring is blocked, and the
512-row chunk of the dense heads, the conv head and the output layer must
not be shrunk blindly.  Measured with numpy 2.4.6 and scipy-openblas 0.3.31
(Haswell kernels, one thread), standard normal data:

* ``(k, 148) @ (148, 1)``, the output layer's shape, differs from the first
  k rows of the same 1024-row product for 399 of the 599 values k = 1..599
  (generator seed 0; another draw read 406);
* ``(k, 200) @ (200, 100)``, MlpOnly's first layer, differs for every
  k <= 50 and for no larger k;
* DeepCnn5's head output changed when scored in 100-row blocks.

A 2-d ``matmul`` also rounds by operand layout: an F-contiguous operand
gives other bytes than its C-contiguous copy.  ``nn``'s conv layer pins
bytes that ``np.einsum`` produced, so it copies each GEMM operand, or
leaves it a transposed view, exactly as einsum did; a cleanup that
"tidies" those copies changes the DeepCnn5 and rawcnn goldens.
"""

import numpy as np
import pytest

# Real GCN shapes: 50 nodes, 59 node features, 64 hidden units.
REAL = (50, 59, 64)
REAL_SIZES = (1, 2, 3, 31, 47, 63, 64, 65, 127, 128, 129, 255, 256, 257,
              511, 512, 513, 599, 600)


def products(m, f, g, n=600, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m, m))
    h = rng.normal(size=(n, m, f))
    w = rng.normal(size=(f, g))
    return a, h, w


def assert_rows_do_not_depend_on_batch(a, h, w, sizes):
    s = a @ h
    y = s @ w
    for b in sizes:
        # The first b samples, and the last b (where a block's rows start
        # past the first sample).
        for rows in (slice(None, b), slice(len(a) - b, None)):
            assert (a[rows] @ h[rows]).tobytes() == s[rows].tobytes(), ("A @ H", b)
            assert (s[rows] @ w).tobytes() == y[rows].tobytes(), ("S @ W", b)


def test_every_batch_size_on_small_shapes():
    assert_rows_do_not_depend_on_batch(*products(12, 7, 5), range(1, 601))


@pytest.mark.parametrize("seed", [0, 1])
def test_chosen_batch_sizes_on_real_shapes(seed):
    assert_rows_do_not_depend_on_batch(*products(*REAL, seed=seed), REAL_SIZES)


def test_out_buffers_give_the_same_bytes():
    a, h, w = products(*REAL, n=65)
    s = np.empty(65 * 50 * 59).reshape(65, 50, 59)
    y = np.empty(65 * 50 * 64).reshape(65, 50, 64)
    np.matmul(a, h, out=s)
    np.matmul(s, w, out=y)
    assert s.tobytes() == (a @ h).tobytes()
    assert y.tobytes() == ((a @ h) @ w).tobytes()


def test_gemm_bytes_depend_on_operand_layout():
    """The first conv stage's kernel-gradient GEMM at 64 samples of the
    benchmark's 54-bus world (16 channels, kernel 3: 64 x 52 columns):
    ``(13, 3328) @ (3328, 16)`` with both operands F-contiguous, as the
    layer passes them, against the same product with a C-contiguous copy of
    the first.  Measured: 206 of the 208 entries differ (by up to 5e-13)."""
    rng = np.random.default_rng(0)
    patch = rng.normal(size=(64 * 52, 13)).T
    grad = rng.normal(size=(16, 64 * 52)).T
    assert patch.flags.f_contiguous and grad.flags.f_contiguous
    f = patch @ grad
    c = np.ascontiguousarray(patch) @ grad
    assert np.allclose(f, c)
    assert f.tobytes() != c.tobytes()
