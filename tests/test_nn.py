import numpy as np
import pytest

from gridstab import nn


def quadratic_closure(forward_backward):
    """Wrap a layer into a sum-of-squares loss closure for grad_check."""
    def closure(params):
        y, grads = forward_backward(params)
        return y, grads
    return closure


# ------------------------------------------------------------------ dense

def test_dense_examples():
    y, _ = nn.dense_forward(np.array([[1.0, 0.0], [0.0, 1.0]]),
                            np.array([[2.0, 0.0], [0.0, 3.0]]), np.zeros(2))
    assert y.tolist() == [[2.0, 0.0], [0.0, 3.0]]
    x = np.array([[0.3, -0.7, 1.1]])
    y, _ = nn.dense_forward(x, np.eye(3), np.zeros(3))
    assert np.array_equal(y, x)


def test_dense_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.dense_forward(np.ones((1, 3)), np.ones((2, 2)), np.zeros(2))


def test_dense_gradcheck():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}

    def closure(p):
        y, cache = nn.dense_forward(x, p["w"], p["b"])
        _, gw, gb = nn.dense_backward(2.0 * (y - target), cache)
        return float(((y - target) ** 2).sum()), {"w": gw, "b": gb}

    err, _ = nn.grad_check(closure, params)
    assert err < 1e-4


# ---------------------------------------------------------- conv + max-pool

def test_conv_identity_kernel():
    x = np.abs(np.random.default_rng(2).normal(size=(2, 1, 3, 4)))
    out, _ = nn.conv_maxpool_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    assert np.array_equal(out, np.maximum(x[..., 0::2], x[..., 1::2]))


def test_conv_hand_sum():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])[None, None]
    out, _ = nn.conv_maxpool_forward(x, np.ones((1, 1, 2, 2)), np.zeros(1))
    assert out.reshape(-1).tolist() == [16.0]   # max(1+2+4+5, 2+3+5+6)


def test_conv_kernel_too_large():
    with pytest.raises(nn.ShapeError):
        nn.conv_maxpool_forward(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(nn.ShapeError):   # a one-column conv output has no pair to pool
        nn.conv_maxpool_forward(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)), np.zeros(1))


def test_conv_pool_formula():
    # max over adjacent column pairs of each row; the odd last column is dropped
    x = np.arange(10.0).reshape(1, 1, 2, 5)
    out, _ = nn.conv_maxpool_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
    assert out.reshape(2, 2).tolist() == [[1.0, 3.0], [6.0, 8.0]]


def test_conv_gradcheck():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 5, 6))
    params = {"k": 0.5 * rng.normal(size=(3, 2, 2, 3)), "b": rng.normal(size=3)}

    def closure(p):
        y, cache = nn.conv_maxpool_forward(x, p["k"], p["b"])
        _, gk, gb = nn.conv_maxpool_backward(2.0 * y, cache)
        return float((y ** 2).sum()), {"k": gk, "b": gb}

    err, _ = nn.grad_check(closure, params)
    assert err < 1e-4


def test_conv_input_gradient():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(1, 1, 4, 5))
    k = rng.normal(size=(2, 1, 2, 2))
    b = rng.normal(size=2)

    def closure(p):
        y, cache = nn.conv_maxpool_forward(p["x"], k, b)
        gx, _, _ = nn.conv_maxpool_backward(2.0 * y, cache)
        return float((y ** 2).sum()), {"x": gx}

    err, _ = nn.grad_check(closure, {"x": x0})
    assert err < 1e-4


# ------------------------------------------------- adjacency normalization

def test_normalize_two_node_line():
    out = nn.normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_isolated_node():
    assert nn.normalize_adjacency(np.zeros((1, 1))).tolist() == [[1.0]]


def test_normalize_k3():
    out = nn.normalize_adjacency(np.ones((3, 3)) - np.eye(3))
    assert np.allclose(out, np.full((3, 3), 1.0 / 3.0))


def test_normalize_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(nn.ShapeError):
        nn.normalize_adjacency(bad)
    with pytest.raises(nn.ShapeError):
        nn.normalize_adjacency(np.eye(2))   # nonzero diagonal


def test_normalize_masked_rows_stay_zero():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    mask = np.array([True, True, False, False])
    out = nn.normalize_adjacency(adj, mask)
    assert np.all(out[2:] == 0.0) and np.all(out[:, 2:] == 0.0)
    assert np.allclose(out[:2, :2], [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_spectrum_and_regular_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        adj = (rng.uniform(size=(n, n)) < 0.25).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        out = nn.normalize_adjacency(adj)
        assert np.allclose(out, out.T)
        eig = np.linalg.eigvalsh(out)
        assert eig.min() >= -1.0 - 1e-9 and eig.max() <= 1.0 + 1e-9
    # every row of a k-regular graph sums to exactly 1
    ring = np.zeros((6, 6))
    for i in range(6):
        ring[i, (i + 1) % 6] = ring[(i + 1) % 6, i] = 1.0
    out = nn.normalize_adjacency(ring)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------------- gcn

def test_gcn_hand_product():
    a = np.array([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
    h = np.array([[[1.0], [1.0]], [[1.0], [3.0]]])
    y, _ = nn.gcn_forward(h, a, np.array([[2.0]]))
    assert np.allclose(y, [[[2.0], [2.0]], [[2.0], [6.0]]])
    y, _ = nn.gcn_forward(h, a, np.array([[-1.0]]))
    assert np.allclose(y, 0.0)   # ReLU clamp


def test_gcn_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.gcn_forward(np.ones((1, 2, 3)), np.ones((1, 2, 2)), np.ones((2, 1)))
    with pytest.raises(nn.ShapeError):
        nn.gcn_forward(np.ones((1, 2, 3)), np.ones((1, 3, 3)), np.ones((3, 1)))


def test_gcn_gradcheck():
    rng = np.random.default_rng(6)
    adj = np.zeros((5, 5))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
        adj[i, j] = adj[j, i] = 1.0
    a = np.stack([nn.normalize_adjacency(adj), np.eye(5)])
    h0 = rng.normal(size=(2, 5, 3))

    def closure(p):
        y, cache = nn.gcn_forward(p["h"], a, p["w"])
        gh, gw = nn.gcn_backward(2.0 * y, cache)
        return float((y ** 2).sum()), {"h": gh, "w": gw}

    err, _ = nn.grad_check(closure, {"h": h0, "w": rng.normal(size=(3, 4))})
    assert err < 1e-4


# -------------------------------------------------------------- embedding

def test_embedding_lookup_and_sparse_backward():
    table = np.arange(12.0).reshape(4, 3)
    rows, cache = nn.embedding_forward(table, np.array([3, 1, 3]))
    assert rows.tolist() == [[9.0, 10.0, 11.0], [3.0, 4.0, 5.0], [9.0, 10.0, 11.0]]
    grad = nn.embedding_backward(np.ones((3, 3)), cache)
    assert grad.tolist() == [[0.0] * 3, [1.0] * 3, [0.0] * 3, [2.0] * 3]
    for bad in ([4], [-1]):
        with pytest.raises(IndexError):
            nn.embedding_forward(table, np.array(bad))


def test_embedding_gradcheck():
    rng = np.random.default_rng(7)
    ids = np.array([0, 2, 2])

    def closure(p):
        y, cache = nn.embedding_forward(p["t"], ids)
        return float((y ** 2).sum()), {"t": nn.embedding_backward(2.0 * y, cache)}

    err, _ = nn.grad_check(closure, {"t": rng.normal(size=(4, 3))})
    assert err < 1e-4


# ------------------------------------------------------------------ loss

def test_bce_values():
    loss, _ = nn.bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
    assert loss == pytest.approx(0.0, abs=1e-6)
    loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(1.0)
    loss, _ = nn.bce_loss(np.array([0.5]), np.array([0.0]))
    assert loss == pytest.approx(1.0)


def test_bce_positive_class_only_form():
    # the single-term form ignores confidently-wrong stable samples
    loss, grad = nn.bce_loss(np.array([0.9]), np.array([0.0]),
                             positive_class_only=True)
    assert loss == 0.0 and grad[0] == 0.0


def test_bce_length_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.bce_loss(np.array([0.5, 0.5]), np.array([1.0]))


# ------------------------------------------------------------------ adam

def test_adam_zero_gradient_noop():
    params = {"w": np.array([1.0, -2.0])}
    state = nn.adam_init(params)
    nn.adam_step(params, {"w": np.zeros(2)}, state)
    assert params["w"].tolist() == [1.0, -2.0]
    assert state.t == 1


def test_adam_first_step_magnitude():
    params = {"w": np.array([0.0])}
    state = nn.adam_init(params, lr=0.001)
    nn.adam_step(params, {"w": np.array([1.0])}, state)
    # m_hat = v_hat = 1 after bias correction: step = lr / (1 + eps)
    assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(8)
        params = {"w": rng.normal(size=4)}
        state = nn.adam_init(params)
        for _ in range(10):
            nn.adam_step(params, {"w": params["w"] * 0.5 + 1.0}, state)
        return params["w"]
    assert np.array_equal(run(), run())


def test_adam_defaults_match_contract():
    state = nn.adam_init({"w": np.zeros(1)})
    assert (state.beta1, state.beta2, state.eps, state.lr) == (0.9, 0.999, 1e-8, 0.001)


# ------------------------------------------------------------- grad_check

def test_grad_check_detects_corruption():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2))
    params = {"w": rng.normal(size=(2, 2)), "b": rng.normal(size=2)}

    def corrupted(p):
        y, cache = nn.dense_forward(x, p["w"], p["b"])
        _, gw, gb = nn.dense_backward(2.0 * y, cache)
        gw = gw * 1.5   # intentionally wrong scale
        return float((y ** 2).sum()), {"w": gw, "b": gb}

    err, worst = nn.grad_check(corrupted, params)
    assert err > 1e-1
    assert worst.startswith("w")
