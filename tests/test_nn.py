import numpy as np
import pytest

from gridstab import nn

from test_conv_reference import ref_conv_maxpool_backward, ref_conv_maxpool_forward


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
    """With the input gradient, and without it (x is then frozen data)."""
    rng = np.random.default_rng(1)
    target = rng.normal(size=(4, 2))
    params = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 2)),
              "b": rng.normal(size=2)}

    def closure(p, need_input_grad):
        y, cache = nn.dense_forward(p["x"], p["w"], p["b"])
        grad_y = 2.0 * (y - target)
        gx, gw, gb = nn.dense_backward(grad_y, cache, need_input_grad=need_input_grad)
        full = nn.dense_backward(grad_y, cache)
        assert gw.tobytes() == full[1].tobytes() and gb.tobytes() == full[2].tobytes()
        grads = {"w": gw, "b": gb}
        if need_input_grad:
            grads["x"] = gx
        else:
            assert gx is None
        return float(((y - target) ** 2).sum()), grads

    err, _ = nn.grad_check(lambda p: closure(p, True), params)
    assert err < 1e-4
    x = params.pop("x")
    err, _ = nn.grad_check(lambda p: closure({**p, "x": x}, False), params)
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


def test_conv_backward_without_input_grad_keeps_the_other_bytes():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3, 1, 12))
    y, cache = nn.conv_maxpool_forward(x, rng.normal(size=(4, 3, 1, 3)), rng.normal(size=4))
    grad_out = rng.normal(size=y.shape)
    gx, gk, gb = nn.conv_maxpool_backward(grad_out, cache, need_input_grad=False)
    full = nn.conv_maxpool_backward(grad_out, cache)
    assert gx.shape == (7, 0, 0, 0) and full[0].shape == x.shape
    assert gk.tobytes() == full[1].tobytes() and gb.tobytes() == full[2].tobytes()


def test_conv_nan_wins_its_pair_as_under_argmax():
    """The pair pool picks and routes to the column ``argmax`` would: the
    odd one only when strictly larger, or NaN against a number."""
    nan = np.nan
    # Pairs (NaN, 1), (1, NaN), (NaN, NaN), (2, 1), (1, 2), (3, 3).
    x = np.array([nan, 1.0, 1.0, nan, nan, nan, 2.0, 1.0, 1.0, 2.0, 3.0, 3.0])[None, None, None]
    k, b = np.ones((1, 1, 1, 1)), np.zeros(1)
    got, cache = nn.conv_maxpool_forward(x, k, b)
    want, ref_cache = ref_conv_maxpool_forward(x, k, b, pool=(1, 2))
    assert got.tobytes() == want.tobytes()
    grad_out = np.arange(1.0, 7.0).reshape(got.shape)
    gx = nn.conv_maxpool_backward(grad_out, cache)[0]
    assert gx.tobytes() == ref_conv_maxpool_backward(grad_out, ref_cache)[0].tobytes()
    assert gx.reshape(-1).tolist() == [0, 0, 0, 0, 0, 0, 4, 0, 0, 5, 6, 0]

    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 2, 1, 9))
    x[rng.random(x.shape) < 0.2] = nan
    k, b = rng.normal(size=(3, 2, 1, 2)), rng.normal(size=3)
    got, cache = nn.conv_maxpool_forward(x, k, b)
    want, ref_cache = ref_conv_maxpool_forward(x, k, b, pool=(1, 2))
    assert got.tobytes() == want.tobytes()
    grad_out = rng.normal(size=got.shape)
    for g, r in zip(nn.conv_maxpool_backward(grad_out, cache),
                    ref_conv_maxpool_backward(grad_out, ref_cache)):
        assert g.tobytes() == r.tobytes()


# ------------------------------------------------- adjacency normalization

def test_normalize_two_node_line():
    out = nn.normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2, bool))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])
    # symmetric within allclose's tolerance, not exactly
    near = nn.normalize_adjacency(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]), np.ones(2, bool))
    assert np.allclose(near, out)


def test_normalize_isolated_node():
    assert nn.normalize_adjacency(np.zeros((1, 1)), np.ones(1, bool)).tolist() == [[1.0]]


def test_normalize_k3():
    out = nn.normalize_adjacency(np.ones((3, 3)) - np.eye(3), np.ones(3, bool))
    assert np.allclose(out, np.full((3, 3), 1.0 / 3.0))


def test_normalize_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(nn.ShapeError):
        nn.normalize_adjacency(bad, np.ones(2, bool))
    with pytest.raises(nn.ShapeError):
        nn.normalize_adjacency(np.eye(2), np.ones(2, bool))   # nonzero diagonal


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
        out = nn.normalize_adjacency(adj, np.ones(n, bool))
        assert np.allclose(out, out.T)
        eig = np.linalg.eigvalsh(out)
        assert eig.min() >= -1.0 - 1e-9 and eig.max() <= 1.0 + 1e-9
    # every row of a k-regular graph sums to exactly 1
    ring = np.zeros((6, 6))
    for i in range(6):
        ring[i, (i + 1) % 6] = ring[(i + 1) % 6, i] = 1.0
    out = nn.normalize_adjacency(ring, np.ones(6, bool))
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


@pytest.mark.parametrize("relu", [True, False])
def test_gcn_forward_into_buffers_gives_the_same_bytes(relu):
    """``out=(s, y)`` views of flat buffers, as blocked scoring passes them:
    the same result, cache and bytes as the allocating call."""
    rng = np.random.default_rng(8)
    a = np.stack([nn.normalize_adjacency(np.ones((6, 6)) - np.eye(6), np.ones(6, bool))] * 5)
    h, w = rng.normal(size=(5, 6, 7)), rng.normal(size=(7, 3))
    want, want_cache = nn.gcn_forward(h, a, w, apply_relu=relu)
    s_buf, y_buf = np.full(5 * 6 * 9, np.nan), np.full(5 * 6 * 4, np.nan)
    s, y = s_buf[:5 * 6 * 7].reshape(5, 6, 7), y_buf[:5 * 6 * 3].reshape(5, 6, 3)
    got, cache = nn.gcn_forward(h, a, w, apply_relu=relu, out=(s, y))
    assert got is y and cache[0] is s and cache[3] is y
    assert got.tobytes() == want.tobytes()
    assert s.tobytes() == want_cache[0].tobytes()


def test_gcn_gradcheck():
    rng = np.random.default_rng(6)
    adj = np.zeros((5, 5))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
        adj[i, j] = adj[j, i] = 1.0
    a = np.stack([nn.normalize_adjacency(adj, np.ones(5, bool)), np.eye(5)])
    h0 = rng.normal(size=(2, 5, 3))

    def closure(p):
        y, cache = nn.gcn_forward(p["h"], a, p["w"])
        gh, gw = nn.gcn_backward(2.0 * y, cache)
        return float((y ** 2).sum()), {"h": gh, "w": gw}

    err, _ = nn.grad_check(closure, {"h": h0, "w": rng.normal(size=(3, 4))})
    assert err < 1e-4


def test_gcn_backward_without_input_grad():
    """Skipping grad_h leaves grad_w's bytes alone, and the stand-in keeps
    the batch axis."""
    rng = np.random.default_rng(7)
    a = np.stack([nn.normalize_adjacency(np.ones((4, 4)) - np.eye(4), np.ones(4, bool))] * 3)
    _, cache = nn.gcn_forward(rng.normal(size=(3, 4, 5)), a, rng.normal(size=(5, 2)))
    g = rng.normal(size=(3, 4, 2))
    grad_h, grad_w = nn.gcn_backward(g, cache)
    skipped, same_w = nn.gcn_backward(g, cache, need_input_grad=False)
    assert grad_h.shape == (3, 4, 5)
    assert skipped.shape == (3, 0, 0)
    assert same_w.tobytes() == grad_w.tobytes()


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("need_input_grad", [True, False])
@pytest.mark.parametrize("bool_mask", [False, True])
def test_gcn_backward_into_buffers_gives_the_same_bytes(relu, need_input_grad, bool_mask):
    """``out=(g, t, grad_h)`` writes into the given arrays, which may start
    with any numbers; ``g`` may be ``grad_y`` itself.  A bool ReLU mask in
    the cache in place of ``y`` multiplies like ``y > 0``."""
    rng = np.random.default_rng(8)
    adj = rng.random((6, 7, 7))
    adj = adj + adj.transpose(0, 2, 1)
    _, cache = nn.gcn_forward(rng.normal(size=(6, 7, 5)), adj, rng.normal(size=(5, 4)),
                              apply_relu=relu)
    grad_y = rng.normal(size=(6, 7, 4))
    grad_y[0, 0, :] = -0.0
    want_h, want_w = nn.gcn_backward(grad_y.copy(), cache, need_input_grad)
    if bool_mask:
        cache = (*cache[:3], cache[3] > 0.0, cache[4])
    g = grad_y.copy()
    t, grad_h = rng.normal(size=(6, 7, 5)), rng.normal(size=(6, 7, 5))
    got_h, got_w = nn.gcn_backward(g, cache, need_input_grad, out=(g, t, grad_h))
    assert got_w.tobytes() == want_w.tobytes()
    assert got_h.shape == want_h.shape and got_h.tobytes() == want_h.tobytes()
    if need_input_grad:
        assert got_h is grad_h


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


def ref_adam_step(params, grads, state):
    """``adam_step`` as it was before it updated the moments in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for key, p in params.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise nn.ShapeError(f"adam: grad shape {g.shape} vs param {p.shape} for {key}")
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / bc1
        v_hat = state.v[key] / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def test_adam_in_place_matches_reference_bytes():
    """50 steps with a missing grad, an all-zero grad and a 1-element
    parameter give the reference's params, moments and step count."""
    rng = np.random.default_rng(10)
    shapes = {"w": (5, 3), "b": (3,), "one": (1,), "missing": (4,), "zero": (2, 2)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    runs = []
    for step in (nn.adam_step, ref_adam_step):
        params = {k: v.copy() for k, v in start.items()}
        state = nn.adam_init(params, lr=0.01)
        grad_rng = np.random.default_rng(11)
        for _ in range(50):
            grads = {k: grad_rng.normal(scale=10.0 ** grad_rng.integers(-6, 3), size=s)
                     for k, s in shapes.items() if k not in ("missing", "zero")}
            grads["zero"] = np.zeros(shapes["zero"])
            step(params, grads, state)
        runs.append((params, state))
    (params, state), (ref_params, ref_state) = runs
    assert state.t == ref_state.t == 50
    for key in shapes:
        assert params[key].tobytes() == ref_params[key].tobytes(), key
        assert state.m[key].tobytes() == ref_state.m[key].tobytes(), key
        assert state.v[key].tobytes() == ref_state.v[key].tobytes(), key


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
