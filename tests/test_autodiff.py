import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import (
    TapeNode,
    reference_accumulate,
    reference_add,
    reference_batch_triplet_loss,
    reference_block_attention,
    reference_block_matmul,
    reference_complex_mul,
    reference_concat_cols,
    reference_constant,
    reference_cos,
    reference_dropout,
    reference_feed_forward,
    reference_log,
    reference_logsigmoid,
    reference_matmul,
    reference_mul,
    reference_relu,
    reference_rownorm,
    reference_rows,
    reference_rowsum,
    reference_scale,
    reference_scatter,
    reference_sin,
    reference_softmax,
    reference_split_halves,
    reference_sub,
    reference_sum_all,
)
from sskgqa import autodiff as ad
from sskgqa import encoder as enc
from sskgqa import ranker as rk


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, x, tol=1e-6):
    """build(node) -> scalar loss node. Compare autodiff to finite differences."""
    p = ad.parameter(x)
    loss = build(p)
    ad.backward(loss)
    num = fd_grad(lambda v: float(build(ad.parameter(v)).value[0, 0]), x)
    denom = max(np.abs(num).max(), 1.0)
    assert np.abs(p.grad - num).max() / denom < tol


def attention_node(x, weights, mask):
    """`enc.block_attention` of nodes as one node, whose backward adds the
    op's gradients into x, after the gradient x already holds, and into the
    weights."""
    value, grads = enc.block_attention(x.value, [w.value for w in weights], mask)

    def backward(g):
        x.grad, g_weights = grads(g, x.grad)
        for w, gw in zip(weights, g_weights):
            w.accumulate(gw)

    return TapeNode(value, (x, *weights), backward)


def feed_forward_node(*nodes):
    """`enc.feed_forward` of nodes as one node."""
    value, grads = enc.feed_forward(*(n.value for n in nodes))

    def backward(g):
        for n, gn in zip(nodes, grads(g)):
            n.accumulate(gn)

    return TapeNode(value, nodes, backward)


RNG = np.random.default_rng(7)
# Operands for the block ops against the (3, 4) parameter of
# test_unary_op_gradients, which then has three one-row blocks.
BLOCK_A = RNG.normal(size=(6, 1))  # two rows per block, inner dim 1
BLOCK_B = RNG.normal(size=(12, 2))  # four rows per block


def test_add_broadcast_and_grad():
    x = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(1, 4))
    check_grad(lambda p: reference_sum_all(reference_mul(reference_add(p, reference_constant(b)), reference_constant(x))), x)
    # gradient wrt the broadcast row sums over rows
    pb = ad.parameter(b)
    loss = reference_sum_all(reference_add(reference_constant(x), pb))
    ad.backward(loss)
    assert np.allclose(pb.grad, np.full((1, 4), 3.0))


@pytest.mark.parametrize(
    "op",
    [
        lambda p: reference_sum_all(reference_relu(p)),
        lambda p: reference_sum_all(reference_logsigmoid(p)),
        lambda p: reference_sum_all(reference_cos(p)),
        lambda p: reference_sum_all(reference_sin(p)),
        lambda p: reference_sum_all(reference_softmax(p)),
        lambda p: reference_sum_all(reference_mul(reference_softmax(p), p)),
        lambda p: reference_sum_all(reference_rownorm(p)),
        lambda p: reference_sum_all(reference_rowsum(p)),
        lambda p: reference_sum_all(reference_sin(reference_block_matmul(p, reference_constant(BLOCK_B), 3))),
        lambda p: reference_sum_all(reference_sin(reference_block_matmul(reference_constant(BLOCK_A), p, 3))),
        lambda p: reference_scale(reference_sum_all(p), -2.5),
    ],
    ids=["relu", "logsigmoid", "cos", "sin", "softmax", "softmax_mul", "rownorm", "rowsum",
         "block_matmul_left", "block_matmul_right",
         "scale"],
)
def test_unary_op_gradients(op):
    x = RNG.normal(size=(3, 4)) + 0.1  # keep relu away from the kink
    check_grad(op, x)


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(5, 7))
    x[0] += 1000.0  # max-shift keeps large logits finite
    y = reference_softmax(reference_constant(x)).value
    assert np.all(y >= 0.0)
    assert np.allclose(y.sum(axis=1), 1.0)


def test_log_gradient():
    x = np.abs(RNG.normal(size=(2, 3))) + 0.5
    check_grad(lambda p: reference_sum_all(reference_log(p)), x)


def test_matmul_gradients():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grad(lambda p: reference_sum_all(reference_matmul(p, reference_constant(b))), a)
    check_grad(lambda p: reference_sum_all(reference_matmul(reference_constant(a), p)), b)


def test_sub_mul_gradients():
    a = RNG.normal(size=(2, 5))
    b = RNG.normal(size=(2, 5))
    check_grad(lambda p: reference_sum_all(reference_mul(reference_sub(p, reference_constant(b)), p)), a)


def test_block_matmuls_match_per_block_products():
    t = RNG.normal(size=(6, 2))  # 2 blocks of 3 rows
    c = RNG.normal(size=(4, 5))  # 2 blocks of 2 rows
    m = reference_block_matmul(reference_constant(t), reference_constant(c), 2).value
    assert m.shape == (6, 5)
    assert np.allclose(m[:3], t[:3] @ c[:2]) and np.allclose(m[3:], t[3:] @ c[2:])
    check_grad(lambda p: reference_sum_all(reference_sin(reference_block_matmul(p, reference_constant(c), 2))), t)
    check_grad(lambda p: reference_sum_all(reference_sin(reference_block_matmul(reference_constant(t), p, 2))), c)


def test_distance_gradient():
    a = RNG.normal(size=(1, 6))
    b = RNG.normal(size=(1, 6))
    check_grad(lambda p: reference_rownorm(reference_sub(p, reference_constant(b))), a)
    check_grad(lambda p: reference_rownorm(reference_sub(reference_constant(a), p)), b)


def test_zero_distance_gradient_is_zero():
    a = np.ones((1, 4))
    p = ad.parameter(a)
    loss = reference_rownorm(reference_sub(p, reference_constant(a.copy())))
    ad.backward(loss)
    assert np.array_equal(p.grad, np.zeros((1, 4)))


def attention_case(blocks, lens, heads, dh, ff, seed):
    """Random inputs of one encoder block: x of `blocks` row blocks padded
    to max(lens) rows, 3 projections per head, the output projection and a
    feed-forward layer of width ff, as parameter nodes, and the key mask."""
    rng = np.random.default_rng(seed)
    width, d = max(lens), heads * dh
    mask = np.where(np.arange(width) < np.array(lens)[:, None], 0.0, -np.inf)
    shapes = [(blocks * width, d)] + [(d, dh)] * (3 * heads) + [(d, d), (d, ff), (1, ff), (ff, d), (1, d)]
    return [ad.parameter(rng.normal(size=shape)) for shape in shapes], mask


def reference_attention(x, weights, mask):
    """reference_block_attention over one row block per mask row."""
    return reference_block_attention(x, weights, mask, len(mask))


def encoder_block(attention, feed_forward, params, mask):
    """The encoder's block over params from attention_case: x plus the
    attended heads through wo, then that plus its feed-forward."""
    x, weights, (wo, *ff) = params[0], params[1:-5], params[-5:]
    x = reference_add(x, reference_matmul(attention(x, weights, mask), wo))
    return reference_add(x, feed_forward(x, *ff))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda b: st.lists(st.integers(1, 12), min_size=b, max_size=b)),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_fused_block_bytes_equal_per_head_chain(lens, heads, dh, ff, seed):
    blocks = len(lens)
    outs, grads = [], []
    for attention, feed_forward in (
        (attention_node, feed_forward_node),
        (reference_attention, reference_feed_forward),
    ):
        params, mask = attention_case(blocks, lens, heads, dh, ff, seed)
        y = encoder_block(attention, feed_forward, params, mask)
        weight = reference_constant(np.random.default_rng(seed + 1).normal(size=y.shape))
        ad.backward(reference_sum_all(reference_mul(y, weight)))
        outs.append(y.value.tobytes())
        grads.append([p.grad.tobytes() for p in params])
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 20).flatmap(
        lambda width: st.lists(st.integers(1, width), min_size=1, max_size=12)
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_batched_attention_bytes_equal_per_head_chain(heads, dh, lens, residual, seed):
    # batched BLAS products may round by shape on some hosts; this holds the
    # batched projections and their gradients to the per-head 2-D products.
    # With the residual, x holds a gradient before the attention adds its own.
    blocks = len(lens)
    outs, grads = [], []
    for attention in (attention_node, reference_attention):
        params, mask = attention_case(blocks, lens, heads, dh, 1, seed)
        x, weights = params[0], params[1 : 1 + 3 * heads]
        y = attention(x, weights, mask)
        if residual:
            y = reference_add(x, y)
        weight = reference_constant(np.random.default_rng(seed + 1).normal(size=y.shape))
        ad.backward(reference_sum_all(reference_mul(y, weight)))
        outs.append(y.value.tobytes())
        grads.append([p.grad.tobytes() for p in (x, *weights)])
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def triplet_batch(k, d, kind, seed):
    """A (k+2, d) anchor, positive and k negatives. "normal" rows are drawn
    freely; "grid" rows hold few distinct values, so distances tie and some
    are zero; "copies" repeats the anchor into some rows (zero distances);
    "far" puts the positive on the anchor and the negatives at least 1 away,
    so no hinge with a margin up to 1 is active; "zeros" is all zero."""
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros((k + 2, d))
    if kind == "grid":
        return rng.integers(-1, 2, size=(k + 2, d)) * 0.5
    f = rng.normal(size=(k + 2, d))
    if kind == "copies":
        f[rng.random(k + 2) < 0.5] = f[0]
    elif kind == "far":
        f[1] = f[0]
        f[2:] = f[0] + rng.choice([-1.0, 1.0], size=(k, d)) * (1.0 + rng.random((k, d)))
    return f


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 19),
    st.sampled_from(["normal", "grid", "copies", "far", "zeros"]),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    st.sampled_from([1.0, -1.0, 0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_triplet_hinge_bytes_equal_composed_chain(k, d, kind, alpha, weight, seed):
    # `weight` scales the gradient that reaches the loss: negative weights
    # flip the signs of zeros, and 0 makes every gradient term zero. With no
    # hinge active the fused loss has no backward, so f gets no gradient: the
    # chain's must then be the zeros a parameter left unreached steps with.
    f0 = triplet_batch(k, d, kind, seed)
    values, grads, flat = [], [], []
    for loss_of in (rk.triplet_hinge, reference_batch_triplet_loss):
        f = ad.parameter(f0.copy())
        loss = loss_of(f, alpha)
        ad.backward(reference_mul(loss, reference_constant([[weight]])))
        values.append(loss.value.tobytes())
        grads.append(None if f.grad is None else f.grad.tobytes())
        flat.append(loss._backward is None)
    assert values[0] == values[1]
    if flat[0]:
        assert grads[0] is None and grads[1] == np.zeros_like(f0).tobytes()
    else:
        assert grads[0] == grads[1]


def test_triplet_hinge_value_and_gradient():
    # anchor at 0, positive at distance 5, negatives at 10 and 3: with
    # alpha 1 only the second hinge is active, 5 - 3 + 1 = 3, halved
    f = ad.parameter(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [0.0, 3.0]]))
    loss = rk.triplet_hinge(f, 1.0)
    assert loss.shape == (1, 1) and loss.value[0, 0] == 1.5
    ad.backward(loss)
    # d/df of (||f0 - f1|| - ||f0 - f3||) / 2; the inactive negative gets 0
    want = np.array([[-0.3, 0.1], [0.3, 0.4], [0.0, 0.0], [0.0, -0.5]])
    assert np.allclose(f.grad, want, rtol=0.0, atol=1e-15)
    check_grad(lambda p: rk.triplet_hinge(p, 1.0), RNG.normal(size=(6, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_triplet_hinge_flat_batch_has_no_parents_unless_non_finite(bad):
    # a "far" batch has every negative beyond the margin: the loss is 0 and
    # ends the backward; a non-finite row keeps the node, so the gradient
    # check downstream still sees it
    far = triplet_batch(4, 3, "far", 7)
    loss = rk.triplet_hinge(ad.parameter(far), 1.0)
    assert loss._backward is None and loss.value.tobytes() == np.zeros((1, 1)).tobytes()
    for row in (0, 1, 3):
        poisoned = far.copy()
        poisoned[row, 1] = bad
        f = ad.parameter(poisoned)
        with np.errstate(invalid="ignore"):
            loss = rk.triplet_hinge(f, 1.0)
            assert loss._backward is not None
            ad.backward(loss)
        assert not np.isfinite(f.grad).all()


def test_triplet_hinge_refuses_fewer_than_three_rows():
    for rows in (1, 2):
        with pytest.raises(ad.ShapeError, match="triplet_hinge"):
            rk.triplet_hinge(reference_constant(np.ones((rows, 4))), 1.0)


ATTENTION_INPUTS = ["x", "wq0", "wk0", "wv0", "wq1", "wk1", "wv1"]


@pytest.mark.parametrize("which", range(len(ATTENTION_INPUTS)), ids=ATTENTION_INPUTS)
def test_block_attention_gradients(which):
    # two heads over two blocks of 3 rows, the second with one padded row
    params, mask = attention_case(2, [3, 2], 2, 2, 1, seed=11)
    inputs = [p.value for p in params[:7]]

    def build(p):
        nodes = [reference_constant(v) for v in inputs]
        nodes[which] = p
        return reference_sum_all(reference_sin(attention_node(nodes[0], nodes[1:], mask)))

    check_grad(build, inputs[which])


FF_INPUTS = ["x", "w1", "b1", "w2", "b2"]


@pytest.mark.parametrize("which", range(len(FF_INPUTS)), ids=FF_INPUTS)
def test_feed_forward_gradients(which):
    rng = np.random.default_rng(12)
    inputs = [rng.normal(size=shape) for shape in ((5, 4), (4, 6), (1, 6), (6, 3), (1, 3))]

    def build(p):
        nodes = [reference_constant(v) for v in inputs]
        nodes[which] = p
        return reference_sum_all(reference_sin(feed_forward_node(*nodes)))

    check_grad(build, inputs[which])


def test_block_attention_ignores_padded_keys():
    # a block's output rows do not change with what its padded rows hold
    params, mask = attention_case(2, [4, 2], 2, 3, 1, seed=5)
    x, weights = params[0].value, [w.value for w in params[1:7]]
    before, _ = enc.block_attention(x, weights, mask)
    x[6:] += 100.0  # the second block's two padded rows
    after, _ = enc.block_attention(x, weights, mask)
    assert np.array_equal(before[:6], after[:6])


def test_split_concat_gradients():
    x = RNG.normal(size=(2, 6))

    def build(p):
        lo, hi = reference_split_halves(p)
        return reference_sum_all(reference_mul(reference_concat_cols(hi, lo), p))

    check_grad(build, x)


def test_complex_mul_matches_numpy_complex():
    a = RNG.normal(size=(3, 8))
    b = RNG.normal(size=(3, 8))
    out = reference_complex_mul(ad.parameter(a), ad.parameter(b)).value
    za = a[:, :4] + 1j * a[:, 4:]
    zb = b[:, :4] + 1j * b[:, 4:]
    zc = za * zb
    assert np.allclose(out[:, :4], zc.real)
    assert np.allclose(out[:, 4:], zc.imag)


def test_complex_mul_gradients():
    a = RNG.normal(size=(2, 6))
    b = RNG.normal(size=(2, 6))
    check_grad(lambda p: reference_sum_all(reference_complex_mul(p, reference_constant(b))), a)
    check_grad(lambda p: reference_sum_all(reference_complex_mul(reference_constant(a), p)), b)


def test_rows_gather_scatter():
    m = RNG.normal(size=(5, 3))
    p = ad.parameter(m)
    out = reference_rows(p, [1, 1, 4])
    loss = reference_sum_all(out)
    ad.backward(loss)
    expected = np.zeros_like(m)
    expected[1] = 2.0
    expected[4] = 1.0
    assert np.allclose(p.grad, expected)


@st.composite
def gathers(draw):
    """(matrix shape, indices, output gradient) of one rows() call: random
    indices with repeats, one index repeated, or none."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    index = st.integers(-n, n - 1)
    kind = draw(st.sampled_from(["random", "same", "empty"]))
    if kind == "random":
        idx = draw(st.lists(index, max_size=40))
    elif kind == "same":
        idx = [draw(index)] * draw(st.integers(1, 40))
    else:
        idx = []
    g = draw(arrays(np.float64, (len(idx), d), elements=st.floats(-1e12, 1e12)))
    return (n, d), idx, g


@settings(max_examples=300, deadline=None)
@given(gathers())
def test_rows_gradient_bytes_equal_add_at(case):
    shape, idx, g = case
    p = ad.parameter(np.zeros(shape))
    out = reference_rows(p, idx)
    assert out.shape == g.shape
    out._backward(g)
    want = reference_scatter(shape, idx, g)
    assert p.grad.dtype == want.dtype and p.grad.shape == want.shape
    assert p.grad.tobytes() == want.tobytes()


# Graphs in which the engine hands one gradient array to two nodes (add of
# equal shapes), negates it (sub), passes views of it (concat_cols) or adds
# a second gradient to a node's first one (a parameter used twice, also after
# its first gradient was handed to another node too). A parameter copies its
# first gradient and adds later ones into that copy, so it writes no array
# another node holds: its gradients have the bits of the aliasing rule, which
# keeps the first without a copy and adds out of place.
OWNERSHIP_GRAPHS = {
    "add": lambda p, q, c: reference_sum_all(reference_mul(reference_add(p, q), c)),
    "sub": lambda p, q, c: reference_sum_all(reference_mul(reference_sub(p, q), c)),
    "concat_cols": lambda p, q, c: reference_sum_all(
        reference_matmul(reference_concat_cols(p, q), reference_constant(np.ones((4, 1))))
    ),
    "used_twice": lambda p, q, c: reference_sum_all(reference_mul(reference_add(p, reference_mul(p, q)), c)),
    "shared_then_added": lambda p, q, c: reference_sum_all(
        reference_add(reference_mul(reference_add(p, q), c), reference_mul(p, p))
    ),
}


@pytest.mark.parametrize("name", sorted(OWNERSHIP_GRAPHS))
def test_gradients_equal_copy_on_first_write(name, monkeypatch):
    build = OWNERSHIP_GRAPHS[name]
    rng = np.random.default_rng(3)
    p0, q0, c0 = rng.normal(size=(3, 2, 2))

    def grads():
        p, q = ad.parameter(p0.copy()), ad.parameter(q0.copy())
        ad.backward(build(p, q, reference_constant(c0)))
        return p.grad, q.grad

    got = grads()
    monkeypatch.setattr(ad.Node, "accumulate", reference_accumulate)
    want = grads()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_dropout_identity_at_inference():
    rng = np.random.default_rng(0)
    x = ad.parameter(RNG.normal(size=(2, 4)))
    assert reference_dropout(x, 0.5, rng, training=False) is x
    assert reference_dropout(x, 0.0, rng, training=True) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = ad.parameter(np.ones((200, 50)))
    y = reference_dropout(x, 0.5, rng, training=True)
    kept = y.value[y.value > 0]
    assert np.allclose(kept, 2.0)
    assert abs(y.value.mean() - 1.0) < 0.1


def test_grad_accumulates_over_reuse():
    x = np.array([[3.0]])
    p = ad.parameter(x)
    loss = reference_mul(p, p)  # d(x*x)/dx = 2x
    ad.backward(loss)
    assert np.allclose(p.grad, [[6.0]])


def test_backward_requires_scalar():
    p = ad.parameter(np.ones((1, 3)))
    with pytest.raises(ad.ContractError):
        ad.backward(p)


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        reference_add(reference_constant(np.ones((2, 3))), reference_constant(np.ones((2, 4))))
    with pytest.raises(ad.ShapeError):
        reference_matmul(reference_constant(np.ones((2, 3))), reference_constant(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):  # no column halves
        reference_complex_mul(reference_constant(np.ones((1, 3))), reference_constant(np.ones((1, 3))))
    w = [np.ones((2, 1))] * 3
    with pytest.raises(ad.ShapeError):  # 3 rows are not one per entry of a (2, 1) mask
        enc.block_attention(np.ones((3, 2)), w, np.zeros((2, 1)))
    with pytest.raises(ad.ShapeError):  # 4 rows are not one per entry of a (2, 1) mask
        enc.block_attention(np.ones((4, 2)), w, np.zeros((2, 1)))
    with pytest.raises(ad.ShapeError):  # a 1-D mask gives no block width
        enc.block_attention(np.ones((2, 2)), w, np.zeros(2))
    with pytest.raises(ad.ShapeError):  # a mask with no rows gives no blocks
        enc.block_attention(np.ones((0, 2)), w, np.zeros((0, 1)))
    with pytest.raises(ad.ShapeError):  # not three projections per head
        enc.block_attention(np.ones((2, 2)), w[:2], np.zeros((2, 1)))
    with pytest.raises(ad.ShapeError):  # a projection of another shape
        enc.block_attention(np.ones((2, 2)), [*w[:2], np.ones((2, 2))], np.zeros((2, 1)))
    with pytest.raises(ad.ShapeError):  # a bias that is not one row
        enc.feed_forward(*(np.ones(s) for s in ((2, 2), (2, 3), (2, 3), (3, 2), (1, 2))))
    with pytest.raises(ad.ShapeError):
        enc.feed_forward(*(np.ones(s) for s in ((2, 2), (3, 3), (1, 3), (3, 2), (1, 2))))
    with pytest.raises(ad.ShapeError):
        enc.block_pool(np.ones((5, 2)), np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):  # blocks of 1x2 times blocks of 1x2
        reference_block_matmul(reference_constant(np.ones((2, 2))), reference_constant(np.ones((2, 2))), 2)
