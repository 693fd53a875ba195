import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import reference_accumulate, reference_scatter
from sskgqa import autodiff as ad


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


RNG = np.random.default_rng(7)
# Operands for the block ops against the (3, 4) parameter of
# test_unary_op_gradients, which then has three one-row blocks.
BLOCK_K = RNG.normal(size=(6, 4))  # two rows per block
BLOCK_A = RNG.normal(size=(6, 1))  # two rows per block, inner dim 1
BLOCK_B = RNG.normal(size=(12, 2))  # four rows per block


def test_add_broadcast_and_grad():
    x = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(1, 4))
    check_grad(lambda p: ad.sum_all(ad.mul(ad.add(p, ad.constant(b)), ad.constant(x))), x)
    # gradient wrt the broadcast row sums over rows
    pb = ad.parameter(b)
    loss = ad.sum_all(ad.add(ad.constant(x), pb))
    ad.backward(loss)
    assert np.allclose(pb.grad, np.full((1, 4), 3.0))


@pytest.mark.parametrize(
    "op",
    [
        lambda p: ad.sum_all(ad.relu(p)),
        lambda p: ad.sum_all(ad.logsigmoid(p)),
        lambda p: ad.sum_all(ad.cos(p)),
        lambda p: ad.sum_all(ad.sin(p)),
        lambda p: ad.sum_all(ad.softmax(p)),
        lambda p: ad.sum_all(ad.mul(ad.softmax(p), p)),
        lambda p: ad.l2norm(p),
        lambda p: ad.sum_all(ad.rownorm(p)),
        lambda p: ad.sum_all(ad.rowsum(p)),
        lambda p: ad.sum_all(ad.sin(ad.block_matmul_t(p, ad.constant(BLOCK_K), 3))),
        lambda p: ad.sum_all(ad.sin(ad.block_matmul_t(ad.constant(BLOCK_K), p, 3))),
        lambda p: ad.sum_all(ad.sin(ad.block_matmul(p, ad.constant(BLOCK_B), 3))),
        lambda p: ad.sum_all(ad.sin(ad.block_matmul(ad.constant(BLOCK_A), p, 3))),
        lambda p: ad.sum_all(ad.transpose(p)),
        lambda p: ad.scale(ad.sum_all(p), -2.5),
    ],
    ids=["relu", "logsigmoid", "cos", "sin", "softmax", "softmax_mul", "l2norm", "rownorm", "rowsum",
         "block_matmul_t_left", "block_matmul_t_right", "block_matmul_left", "block_matmul_right",
         "transpose", "scale"],
)
def test_unary_op_gradients(op):
    x = RNG.normal(size=(3, 4)) + 0.1  # keep relu away from the kink
    check_grad(op, x)


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(5, 7))
    x[0] += 1000.0  # max-shift keeps large logits finite
    y = ad.softmax(ad.constant(x)).value
    assert np.all(y >= 0.0)
    assert np.allclose(y.sum(axis=1), 1.0)


def test_log_gradient():
    x = np.abs(RNG.normal(size=(2, 3))) + 0.5
    check_grad(lambda p: ad.sum_all(ad.log(p)), x)


def test_matmul_gradients():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grad(lambda p: ad.sum_all(ad.matmul(p, ad.constant(b))), a)
    check_grad(lambda p: ad.sum_all(ad.matmul(ad.constant(a), p)), b)


def test_sub_mul_gradients():
    a = RNG.normal(size=(2, 5))
    b = RNG.normal(size=(2, 5))
    check_grad(lambda p: ad.sum_all(ad.mul(ad.sub(p, ad.constant(b)), p)), a)


def test_block_matmuls_match_per_block_products():
    a = RNG.normal(size=(6, 4))  # 2 blocks of 3 rows
    b = RNG.normal(size=(4, 4))  # 2 blocks of 2 rows
    c = RNG.normal(size=(4, 5))  # 2 blocks of 2 rows
    t = ad.block_matmul_t(ad.constant(a), ad.constant(b), 2).value
    assert t.shape == (6, 2)
    assert np.allclose(t[:3], a[:3] @ b[:2].T) and np.allclose(t[3:], a[3:] @ b[2:].T)
    m = ad.block_matmul(ad.constant(t), ad.constant(c), 2).value
    assert m.shape == (6, 5)
    assert np.allclose(m[:3], t[:3] @ c[:2]) and np.allclose(m[3:], t[3:] @ c[2:])
    check_grad(lambda p: ad.sum_all(ad.sin(ad.block_matmul_t(p, ad.constant(b), 2))), a)
    check_grad(lambda p: ad.sum_all(ad.sin(ad.block_matmul(ad.constant(t), p, 2))), c)


def test_euclid_gradient():
    a = RNG.normal(size=(1, 6))
    b = RNG.normal(size=(1, 6))
    check_grad(lambda p: ad.euclid(p, ad.constant(b)), a)
    check_grad(lambda p: ad.euclid(ad.constant(a), p), b)


def test_euclid_zero_distance_gradient_is_zero():
    a = np.ones((1, 4))
    p = ad.parameter(a)
    loss = ad.euclid(p, ad.constant(a.copy()))
    ad.backward(loss)
    assert p.grad is None or np.allclose(p.grad, 0.0)


def test_split_concat_gradients():
    x = RNG.normal(size=(2, 6))

    def build(p):
        lo, hi = ad.split_halves(p)
        return ad.sum_all(ad.mul(ad.concat_halves(hi, lo), p))

    check_grad(build, x)


def test_complex_mul_matches_numpy_complex():
    a = RNG.normal(size=(3, 8))
    b = RNG.normal(size=(3, 8))
    out = ad.complex_mul(ad.parameter(a), ad.parameter(b)).value
    za = a[:, :4] + 1j * a[:, 4:]
    zb = b[:, :4] + 1j * b[:, 4:]
    zc = za * zb
    assert np.allclose(out[:, :4], zc.real)
    assert np.allclose(out[:, 4:], zc.imag)


def test_complex_mul_gradients():
    a = RNG.normal(size=(2, 6))
    b = RNG.normal(size=(2, 6))
    check_grad(lambda p: ad.sum_all(ad.complex_mul(p, ad.constant(b))), a)
    check_grad(lambda p: ad.sum_all(ad.complex_mul(ad.constant(a), p)), b)


def test_rows_gather_scatter():
    m = RNG.normal(size=(5, 3))
    p = ad.parameter(m)
    out = ad.rows(p, [1, 1, 4])
    loss = ad.sum_all(out)
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
    out = ad.rows(p, idx)
    assert out.shape == g.shape
    out._backward(g)
    want = reference_scatter(shape, idx, g)
    assert p.grad.dtype == want.dtype and p.grad.shape == want.shape
    assert p.grad.tobytes() == want.tobytes()


# Graphs in which the engine hands one gradient array to two nodes (add of
# equal shapes), negates it (sub), passes views of it (concat_cols) or adds
# a second gradient to a node's first one (a parameter used twice, also after
# its first gradient was handed to another node too).
OWNERSHIP_GRAPHS = {
    "add": lambda p, q, c: ad.sum_all(ad.mul(ad.add(p, q), c)),
    "sub": lambda p, q, c: ad.sum_all(ad.mul(ad.sub(p, q), c)),
    "concat_cols": lambda p, q, c: ad.sum_all(
        ad.matmul(ad.concat_cols(p, q), ad.constant(np.ones((4, 1))))
    ),
    "used_twice": lambda p, q, c: ad.sum_all(ad.mul(ad.add(p, ad.mul(p, q)), c)),
    "shared_then_added": lambda p, q, c: ad.sum_all(
        ad.add(ad.mul(ad.add(p, q), c), ad.mul(p, p))
    ),
}


@pytest.mark.parametrize("name", sorted(OWNERSHIP_GRAPHS))
def test_gradients_equal_copy_on_first_write(name, monkeypatch):
    build = OWNERSHIP_GRAPHS[name]
    rng = np.random.default_rng(3)
    p0, q0, c0 = rng.normal(size=(3, 2, 2))

    def grads():
        p, q = ad.parameter(p0.copy()), ad.parameter(q0.copy())
        ad.backward(build(p, q, ad.constant(c0)))
        return p.grad, q.grad

    got = grads()
    monkeypatch.setattr(ad.Node, "accumulate", reference_accumulate)
    want = grads()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_dropout_identity_at_inference():
    rng = np.random.default_rng(0)
    x = ad.parameter(RNG.normal(size=(2, 4)))
    assert ad.dropout(x, 0.5, rng, training=False) is x
    assert ad.dropout(x, 0.0, rng, training=True) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = ad.parameter(np.ones((200, 50)))
    y = ad.dropout(x, 0.5, rng, training=True)
    kept = y.value[y.value > 0]
    assert np.allclose(kept, 2.0)
    assert abs(y.value.mean() - 1.0) < 0.1


def test_grad_accumulates_over_reuse():
    x = np.array([[3.0]])
    p = ad.parameter(x)
    loss = ad.mul(p, p)  # d(x*x)/dx = 2x
    ad.backward(loss)
    assert np.allclose(p.grad, [[6.0]])


def test_backward_requires_scalar():
    p = ad.parameter(np.ones((1, 3)))
    with pytest.raises(ad.ContractError):
        ad.backward(p)


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.split_halves(ad.constant(np.ones((1, 3))))
    with pytest.raises(ad.ShapeError):  # 3 rows do not split into 2 blocks
        ad.block_matmul_t(ad.constant(np.ones((3, 2))), ad.constant(np.ones((2, 2))), 2)
    with pytest.raises(ad.ShapeError):
        ad.block_matmul_t(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 3))), 2)
    with pytest.raises(ad.ShapeError):  # blocks of 1x2 times blocks of 1x2
        ad.block_matmul(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 2))), 2)
