import numpy as np
import pytest

from sskgqa import autodiff as ad
from sskgqa.optim import AdamW, clip_global_norm, global_norm, train_step


def test_global_norm():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    assert global_norm(grads) == pytest.approx(5.0)


def test_clip_rescales_in_place():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    refs = [id(g) for g in grads]
    out = clip_global_norm(grads, max_norm=1.0)
    assert [id(g) for g in out] == refs
    assert global_norm(out) == pytest.approx(1.0)
    assert out[0][0, 0] == pytest.approx(0.6)


def test_clip_noop_below_threshold():
    grads = [np.array([[0.3]])]
    before = grads[0].copy()
    clip_global_norm(grads, max_norm=1.0)
    assert np.array_equal(grads[0], before)


def reference_adamw(p, g, m, v, t, lr, b1, b2, eps, wd):
    m2 = b1 * m + (1 - b1) * g
    v2 = b2 * v + (1 - b2) * g * g
    mh = m2 / (1 - b1**t)
    vh = v2 / (1 - b2**t)
    p2 = p - lr * (mh / (np.sqrt(vh) + eps) + wd * p)
    return p2, m2, v2


def test_adamw_matches_reference():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(4, 3))
    opt = AdamW(lr=0.01, weight_decay=0.1)
    ref_p = p.copy()
    ref_m = np.zeros_like(p)
    ref_v = np.zeros_like(p)
    for t in range(1, 6):
        g = rng.normal(size=p.shape)
        opt.step([p], [g.copy()])
        ref_p, ref_m, ref_v = reference_adamw(
            ref_p, g, ref_m, ref_v, t, 0.01, 0.9, 0.999, 1e-8, 0.1
        )
        assert np.allclose(p, ref_p, atol=1e-12)


def test_adamw_first_step_magnitude():
    # with bias correction the first step is close to lr per coordinate
    p = np.zeros((1, 4))
    g = np.full((1, 4), 0.5)
    AdamW(lr=0.01).step([p], [g])
    assert np.allclose(p, -0.01, atol=1e-6)


def test_adamw_converges_on_quadratic():
    p = np.array([[5.0, -3.0]])
    opt = AdamW(lr=0.1)
    for _ in range(500):
        opt.step([p], [2 * p])
    assert np.abs(p).max() < 1e-2


def test_adamw_shape_checks():
    opt = AdamW()
    with pytest.raises(ValueError):
        opt.step([np.zeros((2, 2))], [np.zeros((2, 3))])
    with pytest.raises(ValueError):
        opt.step([np.zeros((2, 2))], [])


def test_train_step_matches_inline_sequence():
    # w is used by the loss, unused is not: it steps with a zero gradient
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    init = [rng.normal(size=(4, 2)), rng.normal(size=(1, 5))]

    def loss_of(w):
        return ad.sum_all(ad.mul(ad.matmul(ad.constant(x), w), ad.matmul(ad.constant(x), w)))

    params = [ad.parameter(a.copy()) for a in init]
    opt = AdamW(lr=0.05, weight_decay=0.1)
    ref = [a.copy() for a in init]
    ref_opt = AdamW(lr=0.05, weight_decay=0.1)
    for _ in range(4):
        train_step(opt, params, loss_of(params[0]), 1.0)
        w = ad.parameter(ref[0])
        ad.backward(loss_of(w))
        grads = [w.grad, np.zeros_like(ref[1])]
        clip_global_norm(grads, 1.0)
        ref_opt.step(ref, grads)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r)
    assert not np.array_equal(params[1].value, init[1])  # weight decay moved it
    assert params[0].grad is not None and params[1].grad is None
