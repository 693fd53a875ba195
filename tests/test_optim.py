import numpy as np
import pytest

from reference import reference_accumulate, reference_rows
from sskgqa import autodiff as ad
from sskgqa.classifier import ClassifierTrainConfig, train_classifier
from sskgqa.embeddings import EmbedTrainConfig, train
from sskgqa.optim import AdamW, clip_global_norm, global_norm, train_step
from sskgqa.pipeline import gold_graph_of, tokenize_question
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import ranker_fixture, separable_classifier_dataset


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


class RecordingOptimizer:
    """Keeps a copy of the gradients each step is given."""

    def step(self, params, grads):
        self.grads = [g.copy() for g in grads]


C = np.array([[3.0, -4.0, 12.0, 1.0]])
# Parameter shapes, and a function of the parameters whose sum weighted by C
# (its first columns) is the loss. Their gradients share memory: add of equal
# shapes hands both operands one array, and with concat_cols p and q get
# views of the array that r gets.
SHARED_GRADIENT_LOSSES = {
    "add": (((1, 2), (1, 2)), lambda p, q: ad.add(p, q)),
    "views": (((1, 2), (1, 2), (1, 4)), lambda p, q, r: ad.add(ad.concat_cols(p, q), r)),
}


@pytest.mark.parametrize("name", sorted(SHARED_GRADIENT_LOSSES))
def test_train_step_scales_a_shared_gradient_once(name):
    shapes, build = SHARED_GRADIENT_LOSSES[name]
    params = [ad.parameter(np.zeros(s)) for s in shapes]
    c = C[:, : shapes[-1][1]]
    opt = RecordingOptimizer()
    train_step(opt, params, ad.sum_all(ad.mul(build(*params), ad.constant(c))), 1.0)
    unclipped = [c] * len(params) if name == "add" else [c[:, :2], c[:, 2:], c]
    factor = 1.0 / global_norm(unclipped)
    assert factor < 1.0
    for got, g in zip(opt.grads, unclipped):
        assert np.array_equal(got, g * factor)
    for i, p in enumerate(params):
        assert not any(np.shares_memory(p.grad, q.grad) for q in params[:i])


def train_three_models():
    """Every parameter of TransE, the classifier and the ranker, each trained
    for a few steps on small fixtures; attention, dropout and a one-example
    minibatch included."""
    kg, questions = ranker_fixture()
    table, _ = train(kg, EmbedTrainConfig(d=8, epochs=3, negatives=4, seed=0))
    dataset, clf_table = separable_classifier_dataset(builtin_taxonomy().labels(), per_class=3)
    clf_cfg = ClassifierTrainConfig(
        epochs=2, batch_size=len(dataset) - 1, d_model=12, use_attention=True, lr=1e-2
    )
    clf = train_classifier(dataset, clf_table, builtin_taxonomy(), clf_cfg)
    rank_data = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    rank_cfg = RankTrainConfig(epochs=2, negatives=3, dropout=0.2, out_dim=8, ff_width=16, lr=1e-2)
    ranker = train_ranker(rank_data, kg, builtin_taxonomy(), rank_cfg)
    return [table.ent, table.rel] + [p.value for p in clf.parameters() + ranker.encoder.parameters()]


def test_training_matches_copying_autodiff(monkeypatch):
    got = train_three_models()
    monkeypatch.setattr(ad.Node, "accumulate", reference_accumulate)
    monkeypatch.setattr(ad, "rows", reference_rows)
    want = train_three_models()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
