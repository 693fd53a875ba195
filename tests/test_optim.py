import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import graph_nodes_while, separable_classifier_dataset
from reference import (
    ReferenceAdam,
    UnpackedParams,
    global_norm,
    reference_add,
    reference_clip,
    reference_concat_cols,
    reference_constant,
    reference_encoder_forward,
    reference_matmul,
    reference_mul,
    reference_scatter,
    reference_sum_all,
    reference_train_step,
)
from sskgqa import autodiff as ad
from sskgqa import classifier as clf_module
from sskgqa import embeddings as emb_module
from sskgqa import optim as optim_module
from sskgqa import ranker as ranker_module
from sskgqa.classifier import ClassifierTrainConfig, train_classifier
from sskgqa.embeddings import EmbedTrainConfig, train
from sskgqa.encoder import EncoderConfig, SequenceEncoder, param_shapes
from sskgqa.optim import (
    MAX_NORM,
    AdamW,
    NonFiniteGradientError,
    ParameterBuffer,
    clip_global_norm,
    train_step,
)
from sskgqa.pipeline import gold_graph_of, tokenize_question
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import norshteyn_kg, ranker_fixture


def test_global_norm():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    assert global_norm(grads) == pytest.approx(5.0)


def test_clip_rescales_in_place():
    grad = np.array([3.0, 4.0])
    out = clip_global_norm(grad, [0, 1, 2])
    assert out is grad
    assert global_norm([out]) == pytest.approx(1.0)
    assert out[0] == pytest.approx(0.6)


def test_clip_noop_below_threshold():
    grad = np.array([0.3])
    before = grad.copy()
    clip_global_norm(grad, [0, 1])
    assert np.array_equal(grad, before)


def test_clip_norm_sums_each_parameter_on_its_own():
    # segments whose per-parameter norm and one-sum norm differ in the last
    # bit, and so do the gradients clipped by each
    rng = np.random.default_rng(8)
    segs = [rng.normal(size=n) for n in (7, 30, 3)]
    grad = np.concatenate(segs)
    want = grad * (1.0 / global_norm(segs))
    assert want.tobytes() != (grad * (1.0 / global_norm([grad]))).tobytes()
    clip_global_norm(grad, [0, 7, 37, 40])
    assert grad.tobytes() == want.tobytes()


def assert_clip_bytes_equal_per_parameter_clip(sizes, scale, seed):
    # norms from well below MAX_NORM to well above it
    rng = np.random.default_rng(seed)
    segs = [rng.normal(size=n) * rng.uniform(0.1, 10.0) * scale for n in sizes]
    grad = np.concatenate(segs)
    reference_clip(segs, MAX_NORM)
    clip_global_norm(grad, [0, *np.cumsum(sizes)])
    assert grad.tobytes() == np.concatenate(segs).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12), st.floats(0.0001, 1.0), st.integers(0, 2**32 - 1))
def test_clip_bytes_equal_per_parameter_clip(sizes, scale, seed):
    assert_clip_bytes_equal_per_parameter_clip(sizes, scale, seed)


# The ranker's parameter sizes as the benchmark trains it (57 tokens,
# out_dim 16, ff_width 48): nine equal attention projections in one run.
BENCHMARK_RANKER_RUNS = [
    (r * c, 1) for r, c in param_shapes(EncoderConfig(out_dim=16, ff_width=48), 57).values()
]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 300), st.integers(1, 12)), min_size=1, max_size=6),
    st.floats(0.0001, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(BENCHMARK_RANKER_RUNS, 1.0, 0)
@example(BENCHMARK_RANKER_RUNS, 0.0001, 1)
def test_clip_bytes_equal_per_parameter_clip_over_equal_size_runs(runs, scale, seed):
    # runs of (segment size, count): equal-size neighbours still sum apart
    sizes = [size for size, count in runs for _ in range(count)]
    assert_clip_bytes_equal_per_parameter_clip(sizes, scale, seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_refuses_a_non_finite_norm(bad):
    grad = np.array([bad, 2.0])
    with pytest.raises(NonFiniteGradientError):
        clip_global_norm(grad, [0, 1, 2])
    assert grad[1] == 2.0
    assert issubclass(NonFiniteGradientError, ValueError)  # the CLI reports a ValueError as one error line


def test_clip_refuses_finite_segment_sums_whose_total_overflows():
    # each segment's square sums to 1e308; their total is past float64's range
    grad = np.array([1e154, 1e154])
    with pytest.raises(NonFiniteGradientError):
        clip_global_norm(grad, [0, 1, 2])
    assert grad.tolist() == [1e154, 1e154]


def reference_adam(p, g, m, v, t, lr, b1, b2, eps):
    m2 = b1 * m + (1 - b1) * g
    v2 = b2 * v + (1 - b2) * g * g
    mh = m2 / (1 - b1**t)
    vh = v2 / (1 - b2**t)
    p2 = p - lr * mh / (np.sqrt(vh) + eps)
    return p2, m2, v2


def test_adamw_matches_reference():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(4, 3))
    opt = AdamW(lr=0.01)
    ref_p = p.copy()
    ref_m = np.zeros_like(p)
    ref_v = np.zeros_like(p)
    for t in range(1, 6):
        g = rng.normal(size=p.shape)
        opt.step(p, g.copy())
        ref_p, ref_m, ref_v = reference_adam(ref_p, g, ref_m, ref_v, t, 0.01, 0.9, 0.999, 1e-8)
        assert np.allclose(p, ref_p, atol=1e-12)


def test_adamw_bytes_equal_per_array_adam_over_many_steps():
    # the scratch arrays are reused from step to step; the update must keep
    # the bytes of Adam written out in one expression per line
    rng = np.random.default_rng(3)
    shape = (40, 30)
    p = rng.normal(size=shape)
    ref = [p.copy()]
    opt, ref_opt = AdamW(lr=0.01), ReferenceAdam(lr=0.01)
    for t in range(60):
        g = rng.normal(size=shape) * rng.uniform(1e-4, 10.0)
        if t % 7 == 3:
            g[rng.random(shape) < 0.5] = 0.0
        opt.step(p, g)
        ref_opt.step(ref, [g.copy()])
        assert p.tobytes() == ref[0].tobytes()
        assert opt._m.tobytes() == ref_opt._m[0].tobytes()
        assert opt._v.tobytes() == ref_opt._v[0].tobytes()


def test_adamw_first_step_magnitude():
    # with bias correction the first step is close to lr per coordinate
    p = np.zeros((1, 4))
    g = np.full((1, 4), 0.5)
    AdamW(lr=0.01).step(p, g)
    assert np.allclose(p, -0.01, atol=1e-6)


def test_adamw_converges_on_quadratic():
    p = np.array([[5.0, -3.0]])
    opt = AdamW(lr=0.1)
    for _ in range(500):
        opt.step(p, 2 * p)
    assert np.abs(p).max() < 1e-2


def test_adamw_shape_checks():
    opt = AdamW(lr=0.1)
    with pytest.raises(ValueError):
        opt.step(np.zeros((2, 2)), np.zeros((2, 3)))
    assert opt.step_count == 0


def test_train_step_matches_inline_sequence():
    # w is used by the loss, unused is not: it steps with a zero gradient,
    # which leaves it where it is, and its gradient holds zeros
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    init = [rng.normal(size=(4, 2)), rng.normal(size=(1, 5))]

    def loss_of(w):
        return reference_sum_all(reference_mul(reference_matmul(reference_constant(x), w), reference_matmul(reference_constant(x), w)))

    params = [ad.parameter(a.copy()) for a in init]
    buffer = ParameterBuffer(params)
    opt = AdamW(lr=0.05)
    ref = [a.copy() for a in init]
    ref_opt = ReferenceAdam(lr=0.05)
    for _ in range(4):
        train_step(opt, buffer, loss_of(params[0]))
        w = ad.parameter(ref[0])
        ad.backward(loss_of(w))
        grads = [w.grad, np.zeros_like(ref[1])]
        reference_clip(grads, MAX_NORM)
        ref_opt.step(ref, grads)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r)
    assert not np.array_equal(params[0].value, init[0])
    assert np.array_equal(params[1].value, init[1])
    assert params[1].grad.tobytes() == np.zeros_like(init[1]).tobytes()
    for p, lo, hi in zip(params, buffer.offsets, buffer.offsets[1:]):
        assert np.shares_memory(p.grad, buffer.grad) and p.grad.tobytes() == buffer.grad[lo:hi].tobytes()


def test_parameter_buffer_packs_views_in_order():
    rng = np.random.default_rng(2)
    init = [rng.normal(size=s) for s in ((2, 3), (1, 5), (4, 1))]
    params = [ad.parameter(a.copy()) for a in init]
    buffer = ParameterBuffer(params)
    assert buffer.value.shape == (15,) and buffer.value.dtype == np.float64
    assert buffer.offsets == [0, 6, 11, 15]
    for p, a, lo, hi in zip(params, init, buffer.offsets, buffer.offsets[1:]):
        assert np.shares_memory(p.value, buffer.value)
        assert p.value.shape == a.shape
        assert p.value.tobytes() == a.tobytes() == buffer.value[lo:hi].tobytes()
    buffer.value *= 2.0
    for p, a in zip(params, init):
        assert np.array_equal(p.value, 2.0 * a)


def test_parameter_buffer_refuses_a_parameter_listed_twice():
    p, q = ad.parameter(np.ones((1, 2))), ad.parameter(np.zeros((2, 2)))
    value = p.value
    with pytest.raises(ValueError, match="twice"):
        ParameterBuffer([p, q, p])
    assert p.value is value


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_step_refuses_a_non_finite_gradient(bad):
    p = ad.parameter(np.array([[1.0, 2.0]]))
    buffer = ParameterBuffer([p])
    opt = AdamW(lr=0.1)
    train_step(opt, buffer, reference_sum_all(reference_mul(p, reference_constant([[0.5, -0.5]]))))
    before = [a.tobytes() for a in (p.value, opt._m, opt._v)]
    with pytest.raises(NonFiniteGradientError):
        train_step(opt, buffer, reference_sum_all(reference_mul(p, reference_constant([[bad, 1.0]]))))
    assert [a.tobytes() for a in (p.value, opt._m, opt._v)] == before
    assert opt.step_count == 1


class RecordingOptimizer:
    """Keeps a copy of the gradient each step is given."""

    def step(self, p, g):
        self.grad = g.copy()


def test_buffer_gradient_zeroes_a_parameter_an_earlier_step_reached():
    # the buffer reuses its gradient array, so a parameter the loss does
    # not reach must not carry the last step's gradient into the optimizer:
    # it holds zeros
    p, q = ad.parameter(np.ones((1, 2))), ad.parameter(np.ones((2, 1)))
    buffer = ParameterBuffer([p, q])
    opt = RecordingOptimizer()
    train_step(opt, buffer, reference_sum_all(reference_mul(reference_matmul(p, q), reference_constant([[0.25]]))))
    assert opt.grad.tolist() == [0.25, 0.25, 0.25, 0.25]
    train_step(opt, buffer, reference_sum_all(reference_mul(p, reference_constant([[0.5, -0.25]]))))
    assert q.grad.tolist() == [[0.0], [0.0]]
    assert opt.grad.tolist() == [0.5, -0.25, 0.0, 0.0]


def test_train_step_reaching_no_parameter_steps_without_clipping(monkeypatch):
    # a loss with no backward (a flat triplet hinge) reaches no parameter:
    # the optimizer still steps, on an all-zero gradient that each parameter
    # holds its zeros of, and clipping, a no-op at norm 0, is not called
    clipped, clip = [], optim_module.clip_global_norm

    def counting(grad, offsets):
        clipped.append(len(grad))
        return clip(grad, offsets)

    monkeypatch.setattr(optim_module, "clip_global_norm", counting)
    p, q = ad.parameter(np.ones((1, 2))), ad.parameter(np.ones((2, 1)))
    buffer = ParameterBuffer([p, q])
    opt = RecordingOptimizer()
    train_step(opt, buffer, reference_sum_all(reference_matmul(p, q)))
    assert clipped == [4]
    train_step(opt, buffer, reference_constant([[0.0]]))
    assert clipped == [4]
    assert p.grad.tobytes() == np.zeros((1, 2)).tobytes() and q.grad.tobytes() == np.zeros((2, 1)).tobytes()
    assert opt.grad.tobytes() == np.zeros(4).tobytes()


C = np.array([[3.0, -4.0, 12.0, 1.0]])
# Parameter shapes, a function of the parameters whose sum weighted by c (the
# first columns of C) is the loss, and each parameter's gradient before
# clipping. The gradients handed to them share memory: add of equal shapes
# hands both operands one array, with concat_cols p and q get views of the
# array that r gets, and in "twice" p gets one array twice before q gets it
# too.
SHARED_GRADIENT_LOSSES = {
    "add": (((1, 2), (1, 2)), lambda p, q: reference_add(p, q), lambda c: [c, c]),
    "twice": (((1, 2), (1, 2)), lambda p, q: reference_add(reference_add(p, q), p), lambda c: [2.0 * c, c]),
    "views": (
        ((1, 2), (1, 2), (1, 4)),
        lambda p, q, r: reference_add(reference_concat_cols(p, q), r),
        lambda c: [c[:, :2], c[:, 2:], c],
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_GRADIENT_LOSSES))
def test_train_step_scales_a_shared_gradient_once(name, monkeypatch):
    shapes, build, unclipped_of = SHARED_GRADIENT_LOSSES[name]
    params = [ad.parameter(np.zeros(s)) for s in shapes]
    buffer = ParameterBuffer(params)
    c = C[:, : shapes[-1][1]]
    handed, accumulate = [], ad.Node.accumulate

    def recording(node, g):
        if any(node is p for p in params):
            handed.append((g, g.copy()))
        accumulate(node, g)

    monkeypatch.setattr(ad.Node, "accumulate", recording)
    opt = RecordingOptimizer()
    train_step(opt, buffer, reference_sum_all(reference_mul(build(*params), reference_constant(c))))
    unclipped = unclipped_of(c)
    factor = 1.0 / global_norm(unclipped)
    assert factor < 1.0
    flat = opt.grad
    for p, g, lo, hi in zip(params, unclipped, buffer.offsets, buffer.offsets[1:]):
        assert np.array_equal(flat[lo:hi].reshape(p.shape), g * factor)
        assert np.array_equal(p.grad, g * factor)
    # the arrays a backward handed out share memory, and are neither written
    # nor scaled
    arrays = [g for g, _ in handed]
    assert len(arrays) >= len(params)
    assert all(any(np.shares_memory(a, b) for j, b in enumerate(arrays) if j != i) for i, a in enumerate(arrays))
    assert all(g.tobytes() == before.tobytes() for g, before in handed)


def trained_ranker():
    kg, questions = ranker_fixture()
    rank_data = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    # gradient norms run from 0.87 to 1.40, so some steps clip and some do not
    cfg = RankTrainConfig(epochs=2, negatives=3, dropout=0.5, out_dim=8, ff_width=16, lr=1e-2)
    return [p.value for p in train_ranker(rank_data, kg, builtin_taxonomy(), cfg).encoder.parameters()]


def trained_classifier(use_attention: bool):
    # BATCH_SIZE + 1 examples, so each epoch ends on a one-example minibatch
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels(), per_class=6)
    dataset = dataset[: clf_module.BATCH_SIZE + 1]
    cfg = ClassifierTrainConfig(epochs=3, d_model=12, use_attention=use_attention, lr=1e-2)
    return [p.value for p in train_classifier(dataset, table, builtin_taxonomy(), cfg).parameters()]


def trained_embeddings(kind: str):
    kg, _ = ranker_fixture()
    table, _ = train(kg, EmbedTrainConfig(d=8, epochs=4, negatives=4, seed=0), kind)
    return [table.ent, table.rel]


def train_three_models():
    """Every parameter of TransE, the classifier and the ranker, each trained
    for a few steps on small fixtures; attention, dropout and a one-example
    minibatch included."""
    return trained_embeddings("transe") + trained_classifier(True) + trained_ranker()


def test_training_matches_copying_autodiff(monkeypatch):
    # the engine's scatter against np.add.at into zeros; a parameter's
    # gradient is a copy it adds into, so the accumulation copies already
    got = train_three_models()
    monkeypatch.setattr(ad, "scatter_rows", lambda idx, g, n: reference_scatter((n, g.shape[1]), idx, g))
    want = train_three_models()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# name -> (the trainer's module, a run returning every trained parameter)
TRAINERS = {
    "ranker": (ranker_module, trained_ranker),
    "classifier_attention": (clf_module, lambda: trained_classifier(True)),
    "classifier_no_attention": (clf_module, lambda: trained_classifier(False)),
    "transe": (emb_module, lambda: trained_embeddings("transe")),
    "complex": (emb_module, lambda: trained_embeddings("complex")),
}


def assert_packed_training_matches_per_parameter_steps(name, monkeypatch, weight=None):
    """Train with the packed buffer, then with per-parameter steps, and
    compare every parameter's bytes and every loss. With a `weight`, each
    step's loss is scaled by it; returns whether a per-parameter step's
    gradient held a -0.0."""
    module, run = TRAINERS[name]
    negative_zero = []

    def recording(step, losses):
        def recorded(opt, params, loss):
            losses.append(float(loss.value[0, 0]))
            if weight is not None:
                loss = reference_mul(loss, reference_constant([[weight]]))
            step(opt, params, loss)
            if isinstance(params, UnpackedParams):
                negative_zero.extend(
                    p.grad is not None and bool((np.signbit(p.grad) & (p.grad == 0.0)).any()) for p in params.params
                )

        return recorded

    got_losses, want_losses = [], []
    monkeypatch.setattr(module, "train_step", recording(module.train_step, got_losses))
    got = run()
    monkeypatch.setattr(module, "ParameterBuffer", UnpackedParams)
    monkeypatch.setattr(module, "AdamW", ReferenceAdam)
    monkeypatch.setattr(module, "train_step", recording(reference_train_step, want_losses))
    want = run()
    assert len(got) == len(want) and got_losses
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert got_losses == want_losses
    return any(negative_zero)


@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_packed_training_matches_per_parameter_steps(name, monkeypatch):
    assert_packed_training_matches_per_parameter_steps(name, monkeypatch)


@pytest.mark.parametrize("weight", [-1.0, 0.0])
@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_packed_training_matches_per_parameter_steps_on_negative_zeros(name, weight, monkeypatch):
    # a packed parameter adds its gradients into zeros, so where a
    # per-parameter gradient holds -0.0 its flat gradient holds +0.0. Adam's
    # moments start at +0.0, +0.0 + -0.0 is +0.0 and the square of either
    # zero is +0.0, so the steps are the same. Weight -1 flips the signs of
    # zeros; weight 0 makes every gradient cell a zero of either sign, and
    # the classifier's then hold -0.0 cells. (The ranker's hinge and the
    # embeddings' scatter sum from +0.0, so theirs hold none.)
    negative_zero = assert_packed_training_matches_per_parameter_steps(name, monkeypatch, weight)
    if weight == 0.0 and name.startswith("classifier"):
        assert negative_zero


@pytest.mark.parametrize("name", ["ranker", "classifier_attention", "classifier_no_attention"])
def test_training_builds_two_nodes_per_step(name, monkeypatch):
    # per optimizer step, the encoder's node and the loss node; the other
    # nodes are the parameters, made once with the model
    _, run = TRAINERS[name]
    steps, step = [], AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self, p, g: steps.append(step(self, p, g)))
    params = []
    nodes, _ = graph_nodes_while(lambda: params.extend(run()))
    assert steps and nodes == len(params) + 2 * len(steps)


def test_embedding_epoch_builds_three_nodes():
    # per epoch, the positives' and the negatives' score nodes and the loss;
    # the other two are the entity and relation parameters
    nodes, with_backward = graph_nodes_while(lambda: train(norshteyn_kg(), EmbedTrainConfig(d=8, epochs=5), "transe"))
    assert (nodes, with_backward) == (2 + 3 * 5, 3 * 5)


@pytest.mark.parametrize("name", ["ranker", "classifier_attention"])
def test_fused_encoder_training_matches_per_head_chain(name, monkeypatch):
    # the ranker trains with dropout 0.5, both with three attention heads
    _, run = TRAINERS[name]
    got = run()
    monkeypatch.setattr(SequenceEncoder, "forward", reference_encoder_forward)
    want = run()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
