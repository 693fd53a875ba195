import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import class_probabilities, count_blocks, separable_classifier_dataset
from reference import (
    ReferenceAdam,
    reference_add,
    reference_classifier_loss,
    reference_clip,
    reference_complex_mul,
    reference_constant,
    reference_log,
    reference_matmul,
    reference_mul,
    reference_rowsum,
    reference_scale,
    reference_softmax,
    reference_train_classifier,
)
from sskgqa import autodiff as ad
from sskgqa.classifier import (
    BATCH_SIZE,
    DROPOUT,
    ClassifierError,
    ClassifierModel,
    ClassifierTrainConfig,
    cross_entropy,
    fuse,
    load_classifier,
    save_classifier,
    softmax_rows,
    train_classifier,
)
from sskgqa.embeddings import EmbeddingError, init_table
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.optim import MAX_NORM
from sskgqa.structures import builtin_taxonomy


def test_rotate_fuse_matches_complex_oracle():
    rng = np.random.default_rng(0)
    for d in (2, 8, 64):
        eh = rng.normal(size=d)
        eq = rng.normal(size=d)
        out = fuse(eh[None], eq[None])[0]
        h = d // 2
        zh = eh[:h] + 1j * eh[h:]
        zq = eq[:h] + 1j * eq[h:]
        zt = zh * zq
        expected = np.concatenate(
            [eh[:h] + eq[:h] + zt.real, eh[h:] + eq[h:] + zt.imag]
        )
        assert np.allclose(out, expected, atol=1e-12)


def test_rotate_fuse_validation():
    # an odd width is ClassifierModel's to refuse (test_dim_mismatch_rejected)
    with pytest.raises(ad.ShapeError):
        fuse(np.zeros((1, 4)), np.zeros((1, 6)))


@st.composite
def fusion_cases(draw):
    """n examples of dimension d over k classes, with their targets. With
    `spread`, the last class is no row's target, and its bias, and some
    other non-target classes' biases, get -spread added, so those classes'
    probabilities underflow to 0."""
    n, d, k = draw(st.integers(1, 6)), 2 * draw(st.integers(1, 4)), draw(st.integers(2, 7))
    spread = draw(st.sampled_from([0.0, 2000.0]))
    top = k - 2 if spread else k - 1
    targets = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return n, d, k, targets, draw(st.booleans()), spread


@settings(max_examples=200, deadline=None)
@given(fusion_cases(), st.sampled_from([1.0, -1.0, 0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_fuse_and_cross_entropy_bytes_equal_composed_chain(case, weight, seed):
    # the classifier's loss node against the chain of nodes it fuses,
    # reference_fuse -> matmul -> add -> reference_cross_entropy; "grid"
    # values hold few distinct numbers, so some products are zero; `weight`
    # scales the gradient that reaches the loss: negative weights flip the
    # signs of zeros, and 0 makes every gradient term zero
    n, d, k, targets, grid, spread = case
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.integers(-1, 2, size=shape) * 0.5) if grid else (lambda shape: rng.normal(size=shape))
    eh, eq0, w0, b0 = draw((n, d)), draw((n, d)), draw((d, k)), draw((1, k))
    offsets = -spread * (rng.random((1, k)) < 0.5)
    offsets[0, k - 1] = -spread
    offsets[0, targets] = 0.0
    b0 = b0 + offsets
    values, grads = [], []
    for loss_op in (cross_entropy, reference_classifier_loss):
        eq, w, b = ad.parameter(eq0.copy()), ad.parameter(w0.copy()), ad.parameter(b0.copy())
        loss = loss_op(eq, eh, w, b, targets)
        ad.backward(reference_mul(loss, reference_constant([[weight]])))
        values.append(loss.value.tobytes())
        grads.append([eq.grad.tobytes(), w.grad.tobytes(), b.grad.tobytes()])
    assert spread == 0.0 or (softmax_rows(fuse(eh, eq0) @ w0 + b0) == 0.0).any()
    assert values[0] == values[1]
    assert grads[0] == grads[1]


def make_model(table, seed=0):
    tax = builtin_taxonomy()
    vocab = Vocab(["a", "b"])
    enc = SequenceEncoder(
        vocab,
        EncoderConfig(out_dim=table.d, d_model=8, use_attention=False),
        np.random.default_rng(seed),
    )
    return ClassifierModel(enc, table, tax, np.random.default_rng(seed))


def test_zero_head_gives_uniform_distribution():
    table = init_table("transe", 4, 2, 8, seed=0)
    model = make_model(table)
    model.w.value[...] = 0.0
    model.b.value[...] = 0.0
    probs = class_probabilities(model, ["a", "b"], topic=1)
    assert np.allclose(probs, 1.0 / len(model.labels), atol=1e-12)
    assert probs.sum() == pytest.approx(1.0)


def test_predict_picks_the_class_accuracy_scores_right():
    # the softmax rounds the two top probabilities equal, the logits do not
    table = init_table("transe", 4, 2, 8, seed=0)
    model = make_model(table)
    model.w.value[...] = 0.0
    model.b.value[...] = [0.0, 1e-17, 0.0, 0.0, 0.0, 0.0]
    tokens, topic = ["a", "b"], 1
    probs = class_probabilities(model, tokens, topic)
    assert probs[0] == probs[1]
    assert model.predict(tokens, topic) == "SS2"
    assert model.accuracy([(tokens, topic, model.predict(tokens, topic))]) == 1.0


def test_dim_mismatch_rejected():
    table = init_table("transe", 4, 2, 8, seed=0)
    tax = builtin_taxonomy()
    enc = SequenceEncoder(
        Vocab(["a"]),
        EncoderConfig(out_dim=6, d_model=8, use_attention=False),
        np.random.default_rng(0),
    )
    with pytest.raises(ClassifierError):
        ClassifierModel(enc, table, tax, np.random.default_rng(0))
    # the fusion's complex product needs an even dimension
    odd = init_table("transe", 4, 2, 7, seed=0)
    enc = SequenceEncoder(
        Vocab(["a"]), EncoderConfig(out_dim=7, d_model=8, use_attention=False), np.random.default_rng(0)
    )
    with pytest.raises(ClassifierError, match="even"):
        ClassifierModel(enc, odd, tax, np.random.default_rng(0))


def test_config_validation():
    nan = float("nan")
    for name, value in [("epochs", 0), ("lr", 0.0), ("lr", -1.0), ("lr", nan)]:
        with pytest.raises(ValueError, match="must be positive"):
            ClassifierTrainConfig(**{name: value})
    # encoder settings, refused by the EncoderConfig the config builds
    for settings, message in [({"d_model": 10, "use_attention": True}, "heads must divide d_model"),
                              ({"d_model": 0}, "d_model must be")]:
        with pytest.raises(ValueError, match=message):
            ClassifierTrainConfig(**settings)


def test_train_classifier_builds_its_encoder_from_the_config():
    # the 3 heads need not divide d_model without attention
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    cfg = ClassifierTrainConfig(epochs=1, d_model=7)
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    assert model.encoder.cfg == EncoderConfig(
        out_dim=table.d, d_model=7, heads=3, ff_width=48, use_attention=False, dropout=DROPOUT
    )


def test_train_reaches_full_accuracy_and_table_frozen():
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    before = table.ent.tobytes()
    cfg = ClassifierTrainConfig(
        epochs=50, lr=1e-2, d_model=16, use_attention=False, seed=0
    )
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    assert model.accuracy(dataset) == 1.0
    assert table.ent.tobytes() == before  # embeddings never updated


def test_train_rejects_unknown_label():
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    bad = dataset + [(["x"], 0, "SS9")]
    with pytest.raises(ClassifierError):
        train_classifier(bad, table, builtin_taxonomy(), ClassifierTrainConfig(epochs=1))


def test_checkpoint_round_trip(tmp_path):
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    cfg = ClassifierTrainConfig(
        epochs=10, lr=1e-2, d_model=16, use_attention=False, seed=0
    )
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    path = str(tmp_path / "clf.ckpt")
    save_classifier(model, path)
    back = load_classifier(path, table, builtin_taxonomy())
    # each parameter in its own place: a swap of two same-shape ones would
    # re-save the same bytes
    assert [p.value.tobytes() for p in back.parameters()] == [
        p.value.astype(np.float32).astype(np.float64).tobytes() for p in model.parameters()
    ]
    for toks, topic, _ in dataset[:5]:
        assert np.allclose(
            class_probabilities(back, toks, topic), class_probabilities(model, toks, topic), atol=1e-6
        )
        assert back.predict(toks, topic) == model.predict(toks, topic)
    again = str(tmp_path / "again.ckpt")
    save_classifier(back, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_train_rejects_empty_dataset():
    _, table = separable_classifier_dataset(builtin_taxonomy().labels())
    with pytest.raises(ClassifierError):
        train_classifier([], table, builtin_taxonomy(), ClassifierTrainConfig(epochs=1))
    with pytest.raises(ClassifierError):
        make_model(table).accuracy([])


def varied_dataset():
    """The separable fixture with questions of 2 to 6 tokens, so minibatches pad."""
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    return [(toks[: 2 + i % 5], topic, label) for i, (toks, topic, label) in enumerate(dataset)], table


def per_example_loss(model, examples, rng=None):
    """Mean cross-entropy built one example at a time: a one-sequence forward,
    the topic row, the fused head, and -log of the gathered gold probability,
    summed with one add per example."""
    terms = []
    for toks, topic, label in examples:
        eq = model.encoder.forward(model.encoder.vocab.encode(toks), training=rng is not None, rng=rng)
        eh = reference_constant(model.table.ent[topic : topic + 1])
        s = reference_add(reference_add(eh, eq), reference_complex_mul(eh, eq))
        probs = reference_softmax(reference_add(reference_matmul(s, model.w), model.b))
        onehot = np.zeros(probs.shape)
        onehot[0, model.labels.index(label)] = 1.0
        gold = reference_rowsum(reference_mul(probs, reference_constant(onehot)))
        terms.append(reference_scale(reference_log(gold), -1.0))
    total = terms[0]
    for t in terms[1:]:
        total = reference_add(total, t)
    return reference_scale(total, 1.0 / len(examples))


def grads_of(params, loss):
    for p in params:
        p.grad = None
    ad.backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_batched_loss_matches_per_example_form(use_attention, dropout):
    dataset, table = varied_dataset()
    tax = builtin_taxonomy()
    rng = np.random.default_rng(5)
    enc = SequenceEncoder(
        Vocab.from_sequences([t for t, _, _ in dataset]),
        EncoderConfig(out_dim=table.d, d_model=6, heads=2, ff_width=8,
                      use_attention=use_attention, dropout=dropout),
        rng,
    )
    model = ClassifierModel(enc, table, tax, rng)
    params = model.parameters()
    for seed in range(8):
        picked = np.random.default_rng(seed).choice(len(dataset), size=1 + seed, replace=False)
        examples = [dataset[i] for i in picked]
        assert len({len(t) for t, _, _ in examples}) > 1 or len(examples) == 1
        eq = enc.forward(*(enc.vocab.encode(t) for t, _, _ in examples), training=True, rng=np.random.default_rng(seed))
        eh = table.lookup_entities([e for _, e, _ in examples])
        batched = cross_entropy(eq, eh, model.w, model.b, [model.labels.index(lab) for _, _, lab in examples])
        got = grads_of(params, batched)
        single = per_example_loss(model, examples, np.random.default_rng(seed))
        want = grads_of(params, single)
        assert abs(batched.value[0, 0] - single.value[0, 0]) < 1e-10
        for g, w in zip(got, want):
            assert np.abs(g - w).max() < 1e-10


def reference_train(dataset, table, taxonomy, cfg):
    """The per-example trainer: one forward per example and an inline
    zero-grad / backward / zero-fill / clip / AdamW step per minibatch."""
    rng = np.random.default_rng(cfg.seed)
    enc_cfg = EncoderConfig(
        out_dim=table.d, d_model=cfg.d_model, use_attention=cfg.use_attention, dropout=DROPOUT
    )
    vocab = Vocab.from_sequences([toks for toks, _, _ in dataset])
    model = ClassifierModel(SequenceEncoder(vocab, enc_cfg, rng), table, taxonomy, rng)
    params = model.parameters()
    opt = ReferenceAdam(lr=cfg.lr)
    order = np.arange(len(dataset))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), BATCH_SIZE):
            batch = [dataset[i] for i in order[start : start + BATCH_SIZE]]
            grads = grads_of(params, per_example_loss(model, batch, rng))
            reference_clip(grads, MAX_NORM)
            opt.step([p.value for p in params], grads)
    return model


def test_train_matches_per_example_reference():
    dataset, table = varied_dataset()
    assert len(dataset) % BATCH_SIZE != 0  # a partial last minibatch
    cfg = ClassifierTrainConfig(epochs=3, lr=1e-2, d_model=16, use_attention=False, seed=2)
    got = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    want = reference_train(dataset, table, builtin_taxonomy(), cfg)
    for g, w in zip(got.parameters(), want.parameters()):
        assert np.abs(g.value - w.value).max() < 1e-10


@pytest.mark.parametrize("use_attention", [False, True])
def test_train_bytes_equal_per_step_mapping(use_attention):
    dataset, table = varied_dataset()
    cfg = ClassifierTrainConfig(epochs=3, lr=1e-2, d_model=12, use_attention=use_attention, seed=2)
    got = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    want = reference_train_classifier(dataset, table, builtin_taxonomy(), cfg)
    assert [p.value.tobytes() for p in got.parameters()] == [p.value.tobytes() for p in want.parameters()]


def test_accuracy_is_mean_of_predictions(monkeypatch):
    from sskgqa import encoder as encoder_module

    dataset, table = varied_dataset()
    cfg = ClassifierTrainConfig(epochs=2, lr=1e-2, d_model=16, use_attention=False, seed=0)
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    want = np.mean([model.predict(toks, topic) == label for toks, topic, label in dataset])
    assert 0.0 < want < 1.0
    assert model.accuracy(dataset) == want
    monkeypatch.setattr(encoder_module, "ENCODE_CHUNK", 7)  # blocks of 7, the last partial
    blocks = count_blocks(monkeypatch)
    assert model.accuracy(dataset) == want
    assert blocks == [min(7, len(dataset) - i) for i in range(0, len(dataset), 7)]


def test_batched_logits_reject_topic_out_of_range():
    dataset, table = varied_dataset()
    model = make_model(table)
    with pytest.raises(EmbeddingError):
        model._logits([[0], [0]], [0, table.ent.shape[0]])
    with pytest.raises(EmbeddingError):
        model.accuracy([(["a"], 0, "SS1"), (["b"], -1, "SS1")])


def test_cross_entropy_with_underflowing_class():
    # with a zero entity row and an identity head the logits are the
    # question vectors: exp(-1000) underflows to 0 for the non-target class
    # of row 0
    eq = ad.parameter(np.array([[0.0, 1000.0], [1.0, 2.0]]))
    w, b = ad.parameter(np.eye(2)), ad.parameter(np.zeros((1, 2)))
    loss = cross_entropy(eq, np.zeros((2, 2)), w, b, [1, 0])
    want = -(0.0 + np.log(np.exp(1.0) / (np.exp(1.0) + np.exp(2.0)))) / 2
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)
    ad.backward(loss)
    assert all(np.isfinite(p.grad).all() for p in (eq, w, b))
