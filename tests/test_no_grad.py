"""Inference builds no node: the encoder's and the classifier's inference
forwards run their ops on plain arrays and give the recorded forward's
values, bit for bit."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import count_forwards, score_tails
from reference import reference_score_tails, reference_softmax
from sskgqa import autodiff as ad
from sskgqa.annotation import label_question
from sskgqa.classifier import ClassifierModel, ClassifierTrainConfig, fuse, train_classifier
from sskgqa.embeddings import KINDS, EmbeddingTable, EmbedTrainConfig, score_nodes, train
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.pipeline import MODES, PipelineConfig, evaluate, gold_graph_of, tokenize_question
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import norshteyn_kg, norshteyn_questions

TAX = builtin_taxonomy()
OUT_DIM = 4  # even: the classifier fuses with a complex product
N_ENT, N_REL = 5, 2


def graph_nodes_while(run) -> tuple[int, int]:
    """(nodes created, nodes created with parents) while run() runs."""
    counts = [0, 0]
    init = ad.Node.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts[0] += 1
        counts[1] += bool(self.parents)

    ad.Node.__init__ = counting_init
    try:
        run()
    finally:
        ad.Node.__init__ = init
    return counts[0], counts[1]


@contextmanager
def dropout_off(enc: SequenceEncoder):
    """The encoder's training forward without dropout: the recorded forward
    that inference must equal."""
    dropout, enc.cfg.dropout = enc.cfg.dropout, 0.0
    try:
        yield
    finally:
        enc.cfg.dropout = dropout


def make_encoder(use_attention: bool, heads: int, seed: int) -> SequenceEncoder:
    cfg = EncoderConfig(
        out_dim=OUT_DIM, d_model=6, heads=heads, ff_width=8, use_attention=use_attention, dropout=0.5
    )
    return SequenceEncoder(Vocab(["a", "b", "c", "d"]), cfg, np.random.default_rng(seed))


# "zz" is out of vocabulary; lengths differ, so padding is exercised
sequences = st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), min_size=1, max_size=9)


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.lists(st.tuples(sequences, st.integers(0, N_ENT - 1), st.sampled_from(TAX.labels())),
             min_size=1, max_size=8),
    st.sampled_from(KINDS),
    st.integers(0, N_ENT - 1),
    st.integers(0, N_REL - 1),
)
def test_no_grad_inference_equals_recorded_forward(use_attention, heads, seed, examples, kind, h, r):
    enc = make_encoder(use_attention, heads, seed)
    seqs = [enc.vocab.encode(toks) for toks, _, _ in examples]
    with dropout_off(enc):
        recorded = enc.forward(*seqs, training=True)
    assert recorded.parents  # the training forward keeps its graph
    assert np.array_equal(enc.encode(*seqs), recorded.value)

    rng = np.random.default_rng(seed)
    table = EmbeddingTable(kind, rng.normal(size=(N_ENT, OUT_DIM)), rng.normal(size=(N_REL, OUT_DIM)))
    model = ClassifierModel(enc, table, TAX, rng)
    with dropout_off(enc):
        wants = [
            reference_softmax(model._logits([ids], [t], training=True)).value[0]
            for (_, t, _), ids in zip(examples, seqs)
        ]
        logits = model._logits(seqs, [t for _, t, _ in examples], training=True).value
    for (toks, topic, _), want in zip(examples, wants):
        assert np.array_equal(model.classify(toks, topic), want)
    best = np.argmax(logits, axis=1)
    hits = sum(model.labels[j] == label for j, (_, _, label) in zip(best, examples))
    assert model.accuracy(examples) == hits / len(examples)

    tails = np.arange(N_ENT)
    got = score_tails(table, h, r, tails)
    node = score_nodes(
        ad.constant(table.ent), ad.constant(table.rel), kind, np.full(N_ENT, h), np.full(N_ENT, r), tails
    )
    assert np.array_equal(got, node.value[:, 0])
    assert np.abs(got - reference_score_tails(table, h, r, tails)).max() < 1e-9

    for run in (
        lambda: enc.encode(*seqs),
        lambda: model.classify(*examples[0][:2]),
        lambda: model.accuracy(examples),
    ):
        assert graph_nodes_while(run) == (0, 0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_ops_on_arrays_equal_their_node_path(blocks, width, heads, dh, seed, training):
    # each op a forward runs, given plain arrays, returns a plain array with
    # the bytes of the value it gives over constant nodes of those arrays
    rng = np.random.default_rng(seed)
    d = heads * dh
    x = rng.normal(size=(blocks * width, d))
    weights = [rng.normal(size=(d, dh)) for _ in range(3 * heads)]
    lens = rng.integers(1, width + 1, size=blocks)
    real = np.arange(width) < lens[:, None]
    w1, b1 = rng.normal(size=(d, 5)), rng.normal(size=(1, 5))
    w2, b2 = rng.normal(size=(5, d)), rng.normal(size=(1, d))
    matrix, idx = rng.normal(size=(7, d)), rng.integers(-7, 7, size=blocks * width)
    eh, eq = rng.normal(size=(blocks, 2 * d)), rng.normal(size=(blocks, 2 * d))
    ops = {
        "rows": lambda w: ad.rows(w(matrix), idx),
        "add": lambda w: ad.add(w(x), w(b2)),
        "matmul": lambda w: ad.matmul(w(x), w(w1)),
        "block_attention": lambda w: ad.block_attention(
            w(x), [w(a) for a in weights], np.where(real, 0.0, -np.inf), blocks
        ),
        "feed_forward": lambda w: ad.feed_forward(w(x), w(w1), w(b1), w(w2), w(b2)),
        "block_pool": lambda w: ad.block_pool(w(x), real / lens[:, None]),
        "dropout": lambda w: ad.dropout(w(x), 0.5, np.random.default_rng(seed), training),
        "fuse": lambda w: fuse(eh, w(eq)),
    }
    for name, op in ops.items():
        node, out = op(ad.constant), []
        assert graph_nodes_while(lambda: out.append(op(lambda a: a))) == (0, 0), name
        got = out[0]
        assert isinstance(node, ad.Node) and type(got) is np.ndarray, name
        assert got.shape == node.value.shape and got.tobytes() == node.value.tobytes(), name


def test_answering_builds_no_graph(monkeypatch):
    # the norshteyn toy with briefly trained embeddings, classifier and
    # ranker: enough to run every model at answer time
    kg, questions = norshteyn_kg(), norshteyn_questions()
    table, _ = train(kg, EmbedTrainConfig(d=8, epochs=5, seed=0), "transe")
    clf_data = [
        (tokenize_question(q.question), kg.entities.id_of(q.topic_entity), label_question(q, TAX))
        for q in questions
    ]
    clf = train_classifier(clf_data, table, TAX, ClassifierTrainConfig(epochs=3, d_model=8, seed=0))
    rank_data = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    ranker = train_ranker(
        rank_data, kg, TAX, RankTrainConfig(epochs=2, negatives=4, out_dim=8, ff_width=16)
    )
    cfg = PipelineConfig(kg=kg, taxonomy=TAX, ranker=ranker, classifier=clf, mode="predicted")
    for mode in MODES:
        ranked, classified = count_forwards(ranker.encoder), count_forwards(clf.encoder)
        assert graph_nodes_while(lambda: evaluate(replace(cfg, mode=mode), questions)) == (0, 0), mode
        assert ranked and bool(classified) == (mode == "predicted"), mode  # the models ran

    # the count sees an entry point that runs the recorded forward
    monkeypatch.setattr(SequenceEncoder, "encode", lambda self, *seqs: self.forward(*seqs, training=True).value)
    _, with_parents = graph_nodes_while(lambda: evaluate(cfg, questions))
    assert with_parents > 0
