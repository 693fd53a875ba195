"""Inference builds no node: the encoder's and the classifier's inference
forwards run on plain arrays and give the training forward's values, bit
for bit; and the encoder's training forward is one node whose value and
gradients are those of the chain of nodes it replaced."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixtures import class_probabilities, count_forwards, graph_nodes_while, score_tails
from reference import (
    reference_add,
    reference_constant,
    reference_encoder_forward,
    reference_fuse,
    reference_matmul,
    reference_score_tails,
    reference_softmax,
)
from sskgqa import autodiff as ad
from sskgqa.annotation import label_question
from sskgqa.classifier import ClassifierModel, ClassifierTrainConfig, train_classifier
from sskgqa.embeddings import KINDS, EmbeddingTable, EmbedTrainConfig, score_nodes, train
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.pipeline import MODES, PipelineConfig, evaluate, gold_graph_of, tokenize_question
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import norshteyn_kg, norshteyn_questions

TAX = builtin_taxonomy()
OUT_DIM = 4  # even: the classifier fuses with a complex product
N_ENT, N_REL = 5, 2


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
    assert recorded._backward is not None  # the training forward is a node with a backward
    assert np.array_equal(enc.forward(*seqs), recorded.value)

    rng = np.random.default_rng(seed)
    table = EmbeddingTable(kind, rng.normal(size=(N_ENT, OUT_DIM)), rng.normal(size=(N_REL, OUT_DIM)))
    model = ClassifierModel(enc, table, TAX, rng)

    def chain_logits(ids, topics):
        # the training forward, then the head as the chain of nodes
        with dropout_off(enc):
            eq = enc.forward(*ids, training=True)
        return reference_add(reference_matmul(reference_fuse(table.lookup_entities(topics), eq), model.w), model.b)

    wants = [reference_softmax(chain_logits([ids], [t])).value[0] for (_, t, _), ids in zip(examples, seqs)]
    logits = chain_logits(seqs, [t for _, t, _ in examples]).value
    for (toks, topic, _), want in zip(examples, wants):
        assert np.array_equal(class_probabilities(model, toks, topic), want)
    best = np.argmax(logits, axis=1)
    hits = sum(model.labels[j] == label for j, (_, _, label) in zip(best, examples))
    assert model.accuracy(examples) == hits / len(examples)

    tails = np.arange(N_ENT)
    got = score_tails(table, h, r, tails)
    node = score_nodes(
        reference_constant(table.ent), reference_constant(table.rel), kind, np.full(N_ENT, h), np.full(N_ENT, r), tails
    )
    assert np.array_equal(got, node.value[:, 0])
    assert np.abs(got - reference_score_tails(table, h, r, tails)).max() < 1e-9

    for run in (
        lambda: enc.forward(*seqs),
        lambda: class_probabilities(model, *examples[0][:2]),
        lambda: model.accuracy(examples),
    ):
        assert graph_nodes_while(run) == (0, 0)


@st.composite
def encoder_cases(draw):
    """An encoder config, id sequences of differing lengths (id 0 is the
    OOV bucket), a dropout seed and the gradient that reaches the output."""
    use_attention, heads, dh = draw(st.booleans()), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cfg = EncoderConfig(
        out_dim=OUT_DIM, d_model=heads * dh, heads=heads, ff_width=draw(st.integers(1, 8)),
        use_attention=use_attention, dropout=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )
    seqs = draw(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=9), min_size=1, max_size=6))
    g = draw(arrays(np.float64, (len(seqs), OUT_DIM), elements=st.floats(-1e6, 1e6)))
    return cfg, seqs, draw(st.integers(0, 2**16)), g


def backward_from(out: ad.Node, g: np.ndarray) -> None:
    """Backpropagate the output gradient g from `out`."""
    ad.backward(ad.Node(np.zeros((1, 1)), lambda _: out.accumulate(g)))


@settings(max_examples=300, deadline=None)
@given(encoder_cases())
def test_encoder_node_bytes_equal_the_chain(case):
    # the one node of the training forward against the tape of the chain of
    # row gather, per-head attention, matmul, add, feed-forward, pooling,
    # dropout and projection nodes, with equal dropout draws
    cfg, seqs, seed, g = case
    enc = SequenceEncoder(Vocab(["a", "b", "c", "d"]), cfg, np.random.default_rng(seed))
    runs = []
    for forward in (SequenceEncoder.forward, reference_encoder_forward):
        for p in enc.parameters():
            p.grad = None
        out = forward(enc, *seqs, training=True, rng=np.random.default_rng(seed))
        backward_from(out, g)
        runs.append([out.value.tobytes()] + [p.grad.tobytes() for p in enc.parameters()])
    assert runs[0] == runs[1]


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

    # the count sees an entry point that runs the recorded forward; the
    # instance is patched, as count_forwards put its spy there
    encoder = ranker.encoder
    monkeypatch.setattr(
        encoder, "forward", lambda *seqs: SequenceEncoder.forward(encoder, *seqs, training=True).value
    )
    _, with_backward = graph_nodes_while(lambda: evaluate(cfg, questions))
    assert with_backward > 0
