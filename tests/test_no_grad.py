"""Inference runs under autodiff.no_grad: the same values as the recorded
forward, bit for bit, and no backward graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import score_tails
from reference import reference_mul, reference_score_tails, reference_softmax
from sskgqa import autodiff as ad
from sskgqa.annotation import label_question
from sskgqa.classifier import ClassifierModel, ClassifierTrainConfig, train_classifier
from sskgqa.embeddings import KINDS, EmbeddingTable, EmbedTrainConfig, score_nodes, train
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.optim import AdamW, ParameterBuffer, train_step
from sskgqa.pipeline import PipelineConfig, evaluate, gold_graph_of, tokenize_question
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import norshteyn_kg, norshteyn_questions

TAX = builtin_taxonomy()
OUT_DIM = 4  # even: the classifier fuses with a complex product
N_ENT, N_REL = 5, 2


def records() -> bool:
    """Whether an op run now keeps its inputs for backward."""
    c = ad.constant(np.ones((1, 2)))
    return ad.add(c, c).parents == (c, c)


def nest(depth: int, raise_at: int | None) -> None:
    """Enter no_grad `depth` times, raising KeyError at level `raise_at`."""
    if depth == 0:
        return
    with ad.no_grad():
        assert not records()
        if raise_at == depth:
            raise KeyError(depth)
        nest(depth - 1, raise_at)
        assert not records()


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
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(1, 3)),
)
def test_no_grad_inference_equals_recorded_forward(
    use_attention, heads, seed, examples, kind, h, r, depth, raise_at
):
    enc = make_encoder(use_attention, heads, seed)
    seqs = [enc.vocab.encode(toks) for toks, _, _ in examples]
    recorded = enc.forward(*seqs)
    assert recorded.parents  # outside no_grad the forward keeps its graph
    assert np.array_equal(enc.encode(*seqs), recorded.value)

    rng = np.random.default_rng(seed)
    table = EmbeddingTable(kind, rng.normal(size=(N_ENT, OUT_DIM)), rng.normal(size=(N_REL, OUT_DIM)))
    model = ClassifierModel(enc, table, TAX, rng)
    for (toks, topic, _), ids in zip(examples, seqs):
        want = reference_softmax(model._logits([ids], [topic])).value[0]
        assert np.array_equal(model.classify(toks, topic), want)
    best = np.argmax(model._logits(seqs, [t for _, t, _ in examples]).value, axis=1)
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
        lambda: score_tails(table, h, r, tails),
    ):
        created, with_parents = graph_nodes_while(run)
        assert created > 0 and with_parents == 0

    if raise_at is not None and raise_at <= depth:
        with pytest.raises(KeyError):
            nest(depth, raise_at)
    else:
        nest(depth, None)
    assert records()


def test_no_grad_keeps_leaves_usable():
    # constants and parameters made under no_grad are ordinary leaves
    with ad.no_grad():
        p = ad.parameter(np.array([[2.0]]))
        c = ad.constant(np.array([[3.0]]))
    ad.backward(reference_mul(p, c))
    assert np.array_equal(p.grad, [[3.0]])


def test_train_step_refuses_no_grad_output():
    enc = make_encoder(use_attention=True, heads=3, seed=0)
    params = enc.parameters()
    before = [p.value.copy() for p in params]
    buffer = ParameterBuffer(params)
    opt = AdamW(lr=0.1)
    with ad.no_grad():
        out = enc.forward([1, 2], [3])  # ids of a, b and c
        built_inside = ad.sum_all(reference_mul(out, out))
    built_outside = ad.sum_all(reference_mul(out, out))  # recorded, but reaches `out`
    for loss in (built_inside, built_outside):
        with pytest.raises(ad.ContractError):
            train_step(opt, buffer, loss)
    assert opt.step_count == 0
    assert all(np.array_equal(p.value, b) for p, b in zip(params, before))
    assert all(p.grad is None for p in params)


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

    created, with_parents = graph_nodes_while(lambda: evaluate(cfg, questions))
    assert created > 0  # the classifier and the ranker ran
    assert with_parents == 0

    # the check fires when one entry point forgets no_grad
    monkeypatch.setattr(SequenceEncoder, "encode", lambda self, *seqs: self.forward(*seqs).value)
    _, with_parents = graph_nodes_while(lambda: evaluate(cfg, questions))
    assert with_parents > 0
