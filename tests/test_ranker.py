import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import count_blocks, count_forwards, triplet_loss
from reference import (
    reference_add,
    reference_batch_triplet_loss,
    reference_build_training_triplets,
    reference_constant,
    reference_relu,
    reference_rownorm,
    reference_scale,
    reference_score_all,
    reference_sub,
    reference_train_ranker,
)
from sskgqa import autodiff as ad
from sskgqa import encoder as encoder_module
from sskgqa import ranker as ranker_module
from sskgqa.checkpoint import CheckpointError
from sskgqa.encoder import ENCODE_CHUNK, MAX_TOKENS, EncoderConfig, SequenceEncoder, Vocab
from sskgqa.kg import build_kg
from sskgqa.optim import NonFiniteGradientError
from sskgqa.pipeline import gold_graph_of, tokenize_question
from sskgqa.querygraph import CLS, SEP, Chain, build_chain, canonicalize, execute, serialize_tokens, split_symbol
from sskgqa.ranker import (
    RankerError,
    RankerModel,
    RankTrainConfig,
    TokenOverlapRanker,
    build_training_triplets,
    load_ranker,
    rank_candidates,
    save_ranker,
    train_ranker,
)
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import (
    norshteyn_kg,
    norshteyn_questions,
    norshteyn_test_question,
    ranker_fixture,
    three_hop_benchmark,
)


def test_triplet_loss_hand_values():
    q = np.array([0.0, 0.0])
    p = np.array([3.0, 4.0])  # dist 5
    n = np.array([6.0, 8.0])  # dist 10
    assert triplet_loss(q, p, n, alpha=1.0) == pytest.approx(0.0)  # 5 - 10 + 1 < 0
    assert triplet_loss(q, p, n, alpha=6.0) == pytest.approx(1.0)
    assert triplet_loss(q, n, p, alpha=1.0) == pytest.approx(6.0)  # 10 - 5 + 1
    assert triplet_loss(q, p, p, alpha=2.5) == pytest.approx(2.5)


def test_config_validation():
    nan = float("nan")
    for name, value in [
        ("margin", 0.0), ("margin", nan), ("negatives", 0), ("lr", -1.0), ("lr", 0.0), ("lr", nan),
        ("epochs", 0), ("epochs", -3),
        # encoder settings, refused by the EncoderConfig the config builds
        ("heads", 5), ("dropout", 1.5), ("dropout", nan), ("ff_width", 0), ("out_dim", 0),
    ]:
        with pytest.raises(ValueError, match=f"{name} must"):
            RankTrainConfig(**{name: value})


def test_train_ranker_builds_its_encoder_from_the_config():
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(epochs=1, heads=2, ff_width=5, out_dim=3, dropout=0.25)
    assert cfg.encoder == EncoderConfig(out_dim=3, d_model=24, heads=2, ff_width=5, use_attention=True, dropout=0.25)
    assert train_ranker(dataset, kg, builtin_taxonomy(), cfg).encoder.cfg is cfg.encoder


def test_token_overlap_ranker_jaccard():
    r = TokenOverlapRanker()
    g = build_chain("paris", [("located_in", False)])
    toks = ["[CLS]", "paris", "located", "in", "what", "[SEP]"]
    score = r.score_all(toks, [g])[0]
    # graph tokens: [CLS] paris located in x [SEP]; overlap 5, union 7
    assert score == pytest.approx(5.0 / 7.0)


def test_rank_candidates_order_and_tiebreak():
    r = TokenOverlapRanker()
    g1 = build_chain("a", [("match_me", False)])
    g2 = build_chain("a", [("other", False)])
    toks = ["a", "match", "me"]
    ranked = rank_candidates(r, toks, [g2, g1])
    assert canonicalize(ranked[0]) == canonicalize(g1)
    # equal scores fall back to ascending canonical string
    ga = build_chain("a", [("r1", False)])
    gb = build_chain("a", [("r2", False)])
    ranked = rank_candidates(r, ["unrelated"], [gb, ga])
    keys = [canonicalize(g) for g in ranked]
    assert keys == sorted(keys)


class FixedScores:
    def __init__(self, scores):
        self.scores = scores

    def score_all(self, question_tokens, cands):
        return list(self.scores)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_rank_candidates_keys_only_ties(levels, random):
    cands = [build_chain("a", [(f"r{i}", False)]) for i in range(len(levels))]
    random.shuffle(cands)
    scores = [level / 4 for level in levels]  # repeated levels tie
    full = sorted(zip(scores, [canonicalize(g) for g in cands], cands), key=lambda x: (-x[0], x[1]))
    calls = []

    def counting(g):
        calls.append(g)
        return canonicalize(g)

    ranker_module.canonicalize, saved = counting, ranker_module.canonicalize
    try:
        ranked = rank_candidates(FixedScores(scores), ["q"], cands)
    finally:
        ranker_module.canonicalize = saved
    assert ranked == [g for _, _, g in full]
    tied = sum(1 for s in scores if scores.count(s) > 1)
    assert len(calls) == tied  # no key for a candidate whose score is unique


def test_rank_candidates_empty():
    with pytest.raises(RankerError):
        rank_candidates(TokenOverlapRanker(), ["q"], [])


def test_build_training_triplets():
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(negatives=3)
    triplets = build_training_triplets(dataset, kg, cfg, np.random.default_rng(0))
    assert len(triplets) == len(questions)
    for q_toks, pos_toks, neg_lists in triplets:
        assert 1 <= len(neg_lists) <= 3
        assert pos_toks not in neg_lists  # gold never sampled as negative


def test_build_training_triplets_skips_singletons():
    kg = build_kg([("a", "r", "b")])
    gold = build_chain("a", [("r", False)])
    cfg = RankTrainConfig()
    triplets = build_training_triplets(
        [(["q"], gold)], kg, cfg, np.random.default_rng(0)
    )
    assert triplets == []  # only candidate is the gold graph


def test_build_training_triplets_skips_long_gold_quickly():
    # a 12-node chain extracted from SPARQL matches no candidate's structure,
    # so it is skipped after one walk of gold
    from time import perf_counter

    from sskgqa.querygraph import extract_query_graph, parse_sparql

    names = [":a"] + [f"?v{i}" for i in range(1, 11)] + ["?x"]
    patterns = " ".join(f"{s} :r {o} ." for s, o in zip(names, names[1:]))
    gold = extract_query_graph(parse_sparql(f"SELECT ?x WHERE {{ {patterns} }}"), "a")
    assert len(gold.hops) == 11 and not gold.constraints
    kg = build_kg([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    t0 = perf_counter()
    triplets = build_training_triplets([(["q"], gold)], kg, RankTrainConfig(), np.random.default_rng(0))
    assert triplets == []
    assert perf_counter() - t0 < 1.0


def test_train_ranker_skips_gold_with_answer_behind_constraint():
    # from thing0 the answer lies behind the constant val0_0, so there is no
    # chain; from val0_0 the gold is one hop with thing0 a constraint on the
    # topic, a shape no candidate has. That record is skipped, the others
    # train. So is a gold whose topic entity zz is not in the KG.
    from sskgqa.querygraph import QueryGraphError, extract_query_graph, parse_sparql

    kg, questions = ranker_fixture()
    ast = parse_sparql("SELECT ?x WHERE { :thing0 :color :val0_0 . ?x :shape :val0_0 . }")
    with pytest.raises(QueryGraphError):
        extract_query_graph(ast, "thing0")
    bad = extract_query_graph(ast, "val0_0")
    assert bad.shape == (1, (0,))
    stray = extract_query_graph(parse_sparql("SELECT ?x WHERE { :zz :r ?x . }"), "zz")
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    mixed = dataset[:2] + [(["q"], bad)] + dataset[2:4] + [(["q"], stray)] + dataset[4:]
    cfg = RankTrainConfig(epochs=1, dropout=0.0, out_dim=8, ff_width=16, seed=0)
    want = build_training_triplets(dataset, kg, cfg, np.random.default_rng(0))
    assert len(want) == len(dataset)
    assert build_training_triplets(mixed, kg, cfg, np.random.default_rng(0)) == want
    train_ranker(mixed, kg, builtin_taxonomy(), cfg)


def train_fixture_model(epochs=25):
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(
        epochs=epochs, lr=1e-2, dropout=0.0, out_dim=16, ff_width=48, seed=0
    )
    return kg, questions, train_ranker(dataset, kg, builtin_taxonomy(), cfg)


def test_train_ranker_ranks_gold_first():
    kg, questions, model = train_fixture_model()
    from sskgqa.candidates import EnumConfig, enumerate_candidates

    hits = 0
    for q in questions:
        cands = enumerate_candidates(kg, q.topic_entity, EnumConfig(max_hops=1)).graphs
        best = rank_candidates(model, tokenize_question(q.question), cands)[0]
        answers = {kg.entities.symbol_of(a) for a in execute(best, kg)}
        hits += bool(answers & set(q.answers))
    assert hits == len(questions)


def test_score_all_single_pass_encoding():
    kg, questions, model = train_fixture_model(epochs=1)
    from sskgqa.candidates import EnumConfig, enumerate_candidates

    cands = enumerate_candidates(kg, "thing0", EnumConfig(max_hops=1)).graphs
    calls = count_forwards(model.encoder)
    model.score_all(["what", "color"], cands)
    assert calls == [1 + len(cands)]


def test_score_all_across_chunks(monkeypatch):
    kg, questions, model = train_fixture_model(epochs=1)
    from sskgqa.candidates import EnumConfig, enumerate_candidates

    cands = enumerate_candidates(kg, "thing0", EnumConfig(max_hops=2)).graphs
    q = ["what", "color"]
    single = [model.score_all(q, [g])[0] for g in cands]
    monkeypatch.setattr(encoder_module, "ENCODE_CHUNK", 4)
    assert len(cands) + 1 > 2 * 4
    blocks = count_blocks(monkeypatch)
    assert np.allclose(model.score_all(q, cands), single, rtol=0.0, atol=1e-10)
    n = 1 + len(cands)
    assert blocks == [min(4, n - i) for i in range(0, n, 4)]


def test_batch_triplet_loss_matches_per_negative_form():
    rng = np.random.default_rng(3)
    vocab = Vocab([f"w{i}" for i in range(8)])
    enc = SequenceEncoder(vocab, EncoderConfig(out_dim=4, d_model=6, heads=3, ff_width=8), rng)
    params = enc.parameters()
    for _ in range(20):
        seqs = [vocab.encode([f"w{t}" for t in rng.integers(9, size=rng.integers(1, 7))]) for _ in range(5)]
        alpha = float(rng.uniform(0.0, 3.0))

        def grads_of(loss):
            for p in params:
                p.grad = None
            ad.backward(loss)
            return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]

        batched = ranker_module.triplet_hinge(enc.forward(*seqs, training=True), alpha)
        got = grads_of(batched)
        f_q, f_p, *f_n = (enc.forward(s, training=True) for s in seqs)
        terms = [
            reference_relu(
                reference_add(
                    reference_sub(reference_rownorm(reference_sub(f_q, f_p)), reference_rownorm(reference_sub(f_q, n))),
                    reference_constant([[alpha]]),
                )
            )
            for n in f_n
        ]
        total = terms[0]
        for t in terms[1:]:
            total = reference_add(total, t)
        single = reference_scale(total, 1.0 / len(terms))
        want = grads_of(single)
        assert abs(batched.value[0, 0] - single.value[0, 0]) < 1e-10
        for g, w in zip(got, want):
            assert np.abs(g - w).max() < 1e-10


def test_checkpoint_round_trip(tmp_path):
    kg, questions, model = train_fixture_model(epochs=2)
    path = str(tmp_path / "rank.ckpt")
    save_ranker(model, path)
    back = load_ranker(path)
    # each parameter in its own place: a swap of two same-shape ones would
    # re-save the same bytes
    assert [p.value.tobytes() for p in back.encoder.parameters()] == [
        p.value.astype(np.float32).astype(np.float64).tobytes() for p in model.encoder.parameters()
    ]
    g = gold_graph_of(questions[0])
    toks = tokenize_question(questions[0].question)
    assert back.score_all(toks, [g]) == pytest.approx(model.score_all(toks, [g]), abs=1e-5)
    again = str(tmp_path / "again.ckpt")
    save_ranker(back, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
def test_checkpoint_refuses_a_parameter_float32_cannot_hold(tmp_path, bad):
    # 1e300 is finite in float64 and inf in float32; no file is written
    _, _, model = train_fixture_model(epochs=1)
    model.encoder.params["proj"].value[0, 0] = bad
    path = tmp_path / "rank.ckpt"
    with pytest.raises(CheckpointError, match="nan, inf or beyond float32's range"):
        save_ranker(model, str(path))
    assert not path.exists()


# Symbols that share fragments ("located" and "in"), one of separators only,
# and fragments outside FRAGMENTS, which map to the OOV row.
SYMBOLS = ["located_in", "located.in", "in", "big city", "big-city_located", "._-", "unseen_word", "x"]
FRAGMENTS = [CLS, SEP, "located", "in", "big", "city", "x", "y", "c", "reverse", "what"]


@st.composite
def chains(draw):
    """A chain of 1-3 hops over SYMBOLS, each hop maybe reversed, with 0-2
    constraints on any path node, each maybe read against its triple."""
    sym = st.sampled_from(SYMBOLS)
    hops = tuple(draw(st.lists(st.tuples(sym, st.booleans()), min_size=1, max_size=3)))
    cons = draw(st.lists(st.tuples(st.integers(0, len(hops)), sym, st.booleans(), sym), max_size=2))
    return Chain(draw(sym), hops, tuple(sorted(cons, key=lambda c: c[0])))


@settings(max_examples=200, deadline=None)
@given(chains())
def test_serialize_tokens_with_a_tuple_split_equals_default(c):
    asked = []

    def split(symbol):
        asked.append(symbol)
        return tuple(split_symbol(symbol))

    assert serialize_tokens(c, split=split) == serialize_tokens(c)
    assert asked == [c.topic, *(rel for rel, _ in c.hops), *(s for _, rel, _, v in c.constraints for s in (rel, v))]


def random_ranker(seed: int) -> RankerModel:
    cfg = EncoderConfig(out_dim=8, d_model=12, heads=3, ff_width=16, dropout=0.5)
    return RankerModel(SequenceEncoder(Vocab(FRAGMENTS), cfg, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(chains(), min_size=1, max_size=12),
    st.integers(1, 300),
    st.lists(st.sampled_from(FRAGMENTS + ["unseen"]), min_size=1, max_size=8),
    st.integers(0, 3),
)
def test_score_all_bytes_equal_token_path(distinct, count, question, seed):
    # `count` candidates cycle through the distinct chains; more than
    # ENCODE_CHUNK of them take two forwards
    cands = [distinct[i % len(distinct)] for i in range(count)]
    model = random_ranker(seed)
    got = np.array(model.score_all(question, cands))
    want = np.array(reference_score_all(model, question, cands))
    assert got.tobytes() == want.tobytes()


def test_score_all_bytes_equal_token_path_over_two_chunks():
    cands = [build_chain("big city", [("located_in", i % 2 == 0)]) for i in range(ENCODE_CHUNK + 3)]
    model = random_ranker(0)
    got = np.array(model.score_all(["what", "x"], cands))
    assert got.tobytes() == np.array(reference_score_all(model, ["what", "x"], cands)).tobytes()


def test_score_all_bytes_equal_token_path_past_max_tokens():
    # a topic of 70 fragments serializes past the MAX_TOKENS ids the encoder
    # reads, so those candidates differ only past the cut and score alike
    words = ["located", "in", "big", "city", "x"]
    topic = "_".join(words[i % len(words)] for i in range(70))
    topics = (topic, topic + "_what", "big city")
    cands = [build_chain(t, [("located_in", back)]) for t in topics for back in (False, True)]
    assert len(serialize_tokens(cands[0])) > MAX_TOKENS > len(serialize_tokens(cands[-1]))
    model = random_ranker(1)
    question = ["what", "city"] * 40
    got = np.array(model.score_all(question, cands))
    assert got.tobytes() == np.array(reference_score_all(model, question, cands)).tobytes()
    assert len(set(got[:4])) == 1 and got[4] != got[0]


def test_train_ranker_bytes_equal_per_step_mapping():
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(epochs=2, negatives=5, lr=1e-2, dropout=0.2, out_dim=8, ff_width=16, seed=3)
    got = train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    want = reference_train_ranker(dataset, kg, cfg)
    assert got.encoder.vocab.tokens == want.encoder.vocab.tokens
    assert [p.value.tobytes() for p in got.encoder.parameters()] == [
        p.value.tobytes() for p in want.encoder.parameters()
    ]


def toy_datasets():
    """(kg, ranker dataset) of each README toy: the gold chain of every
    question that has one."""
    for kg, questions in (
        ranker_fixture(),
        three_hop_benchmark(30, seed=4),
        (norshteyn_kg(), norshteyn_questions() + [norshteyn_test_question()]),
    ):
        golds = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
        yield kg, [(t, g) for t, g in golds if g is not None]


@pytest.mark.parametrize("negatives", [1, 3, 100])
def test_build_training_triplets_equal_canonical_key_filter(negatives):
    for kg, dataset in toy_datasets():
        cfg = RankTrainConfig(negatives=negatives)
        got = build_training_triplets(dataset, kg, cfg, np.random.default_rng(negatives))
        want = reference_build_training_triplets(dataset, kg, cfg, np.random.default_rng(negatives))
        assert got == want


def test_triplet_loss_goes_through_the_fused_op(monkeypatch):
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    calls, fused = [], ranker_module.triplet_hinge

    def counting(f, alpha):
        calls.append((f.shape[0], alpha))
        return fused(f, alpha)

    monkeypatch.setattr(ranker_module, "triplet_hinge", counting)
    cfg = RankTrainConfig(epochs=2, negatives=3, margin=0.5, out_dim=4, ff_width=8)
    train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    # one loss node per question and epoch, over the question, its positive
    # and its 3 negatives
    assert calls == [(5, 0.5)] * (2 * len(dataset))


def test_flat_hinge_steps_train_bytes_equal_to_always_backpropagating(monkeypatch):
    # over 10 epochs some steps have every negative beyond the margin, so
    # their loss has no backward and the step skips clipping;
    # the composed chain always backpropagates, and the parameters must
    # still come out with the same bits
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(epochs=10, negatives=4, margin=0.5, dropout=0.3, out_dim=8, ff_width=16, seed=5)
    counts, fused = {"flat": 0, "backprop": 0}, ranker_module.triplet_hinge

    def spying(f, alpha):
        loss = fused(f, alpha)
        counts["flat" if loss._backward is None else "backprop"] += 1
        return loss

    monkeypatch.setattr(ranker_module, "triplet_hinge", spying)
    got = train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    assert counts["flat"] > 0 and counts["backprop"] > 0, counts
    monkeypatch.setattr(ranker_module, "triplet_hinge", reference_batch_triplet_loss)
    want = train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    assert [p.value.tobytes() for p in got.encoder.parameters()] == [
        p.value.tobytes() for p in want.encoder.parameters()
    ]


def test_nan_in_the_encoder_still_stops_training(monkeypatch):
    # a nan row for thing0, a token of every sequence of question 0's batch
    # and of no other, makes each hinge term of that batch nan: none is
    # active, but the loss keeps its backward, so the gradient check refuses
    # the step
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]

    class PoisonedEncoder(SequenceEncoder):
        def __init__(self, vocab, cfg, rng):
            super().__init__(vocab, cfg, rng)
            self.params["tok_emb"].value[vocab.encode(["thing0"])[0]] = np.nan

    monkeypatch.setattr(ranker_module, "SequenceEncoder", PoisonedEncoder)
    cfg = RankTrainConfig(epochs=2, negatives=4, out_dim=8, ff_width=16, seed=5)
    with pytest.raises(NonFiniteGradientError):
        train_ranker(dataset, kg, builtin_taxonomy(), cfg)


def test_train_ranker_bytes_equal_composed_loss_and_key_filter(monkeypatch):
    kg, questions = ranker_fixture()
    dataset = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    cfg = RankTrainConfig(epochs=2, negatives=4, lr=1e-2, dropout=0.3, out_dim=8, ff_width=16, seed=5)
    got = train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    monkeypatch.setattr(ranker_module, "triplet_hinge", reference_batch_triplet_loss)
    monkeypatch.setattr(ranker_module, "build_training_triplets", reference_build_training_triplets)
    want = train_ranker(dataset, kg, builtin_taxonomy(), cfg)
    assert got.trained_on == want.trained_on == len(dataset)
    assert got.encoder.vocab.tokens == want.encoder.vocab.tokens
    assert [p.value.tobytes() for p in got.encoder.parameters()] == [
        p.value.tobytes() for p in want.encoder.parameters()
    ]
