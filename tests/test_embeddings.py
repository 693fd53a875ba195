import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sskgqa import autodiff as ad
from sskgqa import embeddings as emb_module
from sskgqa.checkpoint import CheckpointError
from sskgqa.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    EmbedTrainConfig,
    init_table,
    load_table,
    margin_loss,
    save_table,
    score_nodes,
    train,
)
from sskgqa.kg import build_kg

from fixtures import degree_kg, filtered_mrr, score_tails
from reference import (
    reference_add,
    reference_constant,
    reference_margin_loss,
    reference_mul,
    reference_score_nodes,
    reference_score_tails,
    reference_sum_all,
)


def cycle_kg(n=12):
    ents = [f"e{i}" for i in range(n)]
    triples = [(ents[i], "next", ents[(i + 1) % n]) for i in range(n)]
    triples += [(ents[i], "skip", ents[(i + 2) % n]) for i in range(n)]
    return build_kg(triples)


def test_config_validation():
    nan = float("nan")
    for name, value in [("d", 0), ("negatives", 0), ("epochs", -1), ("lr", 0.0), ("lr", -1.0),
                        ("lr", nan), ("margin", 0.0), ("margin", -6.0), ("margin", nan)]:
        with pytest.raises(ValueError, match="must be positive"):
            EmbedTrainConfig(**{name: value})
    EmbedTrainConfig(epochs=0)


def test_table_validation():
    with pytest.raises(EmbeddingError):
        EmbeddingTable("bogus", np.zeros((2, 4)), np.zeros((1, 4)))
    with pytest.raises(EmbeddingError):
        EmbeddingTable("complex", np.zeros((2, 5)), np.zeros((1, 5)))
    with pytest.raises(EmbeddingError):
        init_table("transe", 3, 1, 4, 0).lookup_entities([0, 5])
    with pytest.raises(EmbeddingError):
        init_table("transe", 3, 1, 4, 0).lookup_entities([-1])


def test_transe_score_translation_exact():
    # h + r == t gives score 0, the maximum
    ent = np.array([[1.0, 2.0], [3.0, 5.0], [0.0, 0.0]])
    rel = np.array([[2.0, 3.0]])
    table = EmbeddingTable("transe", ent, rel)
    at_t, off_t = score_tails(table, 0, 0, np.array([1, 2]))
    assert at_t == pytest.approx(0.0)
    assert off_t < 0.0


def test_complex_score_matches_complex_arithmetic():
    rng = np.random.default_rng(4)
    ent = rng.normal(size=(3, 6))
    rel = rng.normal(size=(2, 6))
    table = EmbeddingTable("complex", ent, rel)
    z = lambda v: v[:3] + 1j * v[3:]
    # packed layout contracts h*r against the tail components directly
    hr = z(ent[0]) * z(rel[1])
    expected = float(np.sum(hr.real * ent[2][:3] + hr.imag * ent[2][3:]))
    assert score_tails(table, 0, 1, np.array([2]))[0] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("kind", ["transe", "complex"])
def test_score_nodes_matches_table(kind):
    # random tables against the numpy formulas
    rng = np.random.default_rng(5)
    for n_ent, n_rel, d in [(6, 2, 8), (30, 5, 16)]:
        table = EmbeddingTable(kind, rng.normal(size=(n_ent, d)), rng.normal(size=(n_rel, d)))
        tails = np.arange(n_ent)
        for h in range(n_ent):
            for r in range(n_rel):
                want = reference_score_tails(table, h, r, tails)
                node = score_nodes(
                    ad.parameter(table.ent), ad.parameter(table.rel), kind,
                    np.full(n_ent, h), np.full(n_ent, r), tails,
                )
                assert np.abs(node.value[:, 0] - want).max() < 1e-9
                assert np.abs(score_tails(table, h, r, tails) - want).max() < 1e-9


@pytest.mark.parametrize("kind", ["transe", "complex"])
def test_score_nodes_gradients_finite_diff(kind):
    kg = cycle_kg(5)
    table = init_table(kind, kg.num_entities, kg.num_relations, 6, seed=2)
    h = np.array([0, 1])
    r = np.array([0, 1])
    t = np.array([2, 3])

    def loss_of(ent_val):
        node = score_nodes(
            ad.parameter(ent_val), ad.parameter(table.rel), kind, h, r, t
        )
        return float(reference_sum_all(node).value[0, 0])

    ent = ad.parameter(table.ent)
    loss = reference_sum_all(score_nodes(ent, ad.parameter(table.rel), kind, h, r, t))
    ad.backward(loss)
    eps = 1e-6
    for idx in [(0, 0), (1, 3), (2, 5), (3, 1)]:
        plus = table.ent.copy()
        plus[idx] += eps
        minus = table.ent.copy()
        minus[idx] -= eps
        num = (loss_of(plus) - loss_of(minus)) / (2 * eps)
        assert ent.grad[idx] == pytest.approx(num, abs=1e-5)


def score_case(n_ent, n_rel, d, table_kind, seed):
    """Entity and relation values for score_nodes. "normal" values are drawn
    freely; "grid" values hold few distinct numbers, so scores tie and some
    TransE differences are zero; "zero_rel" has zero relations, so a TransE
    triple whose head is its tail is at distance zero; "zeros" is all zero."""
    rng = np.random.default_rng(seed)
    if table_kind == "zeros":
        return np.zeros((n_ent, d)), np.zeros((n_rel, d))
    if table_kind == "grid":
        return rng.integers(-1, 2, size=(n_ent, d)) * 0.5, rng.integers(-1, 2, size=(n_rel, d)) * 0.5
    ent, rel = rng.normal(size=(n_ent, d)), rng.normal(size=(n_rel, d))
    if table_kind == "zero_rel":
        rel[:] = 0.0
    return ent, rel


@st.composite
def score_sides(draw, n_ent, n_rel):
    """(h, r, t) index arrays of one side: random rows, one row repeated,
    or every head its own tail."""
    n = draw(st.integers(1, 12))
    ids = lambda size: st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    shape = draw(st.sampled_from(["random", "repeated", "head_is_tail"]))
    if shape == "repeated":
        h, r, t = ([draw(st.integers(0, size - 1))] * n for size in (n_ent, n_rel, n_ent))
    else:
        h, r, t = draw(ids(n_ent)), draw(ids(n_rel)), draw(ids(n_ent))
    if shape == "head_is_tail":
        t = h
    return tuple(np.array(i) for i in (h, r, t))


@st.composite
def score_graphs(draw):
    n_ent, n_rel = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    sides = draw(st.lists(score_sides(n_ent, n_rel), min_size=1, max_size=2))
    d = 2 * draw(st.integers(1, 4))
    table_kind = draw(st.sampled_from(["normal", "grid", "zero_rel", "zeros"]))
    return n_ent, n_rel, d, table_kind, sides


@pytest.mark.parametrize("kind", ["transe", "complex"])
@settings(max_examples=200, deadline=None)
@given(score_graphs(), st.sampled_from([1.0, -1.0, 0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_score_nodes_bytes_equal_composed_chain(kind, case, weight, seed):
    # one or two sides (the positives and the corruptions of a training
    # loss) reach the loss through random row weights; `weight` scales the
    # gradient that reaches the loss: negative weights flip the signs of
    # zeros, and 0 makes every gradient term zero
    n_ent, n_rel, d, table_kind, sides = case
    ent0, rel0 = score_case(n_ent, n_rel, d, table_kind, seed)
    row_weights = [np.random.default_rng(seed + i).normal(size=(len(h), 1)) for i, (h, _, _) in enumerate(sides)]
    values, grads = [], []
    for score in (score_nodes, reference_score_nodes):
        ent, rel = ad.parameter(ent0.copy()), ad.parameter(rel0.copy())
        scores = [score(ent, rel, kind, h, r, t) for h, r, t in sides]
        terms = [reference_sum_all(reference_mul(s, reference_constant(w))) for s, w in zip(scores, row_weights)]
        loss = terms[0] if len(terms) == 1 else reference_add(*terms)
        ad.backward(reference_mul(loss, reference_constant([[weight]])))
        values.append([s.value.tobytes() for s in scores])
        grads.append([ent.grad.tobytes(), rel.grad.tobytes()])
    assert values[0] == values[1]
    assert grads[0] == grads[1]


@pytest.mark.parametrize("kind", ["transe", "complex"])
def test_train_bytes_equal_composed_chain(kind, monkeypatch):
    kg = degree_kg(3, entities=40, relations=3)
    cfg = EmbedTrainConfig(d=8, epochs=5, seed=1)
    table, history = train(kg, cfg, kind)
    monkeypatch.setattr(emb_module, "score_nodes", reference_score_nodes)
    want_table, want_history = train(kg, cfg, kind)
    assert table.ent.tobytes() == want_table.ent.tobytes()
    assert table.rel.tobytes() == want_table.rel.tobytes()
    assert np.array(history).tobytes() == np.array(want_history).tobytes()


# The peak memory of one training, in (triples x negatives x d) float64
# arrays, on the KG of the first mixed_learned problem of benchmark run seed
# 777 (798 triples), d = 16, 3 epochs. Before each score side was one node
# the peaks were 16.0 (TransE) and 18.7 (ComplEx).
PEAK_UNITS = {"transe": 8.0, "complex": 12.0}


@pytest.mark.parametrize("kind", ["transe", "complex"])
def test_train_peak_memory(kind):
    kg = degree_kg(981238343)
    cfg = EmbedTrainConfig(d=16, epochs=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train(kg, cfg, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    units = (peak - before) / (kg.num_triples * cfg.negatives * cfg.d * 8)
    assert units <= PEAK_UNITS[kind], f"{kind} training peaked at {units:.2f} arrays"


def test_train_loss_decreases_and_norms_clamped():
    kg = cycle_kg(8)
    table, history = train(kg, EmbedTrainConfig(d=8, epochs=40, seed=0), "transe")
    assert history[-1] < history[0]
    assert np.linalg.norm(table.ent, axis=1).max() <= 10.0 + 1e-9


def test_train_complex_entity_norms_clamped():
    # at lr 3 the ComplEx entity rows reach the clamp; with no phases to
    # wrap, the clamp is all that touches the table between steps
    table, _ = train(cycle_kg(8), EmbedTrainConfig(d=8, epochs=40, seed=0, lr=3.0), "complex")
    norms = np.linalg.norm(table.ent, axis=1)
    assert norms.max() <= 10.0 + 1e-9
    assert norms.max() == pytest.approx(10.0)


@pytest.mark.parametrize(
    "kind, cfg, msg",
    [
        # the first step takes the entity rows past where a norm overflows,
        # which rescaling would turn into rows of zeros
        ("transe", EmbedTrainConfig(d=8, epochs=5, lr=1e300), "an entity norm of epoch 1 is not finite"),
        # -log sigmoid(-inf) of every corruption
        ("transe", EmbedTrainConfig(d=8, epochs=5, margin=np.inf), "the loss of epoch 1 is inf"),
        ("complex", EmbedTrainConfig(d=8, epochs=5, lr=1e300), "an entity norm of epoch 1 is not finite"),
        ("complex", EmbedTrainConfig(d=8, epochs=5, margin=np.inf), "the loss of epoch 1 is inf"),
    ],
    ids=["transe_lr", "transe_margin", "complex_lr", "complex_margin"],
)
def test_train_refuses_a_diverging_run(kind, cfg, msg):
    # numpy's overflow warnings on the way would fail this test
    with pytest.raises(EmbeddingError, match=f"^training diverged: {msg}$"):
        train(cycle_kg(), cfg, kind)


@pytest.mark.parametrize(
    "make",
    [
        lambda: EmbeddingTable("rotate", np.zeros((2, 4)), np.zeros((1, 4))),
        lambda: init_table("rotate", 3, 1, 4, seed=0),
        lambda: train(cycle_kg(), EmbedTrainConfig(d=4, epochs=1), "rotate"),
    ],
    ids=["table", "init", "train"],
)
def test_rotate_is_an_unknown_kind(make):
    # RotatE was a third kind in earlier builds; an even dimension does not help
    with pytest.raises(EmbeddingError, match="^unknown model kind: rotate$"):
        make()


def test_filtered_mrr_perfect_table():
    # hand-built table where the true tail always wins
    kg = build_kg([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    ent = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # place each tail exactly at head + r
    rel = np.array([[1.0, 0.0]])
    kg2 = build_kg([("a", "r", "b")])
    table = EmbeddingTable("transe", ent[:2], rel)
    assert filtered_mrr(table, kg2) == pytest.approx(1.0)


def test_filtered_mrr_filters_known_tails():
    # two true tails for the same (h, r); filtering must ignore the other one
    kg = build_kg([("a", "r", "b"), ("a", "r", "c")])
    ent = np.array([[0.0, 0.0], [1.0, 0.0], [1.1, 0.0]])
    rel = np.array([[1.05, 0.0]])
    table = EmbeddingTable("transe", ent, rel)
    assert filtered_mrr(table, kg) == pytest.approx(1.0)


def test_checkpoint_round_trip(tmp_path):
    table = init_table("complex", 5, 2, 8, seed=9)
    path = str(tmp_path / "emb.ckpt")
    save_table(table, path)
    back = load_table(path)
    assert back.kind == "complex"
    assert back.ent.shape == table.ent.shape
    assert np.allclose(back.ent, table.ent, atol=1e-6)
    assert np.allclose(back.rel, table.rel, atol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
def test_checkpoint_refuses_a_value_float32_cannot_hold(tmp_path, bad):
    # 1e300 is finite in float64 and inf in float32; no file is written
    table = init_table("transe", 5, 2, 8, seed=9)
    table.rel[1, 3] = bad
    path = tmp_path / "emb.ckpt"
    with pytest.raises(CheckpointError, match="^.*emb.ckpt: a parameter is nan, inf or beyond float32's range$"):
        save_table(table, str(path))
    assert not path.exists()


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(CheckpointError):
        load_table(str(path))


def test_checkpoint_odd_payload(tmp_path):
    path = tmp_path / "emb.ckpt"
    save_table(init_table("transe", 5, 2, 8, seed=9), str(path))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="payload is 223 bytes, 56 floats need 224$"):
        load_table(str(path))


def v2_header(kind=b"transe", sizes=b"5 2 8", kg=b"kg 1\n0123456789abcdef\n") -> bytes:
    """An `ssk-emb v2` header of 56 floats, with the given kind, sizes and kg section."""
    return b"ssk-emb v2\nkind " + kind + b"\nsizes " + sizes + b"\n" + kg + b"floats 56\n"


@pytest.mark.parametrize(
    "header",
    [
        v2_header(sizes=b"x 2 8"),  # not an integer
        v2_header(sizes=b"-1 2 8"),  # negative
        v2_header(sizes=b"5 2 8.0"),
        v2_header(kind=b"\xff\xfe"),  # not UTF-8
        v2_header(sizes=b"5 2 9"),  # payload too short
        v2_header(kind=b"tucker"),  # unknown kind
        v2_header(kind=b"rotate", sizes=b"1 7 7"),  # RotatE, a kind no longer offered
        v2_header(kind=b"rotate"),  # RotatE at an even dimension, which earlier builds loaded
        v2_header(sizes=b"5 2"),  # two sizes
        v2_header(kg=b"kg 2\n0123456789abcdef\n0123456789abcdef\n"),  # two fingerprints
        b"ssk-emb v1 transe 5 2 8\n",  # the version before the kg section
    ],
    ids=["not_integer", "negative", "float", "undecodable", "short_payload", "unknown_kind", "odd_rotate",
         "even_rotate", "two_sizes", "two_fingerprints", "v1"],
)
def test_checkpoint_errors_name_the_file(tmp_path, header):
    path = tmp_path / "emb.ckpt"
    path.write_bytes(header + np.zeros(7 * 8, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="emb.ckpt"):
        load_table(str(path))


def test_v1_table_is_refused_by_its_version(tmp_path):
    path = tmp_path / "emb.ckpt"
    path.write_bytes(b"ssk-emb v1 transe 5 2 8\n" + np.zeros(7 * 8, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="^.*emb.ckpt: not a ssk-emb v2 checkpoint, it starts 'ssk-emb v1 transe 5 2 8'$"):
        load_table(str(path))


def test_table_records_the_kg_it_was_trained_on(tmp_path):
    kg = cycle_kg()
    table, _ = train(kg, EmbedTrainConfig(d=4, epochs=1))
    path = str(tmp_path / "emb.ckpt")
    save_table(table, path)
    assert load_table(path).kg == table.kg == kg.fingerprint()


@st.composite
def margin_cases(draw):
    """Positive and negative (n, 1) scores, each side of one row or more,
    with 0, -0, +-1e3 and anything between; a positive margin; and the
    weight of the gradient that reaches the loss."""
    score = st.sampled_from([0.0, -0.0, 1e3, -1e3]) | st.floats(-1e3, 1e3)
    side = st.integers(1, 30).flatmap(lambda n: arrays(np.float64, (n, 1), elements=score))
    margin = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return draw(side), draw(side), draw(margin), draw(st.sampled_from([1.0, -1.0, 0.0, 0.3]))


def tagged(value: np.ndarray, tag: str, handed: list) -> ad.Node:
    """A score node whose backward records (tag, the gradient's bytes)."""
    return ad.Node(value, lambda g: handed.append((tag, g.tobytes())))


@settings(max_examples=300, deadline=None)
@given(margin_cases())
def test_margin_loss_bytes_equal_composed_chain(case):
    # the fused loss against the chain of the margin constant, add,
    # logsigmoid, sum and scale nodes per side and the add of the sides:
    # the same value, and each score node handed the same gradient, the
    # positives first; `weight` scales the gradient that reaches the loss
    pos, neg, margin, weight = case
    runs = []
    for loss_of in (margin_loss, reference_margin_loss):
        handed = []
        with np.errstate(all="ignore"):  # exp of a large score, or a huge margin's inf loss, as in training
            loss = loss_of(tagged(pos, "pos", handed), tagged(neg, "neg", handed), margin)
            ad.backward(reference_mul(loss, reference_constant([[weight]])))
        runs.append((loss.value.tobytes(), handed))
    assert runs[0] == runs[1]
    assert [tag for tag, _ in runs[0][1]] == ["pos", "neg"]
