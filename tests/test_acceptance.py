"""Acceptance gate: ten system-level checks, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; each test enforces its own runtime budget.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import sskgqa
from fixtures import filtered_mrr, random_fixture, score_tails, separable_classifier_dataset, triplet_loss
from reference import (
    reference_add,
    reference_chain,
    reference_constant,
    reference_relu,
    reference_rownorm,
    reference_sub,
)
from sskgqa import autodiff as ad
from sskgqa.annotation import (
    UNSUPPORTED,
    LabeledQuestion,
    coverage,
    extract_query_graph,
    label_question,
    parse_sparql,
)
from sskgqa.candidates import EnumConfig, enumerate_candidates
from sskgqa.classifier import ClassifierTrainConfig, fuse, train_classifier
from sskgqa.embeddings import EmbeddingTable, EmbedTrainConfig, train
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.kg import build_kg
from sskgqa.pipeline import (
    PipelineConfig,
    answer_question,
    evaluate,
    gold_graph_of,
    tokenize_question,
)
from sskgqa.querygraph import (
    Chain,
    build_chain,
    canonicalize,
    execute,
    to_sparql,
)
from sskgqa.ranker import (
    RankTrainConfig,
    TokenOverlapRanker,
    train_ranker,
)
from sskgqa.structures import (
    ANSWER,
    E_CONST,
    E_TOPIC,
    VAR,
    builtin_taxonomy,
    structure_of,
)
from sskgqa.synth import (
    norshteyn_kg,
    norshteyn_questions,
    norshteyn_test_question,
    ranker_fixture,
    three_hop_benchmark,
)

TAX = builtin_taxonomy()


def report(n: int, desc: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    verdict = "PASS" if elapsed <= budget else "FAIL (over budget)"
    print(f"criterion {n:2d}: {verdict} [{elapsed:.1f}s/{budget:.0f}s] {desc}")
    assert elapsed <= budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"


def fused(eh, eq) -> np.ndarray:
    """classifier.fuse of one entity and one question vector."""
    return fuse(np.reshape(eh, (1, -1)), np.reshape(eq, (1, -1)))[0]


def test_criterion_1_fusion_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    for d in (2, 8, 64):
        for _ in range(1000):
            eh = rng.normal(size=d)
            eq = rng.normal(size=d)
            h = d // 2
            zt = (eh[:h] + 1j * eh[h:]) * (eq[:h] + 1j * eq[h:])
            want = eh + eq + np.concatenate([zt.real, zt.imag])
            assert np.abs(fused(eh, eq) - want).max() < 1e-12
    # worked examples: unit-real multiplier and pure-imaginary multiplier
    assert np.allclose(fused([2.0, 3.0], [1.0, 0.0]), [5.0, 6.0], atol=1e-15)
    assert np.allclose(fused([1.0, 1.0], [0.0, 1.0]), [0.0, 3.0], atol=1e-15)
    report(1, "entity-question fusion matches the complex oracle", t0, 1.0)


def test_criterion_2_triplet_loss_and_gradient_check():
    t0 = time.time()
    # hand-computed cases
    q = np.zeros(2)
    n2 = np.array([2.0, 0.0])
    assert triplet_loss(q, q, n2, alpha=1.0) == 0.0  # max(0 - 2 + 1, 0)
    p = np.array([0.0, 1.5])
    n = np.array([1.5, 0.0])
    assert triplet_loss(q, p, n, alpha=1.0) == 1.0  # equal distances -> alpha
    assert triplet_loss(q, np.array([3.0, 0.0]), np.array([1.0, 0.0]), 1.0) == 3.0

    # full-model gradient check on 100 random instances
    rng = np.random.default_rng(1)
    vocab = Vocab([f"w{i}" for i in range(10)])
    enc = SequenceEncoder(
        vocab,
        EncoderConfig(out_dim=4, d_model=6, heads=3, ff_width=8),
        rng,
    )
    params = list(enc.params.items())
    flat_coords = [
        (name, idx)
        for name, p in params
        for idx in itertools.product(*(range(s) for s in p.value.shape))
    ]

    def loss_value():
        f_q = enc.forward(seq_q, training=True)
        f_p = enc.forward(seq_p, training=True)
        f_n = enc.forward(seq_n, training=True)
        raw = reference_add(
            reference_sub(reference_rownorm(reference_sub(f_q, f_p)), reference_rownorm(reference_sub(f_q, f_n))),
            reference_constant([[5.0]]),
        )
        return reference_relu(raw)

    checked = 0
    for _ in range(100):
        seq_q, seq_p, seq_n = (
            vocab.encode([f"w{rng.integers(10)}" for _ in range(4)]) for _ in range(3)
        )
        for _, p in params:
            p.zero_grad()
        loss = loss_value()
        ad.backward(loss)
        grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value)) for name, p in params}
        eps = 1e-6
        for k in rng.choice(len(flat_coords), size=6, replace=False):
            name, idx = flat_coords[k]
            p = enc.params[name]
            orig = p.value[idx]
            p.value[idx] = orig + eps
            up = float(loss_value().value[0, 0])
            p.value[idx] = orig - eps
            dn = float(loss_value().value[0, 0])
            p.value[idx] = orig
            num = (up - dn) / (2 * eps)
            got = grads[name][idx]
            rel = abs(got - num) / max(abs(got), abs(num), 1.0)
            assert rel < 1e-4, (name, idx, got, num)
        checked += 1
    assert checked == 100
    report(2, "triplet loss examples and full-model gradient check", t0, 30.0)


def test_criterion_3_enumeration_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    for _trial in range(50):
        n_e = int(rng.integers(5, 51))
        n_r = int(rng.integers(1, 7))
        triples = sorted(
            {
                (
                    f"e{rng.integers(n_e)}",
                    f"r{rng.integers(n_r)}",
                    f"e{rng.integers(n_e)}",
                )
                for _ in range(int(rng.integers(n_e, 2 * n_e)))
            }
        )
        kg = build_kg(triples)
        topic = kg.entities.symbol_of(int(rng.integers(kg.num_entities)))
        rels = [kg.relations.symbol_of(i) for i in range(kg.num_relations)]
        steps = [(r, rev) for r in rels for rev in (False, True)]
        for max_hops in (1, 2, 3):
            got = {
                canonicalize(g)
                for g in enumerate_candidates(
                    kg, topic, EnumConfig(max_hops=max_hops, max_candidates=100000)
                ).graphs
            }
            want = set()
            for hops in range(1, max_hops + 1):
                for seq in itertools.product(steps, repeat=hops):
                    g = build_chain(topic, list(seq))
                    if execute(g, kg):
                        want.add(canonicalize(g))
            assert got == want
    report(3, "candidate enumeration equals the brute-force oracle", t0, 60.0)


def _brute_force_iso(a, b) -> bool:
    """Kind-preserving isomorphism of two drawings, (kinds, edges), edge
    direction aside."""
    (kinds_a, edges_a), (kinds_b, edges_b) = a, b
    if len(kinds_a) != len(kinds_b) or len(edges_a) != len(edges_b):
        return False
    from collections import Counter

    ea = Counter(tuple(sorted(e)) for e in edges_a)
    for perm in itertools.permutations(range(len(kinds_b))):
        if any(kinds_a[perm[i]] != kinds_b[i] for i in range(len(kinds_b))):
            continue
        if Counter(tuple(sorted((perm[s], perm[d]))) for s, d in edges_b) == ea:
            return True
    return False


def _drawing(c: Chain) -> tuple:
    """(kinds, edges) of chain c: node 0 the topic, node i its i-th path
    node, then one Ec node per constraint; each edge runs the way its KG
    triple does."""
    n = len(c.hops)
    kinds = (E_TOPIC,) + (VAR,) * (n - 1) + (ANSWER,) + (E_CONST,) * len(c.constraints)
    edges = [(i + 1, i) if back else (i, i + 1) for i, (_, back) in enumerate(c.hops)]
    edges += [(n + 1 + j, at) if back else (at, n + 1 + j) for j, (at, _, back, _) in enumerate(c.constraints)]
    return kinds, edges


def _random_graph(rng) -> Chain:
    hops = int(rng.integers(1, 4))
    path = [(f"r{rng.integers(3)}", bool(rng.integers(2))) for _ in range(hops)]
    constraints = []
    if rng.random() < 0.5:
        at = int(rng.integers(1, hops + 1))
        constraints.append((at, f"c{rng.integers(2)}", f"v{rng.integers(4)}"))
    return build_chain(f"t{rng.integers(5)}", path, constraints)


def test_criterion_4_structure_matching():
    t0 = time.time()
    rng = np.random.default_rng(3)
    # shape matching agrees with brute-force isomorphism on random pairs of
    # small drawings (<= 5 nodes): those of random chains and of the builtin
    # structures
    drawings = [_drawing(_random_graph(rng)) for _ in range(120)] + [reference_chain(*s.shape) for s in TAX]
    drawings = [d for d in drawings if len(d[0]) <= 5]
    for a in drawings:
        for b in drawings:
            assert (structure_of("a", *a, "a").shape == structure_of("b", *b, "b").shape) == _brute_force_iso(a, b)
    # filtering soundness: a graph has the shape of the structure its drawing
    # reads as, so it survives the filter by it
    for _ in range(1000):
        g = _random_graph(rng)
        ss = structure_of("s", *_drawing(g), "s")
        assert g.shape == ss.shape
    report(4, "structure matching agrees with brute-force isomorphism", t0, 30.0)


def test_criterion_5_filtering_gap_and_monotonicity():
    t0 = time.time()
    ranker = TokenOverlapRanker()

    def hits(kg, qs, mode):
        cfg = PipelineConfig(kg=kg, taxonomy=TAX, ranker=ranker, mode=mode)
        return evaluate(cfg, qs).hits_at_1

    kg, questions = three_hop_benchmark(200, seed=0)
    off = hits(kg, questions, "off")
    oracle = hits(kg, questions, "oracle")
    assert oracle - off >= 10.0, (oracle, off)
    for seed in range(10):
        kg, qs = random_fixture(np.random.default_rng(seed))
        if not qs:
            continue
        assert hits(kg, qs, "oracle") >= hits(kg, qs, "off")
    report(
        5,
        f"structure filtering gap {oracle:.1f} vs {off:.1f} and monotonicity",
        t0,
        300.0,
    )


def test_criterion_6_annotation():
    t0 = time.time()
    rng = np.random.default_rng(4)
    for _ in range(500):
        g = _random_graph(rng)
        g2 = extract_query_graph(parse_sparql(to_sparql(g)), g.topic)
        assert canonicalize(g2) == canonicalize(g)
    for hops, label in ((1, "SS1"), (2, "SS2"), (3, "SS3")):
        q = LabeledQuestion("q", "?", "a", [], hops=hops)
        assert label_question(q, TAX) == label
    for bad in (
        "SELECT ?x WHERE { :a :r ?x . FILTER ( ?n <= 2000 ) }",
        "SELECT ?x WHERE { :a :r ?x . FILTER ( ?a = 1 || ?b = 2 ) }",
    ):
        assert label_question(LabeledQuestion("q", "?", "a", [], sparql=bad), TAX) == UNSUPPORTED
    good = LabeledQuestion("q", "?", "a", [], hops=1)
    bad = LabeledQuestion("q", "?", "a", [])
    assert coverage([label_question(q, TAX) for q in (good, good, good, bad)]) == 75.0
    report(6, "SPARQL round-trip, hop labeling and coverage", t0, 10.0)


def test_criterion_7_embedding_sanity():
    t0 = time.time()
    # labeled-edge cycle: representable by both scorers
    ents = [f"e{i}" for i in range(4)]
    kg = build_kg([(ents[i], f"step{i}", ents[(i + 1) % 4]) for i in range(4)])
    for kind in ("transe", "complex"):
        table, _ = train(kg, EmbedTrainConfig(d=16, epochs=200, seed=0), kind)
        assert filtered_mrr(table, kg) >= 0.8, kind
    # transe translation invariance
    rng = np.random.default_rng(5)
    ent = rng.normal(size=(4, 6))
    rel = rng.normal(size=(2, 6))
    t1 = EmbeddingTable("transe", ent, rel)
    t2 = EmbeddingTable("transe", ent + rng.normal(size=(1, 6)), rel)
    for h, r, t in ((0, 0, 1), (2, 1, 3), (3, 0, 0)):
        assert abs(score_tails(t1, h, r, [t])[0] - score_tails(t2, h, r, [t])[0]) < 1e-9
    report(7, "embedding MRR and scorer identities", t0, 120.0)


def test_criterion_8_classifier():
    t0 = time.time()
    dataset, table = separable_classifier_dataset(TAX.labels())
    before = table.ent.tobytes()
    cfg = ClassifierTrainConfig(epochs=50, lr=1e-2, d_model=16, use_attention=False)
    model = train_classifier(dataset, table, TAX, cfg)
    assert model.accuracy(dataset) == 1.0
    assert table.ent.tobytes() == before
    model.w.value[...] = 0.0
    model.b.value[...] = 0.0
    probs = model.classify(dataset[0][0], dataset[0][1])
    assert np.allclose(probs, 1.0 / len(TAX), atol=1e-12)
    report(8, "classifier separable accuracy, uniform head, frozen table", t0, 120.0)


def _norshteyn_models():
    kg = norshteyn_kg()
    questions = norshteyn_questions()
    emb, _ = train(kg, EmbedTrainConfig(d=16, epochs=30, seed=0), "transe")
    clf_data = [
        (
            tokenize_question(q.question),
            kg.entities.id_of(q.topic_entity),
            label_question(q, TAX),
        )
        for q in questions
    ]
    clf = train_classifier(
        clf_data,
        emb,
        TAX,
        ClassifierTrainConfig(epochs=50, lr=1e-2, d_model=16, use_attention=False, seed=0),
    )
    return kg, questions, clf


def test_criterion_9_end_to_end():
    t0 = time.time()
    kg, questions, clf = _norshteyn_models()
    ndata = [(tokenize_question(x.question), gold_graph_of(x)) for x in questions]
    nranker = train_ranker(
        ndata,
        kg,
        TAX,
        RankTrainConfig(epochs=25, lr=1e-2, dropout=0.0, out_dim=16, ff_width=48, seed=0),
    )
    q = norshteyn_test_question()
    cfg = PipelineConfig(
        kg=kg, taxonomy=TAX, ranker=nranker, classifier=clf,
        mode="predicted",
    )
    result, rec = answer_question(cfg, q)
    assert rec.predicted_structure == "SS2"
    assert result.answers == {"Sergei Kozlov"}

    # 5-question fixture: trained metric ranker reaches hits@1 = 100%
    rkg, rqs = ranker_fixture()
    rdata = [(tokenize_question(x.question), gold_graph_of(x)) for x in rqs]
    rcfg = RankTrainConfig(
        epochs=25, lr=1e-2, dropout=0.0, out_dim=16, ff_width=48, seed=0
    )
    model = train_ranker(rdata, rkg, TAX, rcfg)
    pcfg = PipelineConfig(kg=rkg, taxonomy=TAX, ranker=model, mode="oracle")
    rep1 = evaluate(pcfg, rqs)
    assert rep1.hits_at_1 == 100.0

    # bit determinism: retraining with the same seed gives identical
    # parameters and an identical evaluation transcript
    model2 = train_ranker(rdata, rkg, TAX, rcfg)
    assert [p.value.tobytes() for p in model.encoder.parameters()] == [
        p.value.tobytes() for p in model2.encoder.parameters()
    ]
    rep2 = evaluate(
        PipelineConfig(kg=rkg, taxonomy=TAX, ranker=model2, mode="oracle"), rqs
    )
    assert rep1.records == rep2.records
    report(9, "predicted-structure answer, ranker fixture, determinism", t0, 180.0)


def test_criterion_10_ablation_plumbing(tmp_path):
    t0 = time.time()
    out = tmp_path / "toy"
    base = [sys.executable, "-m", "sskgqa.cli"]
    # the directory holding the package under test, installed or not
    src = str(Path(sskgqa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        base + ["make-toy", "--out", str(out), "--benchmark", "ranker"], check=True, env=env
    )
    common = [
        "--dataset", str(out / "questions.jsonl"), "--kg", str(out / "kg.tsv"),
        "--epochs", "2", "--max-hops", "1",
    ]
    proc = subprocess.run(
        base + ["ablate", "--negatives"] + common,
        check=True, capture_output=True, text=True, env=env,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    negs = [r["negatives"] for r in rows if "negatives" in r]
    assert negs == [1, 5, 10, 50, 100, 200, 300, 500]
    assert all("hits_at_1" in r for r in rows if "negatives" in r)
    proc = subprocess.run(
        base + ["ablate", "--heads"] + common,
        check=True, capture_output=True, text=True, env=env,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    heads = [r["heads"] for r in rows if "heads" in r]
    assert heads == [1, 3, 6]
    report(10, "ablation grids emit one hits@1 per setting", t0, 600.0)
