import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sskgqa
from fixtures import random_fixture
from reference import reference_answer
from sskgqa.annotation import UNSUPPORTED, LabeledQuestion, label_question
from sskgqa.candidates import EnumConfig
from sskgqa.kg import build_kg
from sskgqa.pipeline import (
    MODES,
    PipelineConfig,
    PipelineError,
    QuestionRecord,
    answer_question,
    evaluate,
    gold_graph_of,
    tokenize_question,
)
from sskgqa.querygraph import CLS, SEP, build_chain, execute, to_sparql
from sskgqa.ranker import RankTrainConfig, TokenOverlapRanker, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import (
    norshteyn_kg,
    norshteyn_questions,
    norshteyn_test_question,
    ranker_fixture,
    three_hop_benchmark,
)


def test_tokenize_question():
    assert tokenize_question("who wrote the film") == [
        CLS, "who", "wrote", "the", "film", SEP,
    ]


def test_gold_graph_of():
    g = build_chain("a", [("r", False)])
    assert gold_graph_of(LabeledQuestion("q", "?", "a", [], sparql=to_sparql(g))) == g
    assert gold_graph_of(LabeledQuestion("q", "?", "a", [])) is None
    assert gold_graph_of(LabeledQuestion("q", "?", "a", [], sparql="junk")) is None


# `make-toy --benchmark norshteyn` writes these; they pin its questions.jsonl
NORSHTEYN_SPARQL = [
    "SELECT DISTINCT ?x WHERE { ?x :directed_by :Yuriy%20Norshteyn . }",
    "SELECT DISTINCT ?x WHERE { ?y :directed_by :Yuriy%20Norshteyn . ?y :written_by ?x . }",
    "SELECT DISTINCT ?x WHERE { ?x :directed_by :Roman%20Kachanov . }",
    "SELECT DISTINCT ?x WHERE { ?y :directed_by :Roman%20Kachanov . ?y :written_by ?x . }",
    "SELECT DISTINCT ?x WHERE { ?x :directed_by :Fyodor%20Khitruk . }",
    "SELECT DISTINCT ?x WHERE { ?y :directed_by :Fyodor%20Khitruk . ?y :written_by ?x . }",
]


def test_norshteyn_sparql_is_pinned():
    assert [q.sparql for q in norshteyn_questions()] == NORSHTEYN_SPARQL
    assert norshteyn_test_question().sparql == NORSHTEYN_SPARQL[1]


def test_fixture_sparql_is_its_gold():
    # a fixture question's SPARQL is its only gold: its chain answers it exactly
    problems = [
        (norshteyn_kg(), norshteyn_questions() + [norshteyn_test_question()]),
        ranker_fixture(),
        three_hop_benchmark(50),
    ] + [random_fixture(np.random.default_rng(seed)) for seed in range(10)]
    for kg, questions in problems:
        for q in questions:
            gold = gold_graph_of(q)
            assert gold is not None, q.id
            assert sorted(kg.entities.symbol_of(a) for a in execute(gold, kg)) == sorted(q.answers), q.id


def test_gold_graph_of_non_chain_sparql_is_none():
    # ?y hangs off the answer: the pattern is connected but is not a chain
    q = LabeledQuestion("q", "?", "a", ["b"], sparql="SELECT ?x WHERE { :a :r ?x . ?x :s ?y . }")
    assert gold_graph_of(q) is None
    assert label_question(q, builtin_taxonomy()) == UNSUPPORTED


def base_cfg(kg, mode="oracle", **kw):
    return PipelineConfig(
        kg=kg,
        taxonomy=builtin_taxonomy(),
        ranker=TokenOverlapRanker(),
        mode=mode,
        **kw,
    )


def test_config_validation():
    kg = build_kg([("a", "r", "b")])
    with pytest.raises(PipelineError):
        base_cfg(kg, mode="bogus")
    with pytest.raises(PipelineError):
        base_cfg(kg, mode="predicted")  # classifier missing


@pytest.mark.parametrize("mode", MODES)
def test_answer_unknown_topic(mode):
    kg = build_kg([("a", "r", "b")])
    q = LabeledQuestion("q", "?", "zzz", ["b"], hops=1)
    result, rec = answer_question(base_cfg(kg, mode=mode, classifier=FixedClassifier("SS2")), q)
    assert (result.answers, result.predicted_structure, result.status) == (set(), None, "unknown_topic")
    assert rec == QuestionRecord("q", "unknown_topic", None, "SS1", None, None, [], False)


def test_answer_oracle_mode_simple():
    kg, questions = norshteyn_kg(), norshteyn_questions()
    cfg = base_cfg(kg)
    for q in questions:
        result, rec = answer_question(cfg, q)
        assert rec.status == "ok"
        assert rec.gold_structure in ("SS1", "SS2")
    # the one-hop question about directing answers correctly with oracle filter
    report = evaluate(cfg, questions)
    assert report.total == len(questions)
    assert report.hits_at_1 > 0


def test_oracle_mode_unsupported_question():
    kg = build_kg([("a", "r", "b")])
    q = LabeledQuestion("q", "weird", "a", ["b"])  # no hops, no sparql
    result, rec = answer_question(base_cfg(kg), q)
    assert rec.status == "unsupported"
    assert not rec.correct
    assert result.answers == set()


def test_off_mode_no_filtering():
    kg, questions = three_hop_benchmark(5, seed=0)
    cfg = base_cfg(kg, mode="off")
    # the shortcut decoy wins token overlap without structure filtering
    report = evaluate(cfg, questions)
    assert report.hits_at_1 == 0.0


def test_oracle_filtering_beats_off():
    kg, questions = three_hop_benchmark(12, seed=0)
    off = evaluate(base_cfg(kg, mode="off"), questions)
    oracle = evaluate(base_cfg(kg, mode="oracle"), questions)
    assert oracle.hits_at_1 - off.hits_at_1 >= 10.0
    assert oracle.hits_at_1 == 100.0


def test_evaluate_records_unknown_topic():
    kg, questions = three_hop_benchmark(3, seed=1)
    stray = LabeledQuestion("stray", "who is nobody", "nobody", ["x"], hops=1)
    base = evaluate(base_cfg(kg), questions)
    report = evaluate(base_cfg(kg), questions[:1] + [stray] + questions[1:])
    assert report.total == 4
    assert report.unknown_topic == 1
    assert base.unknown_topic == 0
    rec = report.records[1]
    assert (rec.id, rec.status, rec.correct, rec.top1) == ("stray", "unknown_topic", False, None)
    assert rec.gold_structure == "SS1"
    others = report.records[:1] + report.records[2:]
    assert others == base.records  # the other questions are unaffected


def constrained_question():
    # gold is a constrained one-hop pattern, but the KG's answer node has no
    # outgoing edges, so no constrained candidate is enumerable
    gold = build_chain("a", [("r", False)], constraints=[(1, "c", "v")])
    return LabeledQuestion("q", "?", "a", ["b"], sparql=to_sparql(gold))


def test_fallback_on_empty_filter():
    kg = build_kg([("a", "r", "b")])
    result, rec = answer_question(base_cfg(kg), constrained_question())
    assert rec.status == "ok"  # falls back to unfiltered candidates
    assert rec.correct


TAX = builtin_taxonomy()


class FixedClassifier:
    """Stands in for the structure classifier: one label for every question."""

    def __init__(self, label: str):
        self.label = label

    def predict(self, tokens, topic_id) -> str:
        return self.label


@pytest.fixture(scope="module")
def small_ranker():
    # random_fixture names every KG's entities e0.. and relations r0.., so
    # its vocabulary reads the questions and chains of any of them
    kg, questions = random_fixture(np.random.default_rng(0))
    data = [(tokenize_question(q.question), gold_graph_of(q)) for q in questions]
    return train_ranker(data, kg, TAX, RankTrainConfig(epochs=3, negatives=4, ff_width=16, out_dim=8))


# `lone` has one edge, to `leaf`, which has no out-edge, so no chain from
# `lone` has LONE's gold shape, SS4: oracle mode falls back to its hop count
LONE = LabeledQuestion(
    "lone", "lone r0 leaf", "lone", ["leaf"],
    sparql=to_sparql(build_chain("lone", [("r0", False)], constraints=[(1, "r0", "leaf")])),
)
BARE = LabeledQuestion("bare", "what about lone", "lone", [])  # Unsupported: no hop count, no SPARQL
STRAY = LabeledQuestion("stray", "who is nobody", "nobody", ["leaf"], hops=1)  # a topic the KG lacks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(MODES),
    label=st.sampled_from(TAX.labels()),
    attach=st.booleans(),
    max_hops=st.integers(1, 3),
    max_candidates=st.sampled_from([8, 10000]),
    learned=st.booleans(),
)
def test_answer_question_equals_the_reference_answer(
    small_ranker, seed, mode, label, attach, max_hops, max_candidates, learned
):
    # token overlap ties often, so the tie-break decides many of its answers
    fixture_kg, questions = random_fixture(np.random.default_rng(seed), n_questions=3)
    ent, rel = fixture_kg.entities.symbol_of, fixture_kg.relations.symbol_of
    kg = build_kg([(ent(h), rel(r), ent(t)) for h, r, t in fixture_kg.iter_triples()] + [("lone", "r0", "leaf")])
    cfg = PipelineConfig(
        kg=kg, taxonomy=TAX, ranker=small_ranker if learned else TokenOverlapRanker(),
        classifier=FixedClassifier(label), enum=EnumConfig(max_hops, attach, max_candidates), mode=mode,
    )
    for q in questions + [LONE, BARE, STRAY]:
        _, rec = answer_question(cfg, q)
        want = reference_answer(cfg, q)
        assert (rec.status, rec.answers, rec.top1) == want[:3], q.id
    assert mode != "oracle" or reference_answer(cfg, LONE).fallback


def test_evaluate_empty_dataset():
    kg = build_kg([("a", "r", "b")])
    with pytest.raises(PipelineError):
        evaluate(base_cfg(kg), [])


def test_evaluate_counts():
    kg, questions = three_hop_benchmark(4, seed=2)
    bad = LabeledQuestion("qx", "weird", "t0", [])
    report = evaluate(base_cfg(kg), questions + [bad])
    assert report.total == 5
    assert report.unsupported == 1
    assert report.correct == 4
    assert report.hits_at_1 == pytest.approx(80.0)


# Answers one 100,000-word input on the ranker toy in `off` mode, in a child
# process that first caps its own address space, so an encoder that read every
# token (3 heads x 60 sequences x L x L attention scores) fails there with a
# MemoryError instead of exhausting the host. Prints the answer's seconds and
# tracemalloc peak.
LONG_INPUT = """
import resource, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sskgqa import pipeline as pl
from sskgqa.annotation import LabeledQuestion
from sskgqa.kg import build_kg
from sskgqa.ranker import RankTrainConfig, train_ranker
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import ranker_fixture

kg, questions = ranker_fixture()
tax = builtin_taxonomy()
data = [(pl.tokenize_question(q.question), pl.gold_graph_of(q)) for q in questions]
ranker = train_ranker(data, kg, tax, RankTrainConfig(epochs=1, negatives=4))
long = " ".join(f"w{i}" for i in range(100_000))
question = "what color is thing0"
if {where!r} == "question":
    question = long
else:  # a relation of thing0, so most candidates serialize it
    ent, rel = kg.entities.symbol_of, kg.relations.symbol_of
    kg = build_kg([(ent(h), rel(r), ent(t)) for h, r, t in kg.iter_triples()] + [("thing0", long, "val0_0")])
cfg = pl.PipelineConfig(kg=kg, taxonomy=tax, ranker=ranker, mode="off")
tracemalloc.start()
t0 = time.perf_counter()
result, _ = pl.answer_question(cfg, LabeledQuestion("long", question, "thing0", []))
print(result.status, time.perf_counter() - t0, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("where", ["question", "kg_symbol"])
def test_a_long_input_is_answered_in_bounded_time_and_memory(where):
    # uncapped, a 2,000-word question was killed by the kernel for memory
    src = str(Path(sskgqa.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", LONG_INPUT.replace("{where!r}", repr(where))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, seconds, peak = proc.stdout.split()
    assert status == "ok"
    assert float(seconds) < 10.0
    assert int(peak) < 64 << 20
