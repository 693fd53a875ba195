"""The chain3 benchmark problem: plain `str` symbols throughout, and the
problem itself pinned by digest."""

import dataclasses
import hashlib
import json

from sskgqa.candidates import EnumConfig, enumerate_candidates
from sskgqa.synth import three_hop_benchmark


def test_three_hop_benchmark_symbols_are_plain_str():
    kg, questions = three_hop_benchmark(30)
    texts = kg.entities.symbols() + kg.relations.symbols()
    for q in questions:
        texts += [q.id, q.question, q.topic_entity, q.sparql, *q.answers]
    cfg = EnumConfig(attach_constraints=True)
    chains = [c for q in questions for c in enumerate_candidates(kg, q.topic_entity, cfg).graphs]
    assert any(c.constraints for c in chains)
    for c in chains:
        texts += [c.topic, *(rel for rel, _ in c.hops)]
        texts += [x for _, rel, _, value in c.constraints for x in (rel, value)]
    assert [x for x in texts if type(x) is not str] == []


def test_three_hop_benchmark_problem_is_pinned():
    # The benchmark's chain3_overlap problem for seed 777: the triples as
    # symbols in `iter_triples` order and the questions, as JSON.
    kg, questions = three_hop_benchmark(300, seed=777)
    ent, rel = kg.entities.symbol_of, kg.relations.symbol_of
    triples = [[ent(h), rel(r), ent(t)] for h, r, t in kg.iter_triples()]
    blob = json.dumps({"triples": triples, "questions": [dataclasses.asdict(q) for q in questions]})
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "201813da6f0961f5"
