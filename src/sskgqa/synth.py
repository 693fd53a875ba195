"""Bundled synthetic fixtures: toy KGs, benchmarks and trainable datasets."""

from __future__ import annotations

import numpy as np

from .annotation import LabeledQuestion
from .kg import KnowledgeGraph, build_kg
from .querygraph import build_chain, to_sparql

STEP_RELATIONS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def norshteyn_kg() -> KnowledgeGraph:
    """Tiny movie-domain KG around Yuriy Norshteyn."""
    return build_kg(
        [
            ("Hedgehog in the Fog", "directed_by", "Yuriy Norshteyn"),
            ("Hedgehog in the Fog", "written_by", "Sergei Kozlov"),
            ("Tale of Tales", "directed_by", "Yuriy Norshteyn"),
            ("Tale of Tales", "written_by", "Sergei Kozlov"),
            ("Cheburashka", "directed_by", "Roman Kachanov"),
            ("Cheburashka", "written_by", "Eduard Uspensky"),
            ("Winnie the Pooh", "directed_by", "Fyodor Khitruk"),
            ("Winnie the Pooh", "written_by", "Boris Zakhoder"),
        ]
    )


def norshteyn_questions() -> list[LabeledQuestion]:
    """Trainable questions over the Norshteyn toy KG (SS1 and SS2 phrasings)."""
    qs = []
    directors = {
        "Yuriy Norshteyn": ["Hedgehog in the Fog", "Tale of Tales"],
        "Roman Kachanov": ["Cheburashka"],
        "Fyodor Khitruk": ["Winnie the Pooh"],
    }
    writers = {
        "Yuriy Norshteyn": ["Sergei Kozlov"],
        "Roman Kachanov": ["Eduard Uspensky"],
        "Fyodor Khitruk": ["Boris Zakhoder"],
    }
    i = 0
    for director, films in directors.items():
        qs.append(
            LabeledQuestion(
                id=f"toy{i}",
                question=f"what movies did {director} direct",
                topic_entity=director,
                answers=films,
                sparql=to_sparql(build_chain(director, [("directed_by", True)])),
            )
        )
        i += 1
        qs.append(
            LabeledQuestion(
                id=f"toy{i}",
                question=f"who wrote the films directed by {director}",
                topic_entity=director,
                answers=writers[director],
                sparql=to_sparql(build_chain(director, [("directed_by", True), ("written_by", False)])),
            )
        )
        i += 1
    return qs


def norshteyn_test_question() -> LabeledQuestion:
    return LabeledQuestion(
        id="norshteyn",
        question="who wrote the films directed by Yuriy Norshteyn",
        topic_entity="Yuriy Norshteyn",
        answers=["Sergei Kozlov"],
        sparql=to_sparql(build_chain("Yuriy Norshteyn", [("directed_by", True), ("written_by", False)])),
    )


def three_hop_benchmark(
    n_questions: int = 200, seed: int = 0
) -> tuple[KnowledgeGraph, list[LabeledQuestion]]:
    """3-hop questions whose candidate sets contain a high-overlap 1-hop
    shortcut distractor; structure filtering removes the shortcut."""
    if n_questions < 1:
        raise ValueError(f"needs at least 1 question, got {n_questions}")
    rng = np.random.default_rng(seed)
    triples: list[tuple[str, str, str]] = []
    questions: list[LabeledQuestion] = []
    for i in range(n_questions):
        ra, rb, rc = (STEP_RELATIONS[k] for k in rng.choice(len(STEP_RELATIONS), size=3, replace=False))
        topic, m1, m2, ans, decoy = (
            f"t{i}",
            f"m{i}a",
            f"m{i}b",
            f"ans{i}",
            f"decoy{i}",
        )
        triples.extend(
            [
                (topic, ra, m1),
                (m1, rb, m2),
                (m2, rc, ans),
                (topic, f"{ra}_{rb}_{rc}", decoy),
            ]
        )
        gold = build_chain(topic, [(ra, False), (rb, False), (rc, False)])
        questions.append(
            LabeledQuestion(
                id=f"q{i}",
                question=f"{topic} {ra} {rb} {rc}",
                topic_entity=topic,
                answers=[ans],
                hops=3,
                sparql=to_sparql(gold),
            )
        )
    return build_kg(triples), questions


def ranker_fixture() -> tuple[KnowledgeGraph, list[LabeledQuestion]]:
    """5 one-hop questions on a 20-entity KG, mutually distinguishable by the
    relation token each question mentions."""
    rels = ("color", "shape", "size", "taste", "sound")
    triples = []
    questions = []
    for i in range(5):
        topic = f"thing{i}"
        for j, rel in enumerate(rels):
            triples.append((topic, rel, f"val{i}_{j % 3}"))
        gold_rel = rels[i]
        gold = build_chain(topic, [(gold_rel, False)])
        questions.append(
            LabeledQuestion(
                id=f"rq{i}",
                question=f"what {gold_rel} is thing{i}",
                topic_entity=topic,
                answers=[f"val{i}_{i % 3}"],
                hops=1,
                sparql=to_sparql(gold),
            )
        )
    return build_kg(triples), questions
