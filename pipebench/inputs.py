"""Seeded input generators for the pipeline benchmark.

The program under test sees only what these functions return: a knowledge
graph and a list of questions. Everything is derived from the workload seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from sskgqa.annotation import LabeledQuestion, label_question
from sskgqa.kg import KnowledgeGraph, build_kg
from sskgqa.querygraph import build_chain, execute, to_sparql
from sskgqa.structures import Taxonomy
from sskgqa.synth import three_hop_benchmark

# chain3_overlap: 300 questions draw ~116 of the 120 composite decoy
# relations, so the relation count (which sets the enumeration cost) is
# nearly the same for every seed.
CHAIN3_QUESTIONS = 300


@dataclass(frozen=True)
class MixedSize:
    entities: int = 400
    relations: int = 12
    degree: int = 2  # out-edges (and, but for collisions, in-edges) per entity
    train_per_label: int = 60
    # Test questions per label: test_unit times the label's weight. Cheap
    # structures (SS1, SS2, SS4) get weight 1 and the costly ones weight 2, so
    # the median question falls inside one structure's cost band instead of
    # in the gap between the cheap and the costly ones.
    test_unit: int = 8
    test_weights: tuple[tuple[str, int], ...] = (
        ("SS1", 1), ("SS2", 1), ("SS3", 2), ("SS4", 1), ("SS5", 2), ("SS6", 2),
    )


# One phrasing per SS label. The classifier's encoder pools tokens without
# attention, so each template has function words of its own.
TEMPLATES = {
    "SS1": "what {r0} does {topic} have",
    "SS2": "what is the {r1} of the {r0} of {topic}",
    "SS3": "tell me the {r2} of the {r1} of the {r0} of {topic}",
    "SS4": "which {r0} of {topic} has {rc} {val}",
    "SS5": "find the {r1} of the {r0} of {topic} with {rc} {val}",
    "SS6": "name the {r1} reached from a {r0} of {topic} that has {rc} {val}",
}
# (hop count, hop index of the constrained node or None) per label
SHAPES = {
    "SS1": (1, None),
    "SS2": (2, None),
    "SS3": (3, None),
    "SS4": (1, 1),
    "SS5": (2, 2),
    "SS6": (2, 1),
}


def chain3_inputs(seed: int, n_questions: int = CHAIN3_QUESTIONS) -> tuple[KnowledgeGraph, list[LabeledQuestion]]:
    return three_hop_benchmark(n_questions, seed=seed)


def _random_kg(rng: np.random.Generator, size: MixedSize) -> KnowledgeGraph:
    """Random KG in which every entity has `degree` out- and in-edges.

    Each of `degree` rounds links entity i to a random permutation of the
    entities under a random relation. Fixed degrees keep the candidate counts,
    and so the per-question cost, alike from seed to seed.
    """
    # Entity names split into two small-number fragments ("e_3_17" -> e, 3, 17)
    # so that held-out questions reuse tokens the encoders saw in training.
    ents = [f"e_{i // 20}_{i % 20}" for i in range(size.entities)]
    triples: set[tuple[str, str, str]] = set()
    for _ in range(size.degree):
        tails = rng.permutation(size.entities)
        rels = rng.integers(size.relations, size=size.entities)
        for h in range(size.entities):
            if h != tails[h]:
                triples.add((ents[h], f"r{int(rels[h])}", ents[int(tails[h])]))
    return build_kg(sorted(triples))


def _walk(rng, kg: KnowledgeGraph, hops: int, constrain_at):
    """Random forward walk from a random topic; None when it dead-ends."""
    node = int(rng.integers(kg.num_entities))
    topic = kg.entities.symbol_of(node)
    path, constraint = [], None
    for i in range(hops + 1):
        if i == constrain_at:
            edges = kg.out_edges(node)
            if not edges:
                return None
            rid, val = edges[int(rng.integers(len(edges)))]
            constraint = (i, kg.relations.symbol_of(rid), kg.entities.symbol_of(val))
        if i == hops:
            break
        edges = kg.out_edges(node)
        if not edges:
            return None
        rid, node = edges[int(rng.integers(len(edges)))]
        path.append(kg.relations.symbol_of(rid))
    return topic, path, constraint


def _mixed_questions(rng, kg, tax: Taxonomy, per_label: dict[str, int], prefix: str, taken: set):
    """per_label[label] questions for each of SS1..SS6, SPARQL only (no hops).

    A question is kept only when its SPARQL labels back to the intended
    structure and its gold answer set is non-empty.
    """
    out: list[LabeledQuestion] = []
    for label, template in TEMPLATES.items():
        hops, constrain_at = SHAPES[label]
        made = attempts = 0
        while made < per_label[label]:
            attempts += 1
            if attempts > 200 * per_label[label] + 200:
                raise RuntimeError(f"cannot generate {label} questions on this KG")
            walk = _walk(rng, kg, hops, constrain_at)
            if walk is None:
                continue
            topic, path, constraint = walk
            gold = build_chain(topic, [(r, False) for r in path], [constraint] if constraint else [])
            sparql = to_sparql(gold)
            if sparql in taken:
                continue
            answers = sorted(kg.entities.symbol_of(a) for a in execute(gold, kg))
            words = {f"r{i}": r for i, r in enumerate(path)}
            if constraint:
                words.update(rc=constraint[1], val=constraint[2])
            q = LabeledQuestion(
                id=f"{prefix}{len(out)}",
                question=template.format(topic=topic, **words),
                topic_entity=topic,
                answers=answers,
                sparql=sparql,
            )
            if not answers or label_question(q, tax) != label:
                continue
            taken.add(sparql)
            out.append(q)
            made += 1
    return out


def mixed_inputs(seed: int, tax: Taxonomy, size: MixedSize = MixedSize()):
    """(kg, train questions, test questions) for mixed_learned/train_models."""
    rng = np.random.default_rng(seed)
    kg = _random_kg(rng, size)
    taken: set[str] = set()
    train = _mixed_questions(rng, kg, tax, dict.fromkeys(TEMPLATES, size.train_per_label), "tr", taken)
    test_counts = {label: size.test_unit * w for label, w in size.test_weights}
    test = _mixed_questions(rng, kg, tax, test_counts, "te", taken)
    order = rng.permutation(len(test))
    return kg, train, [test[i] for i in order]


def label_histogram(questions, tax: Taxonomy) -> dict[str, int]:
    return dict(sorted(Counter(label_question(q, tax) for q in questions).items()))


def first_per_label(train: list[LabeledQuestion], size: MixedSize, k: int) -> list[LabeledQuestion]:
    """The first k questions of each label block of a training split."""
    n = size.train_per_label
    return [q for b in range(len(TEMPLATES)) for q in train[b * n : b * n + k]]


def problem_seeds(seed: int, k: int) -> list[int]:
    """Seeds of the k independent problems (KG, questions, models) of a run."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def weighted_per_label(train: list[LabeledQuestion], size: MixedSize, unit: int) -> list[LabeledQuestion]:
    """`unit` questions of a label block per unit of the label's test weight:
    the training questions train_models answers. As in the test split, the
    median question then falls inside the costly structures' cost band."""
    n = size.train_per_label
    weights = dict(size.test_weights)
    return [q for b, label in enumerate(TEMPLATES) for q in train[b * n : b * n + unit * weights[label]]]
