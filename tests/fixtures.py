"""Fixtures and probes only the tests use: a random KG with questions along
its paths, a random KG of fixed degree, a separable structure-classification dataset, the triplet loss
of one triplet, a spy that counts the sequences an encoder encodes, a
probe that counts the autodiff nodes a run builds, the JSON entries of a
taxonomy, and an embedding table's tail scores and filtered MRR."""

import numpy as np

from reference import reference_chain
from sskgqa import autodiff as ad
from sskgqa.annotation import LabeledQuestion
from sskgqa.embeddings import EmbeddingTable, init_table, score_nodes
from sskgqa.kg import KnowledgeGraph, build_kg
from sskgqa.querygraph import build_chain, execute, to_sparql


def random_fixture(
    rng: np.random.Generator, n_entities: int = 15, n_relations: int = 4, n_questions: int = 6
) -> tuple[KnowledgeGraph, list[LabeledQuestion]]:
    """Random KG plus questions whose gold graphs follow actual KG paths."""
    ents = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]
    n_triples = int(rng.integers(n_entities, 3 * n_entities))
    triples = {
        (
            ents[int(rng.integers(n_entities))],
            rels[int(rng.integers(n_relations))],
            ents[int(rng.integers(n_entities))],
        )
        for _ in range(n_triples)
    }
    kg = build_kg(sorted(triples))
    questions = []
    attempts = 0
    while len(questions) < n_questions and attempts < 200:
        attempts += 1
        hops = int(rng.integers(1, 4))
        node = int(rng.integers(kg.num_entities))
        topic = kg.entities.symbol_of(node)
        path = []
        ok = True
        for _ in range(hops):
            edges = kg.out_edges(node)
            if not edges:
                ok = False
                break
            rid, node = edges[int(rng.integers(len(edges)))]
            path.append((kg.relations.symbol_of(rid), False))
        if not ok:
            continue
        gold = build_chain(topic, path)
        answers = sorted(kg.entities.symbol_of(a) for a in execute(gold, kg))
        rel_words = " ".join(r for r, _ in path)
        questions.append(
            LabeledQuestion(
                id=f"rand{len(questions)}",
                question=f"{topic} {rel_words}",
                topic_entity=topic,
                answers=answers,
                hops=hops,
                sparql=to_sparql(gold),
            )
        )
    return kg, questions


def degree_kg(seed: int, entities: int = 400, relations: int = 12, degree: int = 2) -> KnowledgeGraph:
    """Random KG in which every entity has `degree` out- and in-edges, built
    as the benchmark builds the KG of a mixed problem: each of `degree`
    rounds links entity i to a random permutation of the entities under a
    random relation, self-loops left out."""
    rng = np.random.default_rng(seed)
    ents = [f"e_{i // 20}_{i % 20}" for i in range(entities)]
    triples: set[tuple[str, str, str]] = set()
    for _ in range(degree):
        tails = rng.permutation(entities)
        rels = rng.integers(relations, size=entities)
        for h in range(entities):
            if h != tails[h]:
                triples.add((ents[h], f"r{int(rels[h])}", ents[int(tails[h])]))
    return build_kg(sorted(triples))


def separable_classifier_dataset(
    taxonomy_labels: list[str], per_class: int = 8, n_entities: int = 12, d: int = 16, seed: int = 0
) -> tuple[list[tuple[list[str], int, str]], EmbeddingTable]:
    """Linearly separable structure-classification fixture: every question of
    class k carries a class marker token."""
    rng = np.random.default_rng(seed)
    filler = ["what", "is", "the", "of", "who", "which", "that"]
    table = init_table("transe", n_entities, 4, d, seed)
    dataset = []
    for k, label in enumerate(taxonomy_labels):
        for j in range(per_class):
            words = ["[CLS]", f"marker{k}"]
            words += [filler[int(rng.integers(0, len(filler)))] for _ in range(3)]
            words.append("[SEP]")
            dataset.append((words, int((k + j) % n_entities), label))
    return dataset, table


def count_forwards(encoder) -> list[int]:
    """Spy on `encoder.forward`: the returned list gets the number of
    sequences of each later call."""
    calls = []
    forward = encoder.forward

    def spy(*sequences, **kwargs):
        calls.append(len(sequences))
        return forward(*sequences, **kwargs)

    encoder.forward = spy
    return calls


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


def triplet_loss(f_q, f_p, f_n, alpha: float) -> float:
    """max(||f_q - f_p|| - ||f_q - f_n|| + alpha, 0) of one triplet of
    vectors: `ad.triplet_hinge`, the loss train_ranker minimizes, of one
    negative."""
    return float(ad.triplet_hinge(ad.constant(np.stack([f_q, f_p, f_n])), alpha).value[0, 0])


def taxonomy_entries(tax) -> list[dict]:
    """The `load_taxonomy` JSON list of a taxonomy, each shape drawn as its
    chain."""
    entries = []
    for s in tax:
        kinds, edges = reference_chain(*s.shape)
        entries.append({"label": s.label, "kinds": list(kinds), "edges": [list(e) for e in edges]})
    return entries


def score_tails(table: EmbeddingTable, h: int, r: int, tails) -> np.ndarray:
    """Scores of (h, r, t') for a vector of candidate tails."""
    n = len(tails)
    hs, rs = np.full(n, h), np.full(n, r)
    return score_nodes(ad.constant(table.ent), ad.constant(table.rel), table.kind, hs, rs, tails).value[:, 0]


def filtered_mrr(table: EmbeddingTable, kg: KnowledgeGraph) -> float:
    """Mean reciprocal rank of true tails, filtering other true triples."""
    ranks = []
    all_tails = np.arange(kg.num_entities)
    for h, r, t in kg.iter_triples():
        scores = score_tails(table, h, r, all_tails)
        # leaving out every true tail of (h, r) leaves out t, which never outscores itself
        mask = np.ones(kg.num_entities, dtype=bool)
        mask[list(kg.tails_of[h][r])] = False
        rank = 1 + int((scores[mask] > scores[t]).sum())
        ranks.append(1.0 / rank)
    return float(np.mean(ranks))
