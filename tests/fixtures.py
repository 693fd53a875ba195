"""Fixtures and probes only the tests use: a random KG with questions along
its paths, a random KG of fixed degree, a separable structure-classification dataset, the triplet loss
of one triplet, a spy that counts the sequences an encoder encodes and one
that counts the sequences of each block it runs, a classifier's class
probabilities, a probe that counts the autodiff nodes a run builds, the JSON entries of a
taxonomy, an embedding table's tail scores and filtered MRR, and the
mutations of an input file's bytes."""

import re

import numpy as np
from hypothesis import strategies as st

from reference import reference_chain, reference_constant
from sskgqa import autodiff as ad
from sskgqa import encoder as encoder_module
from sskgqa.annotation import LabeledQuestion
from sskgqa.classifier import softmax_rows
from sskgqa.embeddings import EmbeddingTable, init_table, score_nodes
from sskgqa.kg import KnowledgeGraph, build_kg
from sskgqa.querygraph import build_chain, execute, to_sparql
from sskgqa.ranker import triplet_hinge


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


def count_blocks(monkeypatch) -> list[int]:
    """Spy on the layouts the encoder builds: the returned list gets the
    number of sequences of each block a later forward runs."""
    blocks = []
    layout = encoder_module.batch_layout

    def spy(sequences):
        blocks.append(len(sequences))
        return layout(sequences)

    monkeypatch.setattr(encoder_module, "batch_layout", spy)
    return blocks


def class_probabilities(model, tokens: list[str], topic: int) -> np.ndarray:
    """A classifier's probability vector over its taxonomy classes for one
    question, from its logits."""
    return softmax_rows(model._logits([model.encoder.vocab.encode(tokens)], [topic]))[0]


def graph_nodes_while(run) -> tuple[int, int]:
    """(nodes created, nodes created with a backward) while run() runs."""
    counts = [0, 0]
    init = ad.Node.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts[0] += 1
        counts[1] += self._backward is not None

    ad.Node.__init__ = counting_init
    try:
        run()
    finally:
        ad.Node.__init__ = init
    return counts[0], counts[1]


def triplet_loss(f_q, f_p, f_n, alpha: float) -> float:
    """max(||f_q - f_p|| - ||f_q - f_n|| + alpha, 0) of one triplet of
    vectors: `triplet_hinge`, the loss train_ranker minimizes, of one
    negative."""
    return float(triplet_hinge(reference_constant(np.stack([f_q, f_p, f_n])), alpha).value[0, 0])


def taxonomy_entries(tax) -> list[dict]:
    """The `load_taxonomy` JSON list of a taxonomy, each shape drawn as its
    chain."""
    entries = []
    for s in tax.structures:
        kinds, edges = reference_chain(*s.shape)
        entries.append({"label": s.label, "kinds": list(kinds), "edges": [list(e) for e in edges]})
    return entries


def score_tails(table: EmbeddingTable, h: int, r: int, tails) -> np.ndarray:
    """Scores of (h, r, t') for a vector of candidate tails."""
    n = len(tails)
    hs, rs = np.full(n, h), np.full(n, r)
    return score_nodes(reference_constant(table.ent), reference_constant(table.rel), table.kind, hs, rs, tails).value[:, 0]


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


# what a mutation writes over a number of a file's header
HEADER_NUMBERS = (b"0", b"-1", b"999999999", b"nan")


def text_end(data: bytes) -> int:
    """Where the text of an input file ends: after the `floats` line of a
    model file (`ssk-emb`, `ssk-clf` or `ssk-rank`); a KG TSV is all text."""
    if data.startswith(b"ssk-"):
        return data.index(b"\n", data.index(b"\nfloats ") + 1) + 1
    return len(data)


def header_numbers(data: bytes) -> list[tuple[int, int]]:
    """The (start, end) offsets of the whole numbers in a model file's
    header: the version of its magic line, the table's sizes, the encoder's
    dims and the section and float counts. A KG TSV has none."""
    lines = re.finditer(rb"\Assk-.*|^(?:sizes|dims|vocab|labels|kg|table|floats) .*", data[: text_end(data)], re.M)
    numbers = rb"(?<![\d.])\d+(?![\d.])"
    return [(line.start() + m.start(), line.start() + m.end()) for line in lines for m in re.finditer(numbers, line.group())]


def set_number(data: bytes, span: tuple[int, int], number: bytes) -> bytes:
    return data[: span[0]] + number + data[span[1] :]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """`data` with one mutation: truncated, one bit flipped, bytes inserted,
    a header number set to one of HEADER_NUMBERS, or one line dropped,
    duplicated or cut short."""
    kinds = ["truncate", "flip", "insert", "drop", "duplicate", "cut"] + ["number"] * bool(header_numbers(data))
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1 :]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    if kind == "number":
        return set_number(data, draw(st.sampled_from(header_numbers(data))), draw(st.sampled_from(HEADER_NUMBERS)))
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    return b"\n".join(lines)
