"""Query-graph ranking: one shared sequence encoder, triplet-loss training,
top-1 selection by Euclidean proximity."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .candidates import EnumConfig, enumerate_candidates
from .encoder import EncoderConfig, SequenceEncoder, Vocab, batch_layout, encoder_header, parse_encoder_header
from .kg import KnowledgeGraph
from .optim import AdamW, ParameterBuffer, train_step
from .querygraph import Chain, canonicalize, serialize_tokens, split_symbol
from .structures import Taxonomy

MAGIC = "ssk-rank v1"


class RankerError(Exception):
    pass


@dataclass
class RankTrainConfig:
    margin: float = 1.0
    negatives: int = 100
    lr: float = 1e-2
    dropout: float = 0.0
    heads: int = 3
    ff_width: int = 128
    out_dim: int = 24
    epochs: int = 20
    seed: int = 0
    # the encoder settings above as the EncoderConfig train_ranker builds
    # its encoder from (with attention and its d_model default); made, and
    # so checked, with the config
    encoder: EncoderConfig = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # `not x > 0` also refuses nan
        for name in ("margin", "lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("negatives", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        self.encoder = EncoderConfig(
            out_dim=self.out_dim, heads=self.heads, ff_width=self.ff_width, dropout=self.dropout
        )


class RankerModel:
    """Metric ranker: score(q, g) = -||f(q) - f(tokens(g))||."""

    def __init__(self, encoder: SequenceEncoder, trained_on: int = 0):
        self.encoder = encoder
        # questions `train_ranker` built triplets for; 0 for a loaded checkpoint
        self.trained_on = trained_on

    def score_all(self, question_tokens: list[str], cands: list[Chain]) -> list[float]:
        """Scores for one evaluation pass: the question and every candidate
        are encoded once, in one forward, which bounds its own memory.

        The candidates share a topic and a few relation and value symbols, so
        each distinct symbol is split once per call; nothing is kept across
        calls."""
        splits: dict[str, tuple[str, ...]] = {}

        def split(symbol: str) -> tuple[str, ...]:
            parts = splits.get(symbol)
            if parts is None:
                parts = splits[symbol] = tuple(split_symbol(symbol))
            return parts

        encode = self.encoder.vocab.encode
        vecs = self.encoder.forward(
            encode(question_tokens), *(encode(serialize_tokens(c, split=split)) for c in cands)
        )
        return (-np.linalg.norm(vecs[1:] - vecs[0], axis=1)).tolist()


class TokenOverlapRanker:
    """Deterministic baseline: Jaccard overlap of question and graph tokens.

    Stands in for a weak learned ranker in filtering experiments.
    """

    def score_all(self, question_tokens: list[str], cands: list[Chain]) -> list[float]:
        q = set(question_tokens)
        scores = []
        for c in cands:
            toks = set(serialize_tokens(c))
            scores.append(len(q & toks) / len(q | toks))
        return scores


def rank_candidates(ranker, question_tokens: list[str], cands: list[Chain]) -> list[Chain]:
    """Descending score; ties broken by ascending canonical string, which is
    computed only for candidates whose scores tie."""
    if not cands:
        raise RankerError("no candidates to rank")
    scores = ranker.score_all(question_tokens, cands)
    order = sorted(range(len(cands)), key=lambda i: -scores[i])
    ranked = []
    for _, tied in groupby(order, key=lambda i: scores[i]):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda i: canonicalize(cands[i]))
        ranked.extend(cands[i] for i in tied)
    return ranked


def build_training_triplets(
    dataset: list[tuple[list[str], Chain]],
    kg: KnowledgeGraph,
    cfg: RankTrainConfig,
    rng: np.random.Generator,
) -> list[tuple[list[str], list[str], list[list[str]]]]:
    """(question tokens, positive tokens, negative token lists) per question.

    Negatives are sampled uniformly without replacement from the candidates
    of the gold's shape, excluding the gold. A shape holds at most one
    constraint, so a chain equal to the gold up to constraint order is equal
    to it. Questions with no negatives or whose topic entity is not in the
    KG are skipped.
    """
    out = []
    base = EnumConfig()
    for q_tokens, gold in dataset:
        if gold.topic not in kg.entities:
            continue
        cands = enumerate_candidates(kg, gold.topic, base, gold.shape).graphs
        negs = [c for c in cands if c != gold]
        if not negs:
            continue
        n = min(cfg.negatives, len(negs))
        picked = rng.choice(len(negs), size=n, replace=False)
        out.append(
            (q_tokens, serialize_tokens(gold), [serialize_tokens(negs[i]) for i in picked])
        )
    return out


def triplet_hinge(f: ad.Node, alpha: float) -> ad.Node:
    """Mean triplet hinge of one (k+2, d) batch as one (1, 1) node: row 0 of
    f is the anchor, row 1 the positive and rows 2.. the k negatives; per
    negative max(||f0 - f1|| - ||f0 - fn|| + alpha, 0), then the sum times
    1/k.

    Same arithmetic, step for step, as the chain of rows gathers, sub,
    rownorm, add of the margin, relu, sum_all and scale nodes, so the value
    and the gradient have the same bits. Where a row gather's backward
    scatters into row 0, this adds the same terms in the same order, from
    0.0 (a running sum, then + 0.0 for the sign of a zero); every other row
    gets 0.0 minus its term, as a scatter of a negated gradient onto 0.0.

    When no hinge is active and every distance is finite, that gradient is
    0.0 in every cell for any finite incoming gradient, so the loss is a node
    with no backward and the gradient stops there. A nan or inf distance
    keeps the backward, so a non-finite batch still reaches the gradient
    check.
    """
    k = f.shape[0] - 2
    if k < 1:
        raise ad.ShapeError(f"triplet_hinge: needs an anchor, a positive and a negative, got {f.shape}")
    c = 1.0 / k
    diff = f.value[0] - f.value[1:]
    norms = np.sqrt((diff**2).sum(axis=1, keepdims=True))
    v = (norms[0] - norms[1:]) + alpha
    mask = v > 0
    value = (v * mask).sum() * c
    if not mask.any() and np.isfinite(norms).all():
        return ad.Node(value)

    def backward(g):
        gh = (g * c) * mask
        gdist = np.empty_like(norms)
        gdist[0] = np.cumsum(gh)[-1] + 0.0
        gdist[1:] = 0.0 - gh
        safe = np.where(norms > 0.0, norms, 1.0)
        gd = np.where(norms > 0.0, gdist / safe, 0.0) * diff
        grad = np.empty_like(f.value)
        grad[0] = np.cumsum(gd, axis=0)[-1] + 0.0
        grad[1:] = 0.0 - gd
        f.accumulate(grad)

    return ad.Node(value, backward)


def train_ranker(
    dataset: list[tuple[list[str], Chain]],
    kg: KnowledgeGraph,
    taxonomy: Taxonomy,
    cfg: RankTrainConfig,
) -> RankerModel:
    """Minimize the mean triplet loss over sampled (q, gold, negative) triplets."""
    rng = np.random.default_rng(cfg.seed)
    triplets = build_training_triplets(dataset, kg, cfg, rng)
    if not triplets:
        raise RankerError("no trainable questions (every candidate set is only the gold)")
    sequences = [t[0] for t in triplets] + [t[1] for t in triplets]
    for _, _, negs in triplets:
        sequences.extend(negs)
    vocab = Vocab.from_sequences(sequences)
    model = RankerModel(SequenceEncoder(vocab, cfg.encoder, rng), trained_on=len(triplets))
    encode = vocab.encode
    # (question, positive, negatives...) ids per triplet, each batch's layout
    # made once for all epochs
    batches = [[encode(q), encode(p), *(encode(n) for n in negs)] for q, p, negs in triplets]
    layouts = [batch_layout(b) for b in batches]
    buffer = ParameterBuffer(model.encoder.parameters())
    opt = AdamW(lr=cfg.lr)
    order = np.arange(len(triplets))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            f = model.encoder.forward(*batches[i], training=True, rng=rng, layout=layouts[i])
            train_step(opt, buffer, triplet_hinge(f, cfg.margin))
    return model


def save_ranker(model: RankerModel, path: str) -> None:
    """`ssk-rank v1` checkpoint: the encoder's config, vocab and parameters."""
    ckpt.write(path, MAGIC, *encoder_header(model.encoder), [p.value for p in model.encoder.parameters()])


def load_ranker(path: str) -> RankerModel:
    header, flat = ckpt.read(path, MAGIC, ("dims",), ("vocab",), lambda h: parse_encoder_header(h)[2])
    cfg, vocab, _ = parse_encoder_header(header)
    model = RankerModel(SequenceEncoder(vocab, cfg, np.random.default_rng(0)))
    ckpt.fill([p.value for p in model.encoder.parameters()], flat)
    return model
