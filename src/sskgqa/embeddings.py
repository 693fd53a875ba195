"""Entity/relation embeddings trained with TransE or ComplEx scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .kg import KnowledgeGraph
from .optim import AdamW, ParameterBuffer, train_step

KINDS = ("transe", "complex")
MAX_ENTITY_NORM = 10.0  # drift clamp after each update

MAGIC = "ssk-emb v2"


class EmbeddingError(Exception):
    pass


@dataclass
class EmbedTrainConfig:
    d: int = 64
    epochs: int = 100
    lr: float = 0.05
    negatives: int = 8
    margin: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        # `not x > 0` also refuses nan; 0 epochs is allowed
        if not all(v > 0 for v in (self.d, self.epochs + 1, self.negatives, self.lr, self.margin)):
            raise ValueError("config values must be positive")


@dataclass
class EmbeddingTable:
    kind: str
    ent: np.ndarray  # (N, d)
    rel: np.ndarray  # (R, d)
    kg: str = ""  # the fingerprint of the KG whose ids index the rows; "" if unknown
    @property
    def d(self) -> int:
        return self.ent.shape[1]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise EmbeddingError(f"unknown model kind: {self.kind}")
        if self.kind == "complex" and self.ent.shape[1] % 2 != 0:
            raise EmbeddingError(f"{self.kind} requires an even dimension")

    def lookup_entities(self, ids) -> np.ndarray:
        """A copy of the given entities' rows, (len(ids), d)."""
        for e in ids:
            if not 0 <= e < self.ent.shape[0]:
                raise EmbeddingError(f"entity id out of range: {e}")
        return self.ent[np.asarray(ids, dtype=np.int64)]


def init_table(kind: str, n_entities: int, n_relations: int, d: int, seed: int) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    ent = rng.normal(0.0, 0.5, size=(n_entities, d))
    rel = rng.normal(0.0, 0.5, size=(n_relations, d))
    return EmbeddingTable(kind, ent, rel)


def score_nodes(
    ent: ad.Node, rel: ad.Node, kind: str, h: np.ndarray, r: np.ndarray, t: np.ndarray
) -> ad.Node:
    """Batched differentiable scores, one row per triple, as one (n, 1) node.

    Same arithmetic, step for step, as the chain of row gathers and
    elementwise nodes that spells out each formula, so the value and the
    gradients have the same bits. The forward keeps only what the backward
    reads: for TransE the difference h + r - t and its row norms, for
    ComplEx the gathered rows and h * r. The backward adds into `ent` and
    `rel` in the order that chain's walk did: the heads' rows, the
    relations', then the tails'.
    """
    h, r, t = (np.asarray(i, dtype=np.int64) for i in (h, r, t))
    n_ent, n_rel = ent.shape[0], rel.shape[0]
    eh = ent.value[h]
    if kind == "complex":
        er, et = rel.value[r], ent.value[t]
        hr = ad.complex_mul_packed(eh, er)

        def complex_backward(g):
            g_hr = g * et  # the gradient of h * r
            ent.accumulate(ad.scatter_rows(h, ad.conj_mul_packed(g_hr, er), n_ent))
            rel.accumulate(ad.scatter_rows(r, ad.conj_mul_packed(g_hr, eh), n_rel))
            ent.accumulate(ad.scatter_rows(t, g * hr, n_ent))

        return ad.Node((hr * et).sum(axis=1, keepdims=True), complex_backward)
    x = eh
    x += rel.value[r]
    x -= ent.value[t]
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))

    def distance_backward(g):
        # the gradient of -||x||, then of h, r and -t
        safe = np.where(norms > 0.0, norms, 1.0)
        gx = np.where(norms > 0.0, (g * -1.0) / safe, 0.0) * x
        ent.accumulate(ad.scatter_rows(h, gx, n_ent))
        rel.accumulate(ad.scatter_rows(r, gx, n_rel))
        np.negative(gx, out=gx)  # the tails' -gx, in place: one batch-sized array fewer
        ent.accumulate(ad.scatter_rows(t, gx, n_ent))

    return ad.Node(norms * -1.0, distance_backward)


def margin_loss(s_pos: ad.Node, s_neg: ad.Node, margin: float) -> ad.Node:
    """train's loss of (n, 1) positive and (m, 1) negative scores as one
    (1, 1) node. Same arithmetic, step for step, as the chain of margin add,
    the negatives' -1 scale, logsigmoid (min(x, 0) - log1p(exp(-|x|))), sum
    and -1/n scale per side and the add of the sides, so it has that chain's
    bits; the positives get their gradient first, as in that chain's walk."""
    x_pos = s_pos.value + margin
    x_neg = (s_neg.value + margin) * -1.0
    c_pos, c_neg = -1.0 / len(x_pos), -1.0 / len(x_neg)
    pos, neg = ((np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))).sum() for x in (x_pos, x_neg))

    def backward(g):
        s_pos.accumulate(np.full_like(x_pos, (g * c_pos)[0, 0]) / (1.0 + np.exp(x_pos)))
        s_neg.accumulate(np.full_like(x_neg, (g * c_neg)[0, 0]) / (1.0 + np.exp(x_neg)) * -1.0)

    return ad.Node(pos * c_pos + neg * c_neg, backward)


@np.errstate(all="ignore")  # numpy's warnings on the way to a diverging run, refused below
def train(kg: KnowledgeGraph, cfg: EmbedTrainConfig, kind: str = "transe") -> tuple[EmbeddingTable, list[float]]:
    """Train a table on the KG triples with uniform corruption negatives.

    Loss per positive: -log sigmoid(margin + score) plus the mean of
    -log sigmoid(-margin - score) over its corruptions. Returns the table and
    the per-epoch loss history. A run that diverges, to a loss or an entity
    norm that is not finite, stops at that epoch with EmbeddingError.
    """
    if kg.num_triples == 0:
        raise EmbeddingError("knowledge graph has no triples")
    table = init_table(kind, kg.num_entities, kg.num_relations, cfg.d, cfg.seed)
    heads, rels, tails = np.array(list(kg.iter_triples())).T
    rng = np.random.default_rng(cfg.seed + 1)
    opt = AdamW(lr=cfg.lr)
    ent, rel = ad.parameter(table.ent), ad.parameter(table.rel)
    buffer = ParameterBuffer([ent, rel])
    table.ent, table.rel = ent.value, rel.value  # views of the buffer, which _clamp edits in place
    table.kg = kg.fingerprint()
    history: list[float] = []
    for epoch in range(cfg.epochs):
        s_pos = score_nodes(ent, rel, kind, heads, rels, tails)
        # uniform corruptions: replace head or tail
        k = cfg.negatives
        nh = np.repeat(heads, k)
        nr = np.repeat(rels, k)
        nt = np.repeat(tails, k)
        corrupt_head = rng.random(nh.size) < 0.5
        repl = rng.integers(0, kg.num_entities, size=nh.size)
        nh = np.where(corrupt_head, repl, nh)
        nt = np.where(corrupt_head, nt, repl)
        s_neg = score_nodes(ent, rel, kind, nh, nr, nt)
        loss = margin_loss(s_pos, s_neg, cfg.margin)
        history.append(float(loss.value[0, 0]))
        if not math.isfinite(history[-1]):
            raise EmbeddingError(f"training diverged: the loss of epoch {epoch + 1} is {history[-1]}")
        train_step(opt, buffer, loss)
        del s_pos, s_neg, loss  # this epoch's nodes, freed before the next one is built
        _clamp(table, epoch)
    return table, history


def _clamp(table: EmbeddingTable, epoch: int) -> None:
    norms = np.linalg.norm(table.ent, axis=1, keepdims=True)
    if not np.isfinite(norms).all():  # rescaling by MAX_ENTITY_NORM / inf would zero the rows
        raise EmbeddingError(f"training diverged: an entity norm of epoch {epoch + 1} is not finite")
    over = norms > MAX_ENTITY_NORM
    if over.any():
        table.ent[...] = np.where(over, table.ent * (MAX_ENTITY_NORM / norms), table.ent)


def save_table(table: EmbeddingTable, path: str) -> None:
    """`ssk-emb v2` checkpoint: the kind, the sizes (entities, relations,
    dimension), the KG fingerprint and the rows, entities then relations."""
    (n, d), r = table.ent.shape, len(table.rel)
    ckpt.write(path, MAGIC, {"kind": table.kind, "sizes": f"{n} {r} {d}"}, {"kg": [table.kg]}, [table.ent, table.rel])


def load_table(path: str) -> EmbeddingTable:
    def size(header: dict) -> int:
        sizes = header["sizes"].split()
        if len(sizes) != 3 or not all(v.isdecimal() for v in sizes) or len(header["kg"]) != 1:
            raise ValueError(f"needs 3 whole-number sizes and 1 kg line, has {header['sizes']!r} and {len(header['kg'])}")
        return (int(sizes[0]) + int(sizes[1])) * int(sizes[2])

    header, flat = ckpt.read(path, MAGIC, ("kind", "sizes"), ("kg",), size)
    n, r, d = map(int, header["sizes"].split())
    try:
        return EmbeddingTable(header["kind"], flat[: n * d].reshape(n, d), flat[n * d :].reshape(r, d), header["kg"][0])
    except EmbeddingError as exc:
        raise ckpt.CheckpointError(f"{path}: {exc}") from None
