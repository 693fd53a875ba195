"""Semantic-structure classifier: question encoder + frozen entity embedding,
fused by an elementwise complex (rotation) product, then a softmax head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import EncoderConfig, SequenceEncoder, Vocab, read_checkpoint, write_checkpoint
from .embeddings import EmbeddingTable
from .optim import AdamW, clip_global_norm
from .structures import Taxonomy

MAGIC = "ssk-clf v1"


class ClassifierError(Exception):
    pass


@dataclass
class ClassifierTrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    dropout: float = 0.1
    epochs: int = 50
    clip_norm: float = 1.0
    seed: int = 0
    d_model: int = 24
    heads: int = 3
    ff_width: int = 48
    use_attention: bool = False

    def __post_init__(self) -> None:
        if min(self.lr, self.batch_size, self.epochs, self.clip_norm) <= 0:
            raise ValueError("config values must be positive")


def rotate_fuse(eh: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """Fuse entity and question vectors: s = eh + eq + (eh complex-mul eq).

    Both vectors are half-split (lower half real, higher half imaginary).
    """
    eh = np.asarray(eh, dtype=np.float64).reshape(1, -1)
    eq = np.asarray(eq, dtype=np.float64).reshape(1, -1)
    if eh.shape != eq.shape:
        raise ValueError(f"dimension mismatch: {eh.shape[1]} vs {eq.shape[1]}")
    if eh.shape[1] % 2 != 0:
        raise ValueError("dimension must be even")
    et = ad.complex_mul_packed(eh, eq)
    return (eh + eq + et)[0]


def _fuse_node(eh: ad.Node, eq: ad.Node) -> ad.Node:
    return ad.add(ad.add(eh, eq), ad.complex_mul(eh, eq))


class ClassifierModel:
    def __init__(
        self,
        encoder: SequenceEncoder,
        table: EmbeddingTable,
        taxonomy: Taxonomy,
        rng: np.random.Generator,
    ):
        if encoder.cfg.out_dim != table.d:
            raise ClassifierError("encoder output dim must equal embedding dim")
        self.encoder = encoder
        self.table = table  # frozen; never trained
        self.labels = taxonomy.labels()
        k = len(self.labels)
        self.w = ad.parameter(rng.normal(0.0, 0.1, size=(table.d, k)))
        self.b = ad.parameter(np.zeros((1, k)))

    def parameters(self) -> list[ad.Node]:
        return self.encoder.parameters() + [self.w, self.b]

    def _logits(
        self,
        tokens: list[str],
        topic: int,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ad.Node:
        eq = self.encoder.forward(tokens, training=training, rng=rng)
        eh = ad.constant(self.table.lookup_entity(topic))
        s = _fuse_node(eh, eq)
        return ad.add(ad.matmul(s, self.w), self.b)

    def classify(self, tokens: list[str], topic: int) -> np.ndarray:
        """Probability vector over the taxonomy classes."""
        return ad.softmax(self._logits(tokens, topic)).value[0].copy()

    def predict(self, tokens: list[str], topic: int) -> str:
        return self.labels[int(np.argmax(self.classify(tokens, topic)))]

    def accuracy(self, dataset: list[tuple[list[str], int, str]]) -> float:
        hits = sum(1 for toks, topic, label in dataset if self.predict(toks, topic) == label)
        return hits / len(dataset)


def train_classifier(
    dataset: list[tuple[list[str], int, str]],
    table: EmbeddingTable,
    taxonomy: Taxonomy,
    cfg: ClassifierTrainConfig,
) -> ClassifierModel:
    """Minimize mean cross-entropy over (tokens, topic id, gold label) triples.

    The embedding table stays frozen; only encoder and head parameters train.
    """
    labels = taxonomy.labels()
    for _, _, label in dataset:
        if label not in labels:
            raise ClassifierError(f"label outside taxonomy: {label}")
    rng = np.random.default_rng(cfg.seed)
    vocab = Vocab.from_sequences([toks for toks, _, _ in dataset])
    enc_cfg = EncoderConfig(
        out_dim=table.d,
        d_model=cfg.d_model,
        heads=cfg.heads,
        ff_width=cfg.ff_width,
        use_attention=cfg.use_attention,
        dropout=cfg.dropout,
    )
    model = ClassifierModel(SequenceEncoder(vocab, enc_cfg, rng), table, taxonomy, rng)
    params = model.parameters()
    opt = AdamW(lr=cfg.lr)
    order = np.arange(len(dataset))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            for p in params:
                p.zero_grad()
            losses = []
            for i in batch:
                toks, topic, label = dataset[i]
                logits = model._logits(toks, topic, training=True, rng=rng)
                probs = ad.softmax(logits)
                target = labels.index(label)
                losses.append(ad.scale(ad.log(ad.rows(ad.transpose(probs), [target])), -1.0))
            total = losses[0]
            for term in losses[1:]:
                total = ad.add(total, term)
            ad.backward(ad.scale(total, 1.0 / len(batch)))
            grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]
            clip_global_norm(grads, cfg.clip_norm)
            opt.step([p.value for p in params], grads)
    return model


def save_classifier(model: ClassifierModel, path: str) -> None:
    """`ssk-clf v1` checkpoint: config, vocab, labels, encoder payload, then
    the head weights and bias."""
    write_checkpoint(
        path, MAGIC, model.encoder, {"labels": model.labels}, (model.w.value, model.b.value)
    )


def load_classifier(model_path: str, table: EmbeddingTable, taxonomy: Taxonomy) -> ClassifierModel:
    cfg, vocab, sections, flat = read_checkpoint(
        model_path, MAGIC, ("labels",), lambda cfg, s: (cfg.out_dim + 1) * len(s["labels"])
    )
    if sections["labels"] != taxonomy.labels():
        raise ClassifierError("checkpoint taxonomy labels do not match")
    rng = np.random.default_rng(0)
    model = ClassifierModel(SequenceEncoder(vocab, cfg, rng), table, taxonomy, rng)
    off = model.encoder.load_payload(flat)
    wsize = model.w.value.size
    model.w.value[...] = flat[off : off + wsize].reshape(model.w.value.shape)
    model.b.value[...] = flat[off + wsize :].reshape(model.b.value.shape)
    return model
