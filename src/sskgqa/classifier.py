"""Semantic-structure classifier: question encoder + frozen entity embedding,
fused by an elementwise complex (rotation) product, then a softmax head."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .encoder import ENCODE_CHUNK, EncoderConfig, SequenceEncoder, Vocab, read_checkpoint, write_checkpoint
from .embeddings import EmbeddingTable
from .optim import AdamW, ParameterBuffer, train_step
from .structures import Taxonomy

MAGIC = "ssk-clf v1"
BATCH_SIZE = 32  # training examples per optimizer step
DROPOUT = 0.1  # on the pooled question vector in training


class ClassifierError(Exception):
    pass


@dataclass
class ClassifierTrainConfig:
    lr: float = 1e-2
    epochs: int = 50
    seed: int = 0
    d_model: int = EncoderConfig.d_model
    use_attention: bool = False
    # the encoder settings above, with DROPOUT and EncoderConfig's heads and
    # ff_width, as an EncoderConfig, made, and so checked, with the config;
    # train_classifier sets its out_dim, here 1, to the embedding table's
    # dimension
    encoder: EncoderConfig = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # `not x > 0` also refuses nan
        if not all(v > 0 for v in (self.lr, self.epochs)):
            raise ValueError("config values must be positive")
        self.encoder = EncoderConfig(
            out_dim=1, d_model=self.d_model, use_attention=self.use_attention, dropout=DROPOUT
        )


def fuse(eh: ad.Node, eq: ad.Node) -> ad.Node:
    """Fuse entity and question vectors: s = eh + eq + (eh complex-mul eq),
    both half-split (lower half real, higher half imaginary)."""
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
        id_lists: list[list[int]],
        topics: list[int],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ad.Node:
        """(n, k) class logits of n (token ids, topic id) examples, from one
        padded encoder forward."""
        eq = self.encoder.forward(*id_lists, training=training, rng=rng)
        eh = ad.constant(self.table.lookup_entities(topics))
        s = fuse(eh, eq)
        return ad.add(ad.matmul(s, self.w), self.b)

    def classify(self, tokens: list[str], topic: int) -> np.ndarray:
        """Probability vector over the taxonomy classes (under no_grad)."""
        with ad.no_grad():
            logits = self._logits([self.encoder.vocab.encode(tokens)], [topic])
            return ad.softmax(logits).value[0].copy()

    def predict(self, tokens: list[str], topic: int) -> str:
        return self.labels[int(np.argmax(self.classify(tokens, topic)))]

    def accuracy(self, dataset: list[tuple[list[str], int, str]]) -> float:
        """Share of (tokens, topic, label) examples predicted right, scored in
        batched forwards of at most ENCODE_CHUNK examples under no_grad."""
        if not dataset:
            raise ClassifierError("accuracy of an empty dataset")
        hits = 0
        encode = self.encoder.vocab.encode
        for i in range(0, len(dataset), ENCODE_CHUNK):
            toks, topics, labels = zip(*dataset[i : i + ENCODE_CHUNK])
            with ad.no_grad():
                best = np.argmax(self._logits([encode(t) for t in toks], topics).value, axis=1)
            hits += sum(self.labels[j] == label for j, label in zip(best, labels))
        return hits / len(dataset)


def cross_entropy(logits: ad.Node, targets: list[int]) -> ad.Node:
    """Mean over rows of -log softmax(logits)[row, target].

    The target probability is picked before the log: a non-target class whose
    probability underflows to 0 would otherwise add 0 * log(0) = nan.
    """
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(targets)), targets] = 1.0
    picked = ad.rowsum(ad.mul(ad.softmax(logits), ad.constant(onehot)))
    return ad.scale(ad.sum_all(ad.log(picked)), -1.0 / len(targets))


def train_classifier(
    dataset: list[tuple[list[str], int, str]],
    table: EmbeddingTable,
    taxonomy: Taxonomy,
    cfg: ClassifierTrainConfig,
) -> ClassifierModel:
    """Minimize mean cross-entropy over (tokens, topic id, gold label) triples,
    one padded forward and backward per minibatch.

    The embedding table stays frozen; only encoder and head parameters train.
    """
    if not dataset:
        raise ClassifierError("no training examples")
    labels = taxonomy.labels()
    for _, _, label in dataset:
        if label not in labels:
            raise ClassifierError(f"label outside taxonomy: {label}")
    targets = [labels.index(label) for _, _, label in dataset]
    rng = np.random.default_rng(cfg.seed)
    vocab = Vocab.from_sequences([toks for toks, _, _ in dataset])
    enc_cfg = replace(cfg.encoder, out_dim=table.d)
    model = ClassifierModel(SequenceEncoder(vocab, enc_cfg, rng), table, taxonomy, rng)
    ids = [vocab.encode(toks) for toks, _, _ in dataset]
    buffer = ParameterBuffer(model.parameters())
    opt = AdamW(lr=cfg.lr)
    order = np.arange(len(dataset))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            logits = model._logits(
                [ids[i] for i in batch],
                [dataset[i][1] for i in batch],
                training=True,
                rng=rng,
            )
            train_step(opt, buffer, cross_entropy(logits, [targets[i] for i in batch]))
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
