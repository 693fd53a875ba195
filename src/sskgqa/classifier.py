"""Semantic-structure classifier: question encoder + frozen entity embedding,
fused by an elementwise complex (rotation) product, then a softmax head."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .encoder import EncoderConfig, SequenceEncoder, Vocab, encoder_header, parse_encoder_header
from .embeddings import EmbeddingTable, complex_mul_packed, conj_mul_packed
from .optim import AdamW, ParameterBuffer, train_step
from .structures import Taxonomy

MAGIC = "ssk-clf v2"
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


def fuse(eh: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """Fuse entity and question vectors: s = eh + eq + (eh complex-mul eq),
    both half-split (lower half real, higher half imaginary)."""
    if eh.shape != eq.shape:
        raise ad.ShapeError(f"fuse: shape mismatch {eh.shape} vs {eq.shape}")
    return (eh + eq) + complex_mul_packed(eh, eq)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted softmax of an (n, k) array."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


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
        if table.d % 2 != 0:
            raise ClassifierError(f"the fusion needs an even embedding dim, got {table.d}")
        self.encoder = encoder
        self.table = table  # frozen; never trained
        self.labels = taxonomy.labels()
        k = len(self.labels)
        self.w = ad.parameter(rng.normal(0.0, 0.1, size=(table.d, k)))
        self.b = ad.parameter(np.zeros((1, k)))

    def parameters(self) -> list[ad.Node]:
        return self.encoder.parameters() + [self.w, self.b]

    def _logits(self, id_lists: list[list[int]], topics: list[int]) -> np.ndarray:
        """(n, k) class logits of n (token ids, topic id) examples, from one
        padded inference forward."""
        s = fuse(self.table.lookup_entities(topics), self.encoder.forward(*id_lists))
        return s @ self.w.value + self.b.value

    def predict(self, tokens: list[str], topic: int) -> str:
        """The class of the largest logit, the rule `accuracy` scores by."""
        return self.labels[int(np.argmax(self._logits([self.encoder.vocab.encode(tokens)], [topic])))]

    def accuracy(self, dataset: list[tuple[list[str], int, str]]) -> float:
        """Share of (tokens, topic, label) examples predicted right, scored in
        one `_logits` call."""
        if not dataset:
            raise ClassifierError("accuracy of an empty dataset")
        toks, topics, labels = zip(*dataset)
        best = np.argmax(self._logits([self.encoder.vocab.encode(t) for t in toks], topics), axis=1)
        return sum(self.labels[j] == label for j, label in zip(best, labels)) / len(dataset)


def cross_entropy(eq: ad.Node, eh: np.ndarray, w: ad.Node, b: ad.Node, targets: list[int]) -> ad.Node:
    """Mean over rows of -log softmax(logits)[row, target] of the head's
    logits fuse(eh, eq) @ w + b, as one node over the question vectors eq,
    w and b; `eh`, the entity rows, is a frozen array.

    The target probability is picked before the log: a non-target class whose
    probability underflows to 0 would otherwise add 0 * log(0) = nan. Same
    arithmetic, step for step, as the chain of fuse's add, add and complex
    product, the head's matmul and bias add, softmax, a product with the
    one-hot targets, row sums, log, sum and the -1/n scale: the row sum of
    y * onehot is y[row, target] exactly, as every other term is 0.0, and the
    logits' gradient is the softmax backward of a gradient that is non-zero
    only at the targets (elsewhere the zeros a product with 0.0 gives it,
    signs included), so the value and the gradients have that chain's bits.
    """
    n = len(targets)
    c = -1.0 / n
    s = fuse(eh, eq.value)
    y = softmax_rows(s @ w.value + b.value)
    picked_at = (np.arange(n), targets)
    picked = y[picked_at].reshape(n, 1)

    def backward(g):
        g_picked = (g[0, 0] * c) / picked
        gy = np.zeros_like(y) * g_picked  # the one-hot product's signed zeros
        gy[picked_at] = g_picked[:, 0]
        g_logits = y * (gy - (gy * y).sum(axis=1, keepdims=True))
        # a sum over one row would turn its -0.0 into 0.0
        b.accumulate(g_logits if n == 1 else g_logits.sum(axis=0, keepdims=True))
        w.accumulate(s.T @ g_logits)
        gs = g_logits @ w.value.T
        eq.accumulate(gs + conj_mul_packed(gs, eh))

    return ad.Node(np.log(picked).sum() * c, backward)


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
            eq = model.encoder.forward(*(ids[i] for i in batch), training=True, rng=rng)
            eh = table.lookup_entities([dataset[i][1] for i in batch])
            train_step(opt, buffer, cross_entropy(eq, eh, model.w, model.b, [targets[i] for i in batch]))
    return model


def save_classifier(model: ClassifierModel, path: str) -> None:
    """`ssk-clf v2` checkpoint: the encoder's config and vocab, the labels, the
    digest of the table it was trained over and `parameters()`, in list order."""
    fields, sections = encoder_header(model.encoder)
    sections |= {"labels": model.labels, "table": [ckpt.digest([model.table.ent, model.table.rel])]}
    ckpt.write(path, MAGIC, fields, sections, [p.value for p in model.parameters()])


def load_classifier(model_path: str, table: EmbeddingTable, taxonomy: Taxonomy) -> ClassifierModel:
    header, flat = ckpt.read(
        model_path, MAGIC, ("dims",), ("vocab", "labels", "table"),
        lambda h: parse_encoder_header(h)[2] + (parse_encoder_header(h)[0].out_dim + 1) * len(h["labels"]),
    )
    if header["labels"] != taxonomy.labels():
        raise ClassifierError(f"{model_path}: checkpoint taxonomy labels do not match")
    if header["table"] != [ckpt.digest([table.ent, table.rel])]:
        raise ClassifierError(f"{model_path}: trained over another embedding table than the one given")
    cfg, vocab, _ = parse_encoder_header(header)
    rng = np.random.default_rng(0)
    model = ClassifierModel(SequenceEncoder(vocab, cfg, rng), table, taxonomy, rng)
    ckpt.fill([p.value for p in model.parameters()], flat)
    return model
