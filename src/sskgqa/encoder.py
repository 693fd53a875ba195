"""Shared trainable sequence encoder: token embeddings, one optional
multi-head self-attention block with a feed-forward layer, mean pooling and a
linear projection. Also the checkpoint codec of the models built on it (the
ranker and the classifier)."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad

OOV = "[OOV]"
# Most sequences a model encodes in one forward at inference (the ranker's
# score_all, the classifier's accuracy); bounds the forward's padded arrays.
ENCODE_CHUNK = 256
# Most ids of one sequence a forward reads: the rest are dropped, in training
# and in answering alike, so attention's L x L scores stay bounded.
MAX_TOKENS = 64


@dataclass
class EncoderConfig:
    out_dim: int
    d_model: int = 24
    heads: int = 3
    ff_width: int = 48
    use_attention: bool = True
    dropout: float = 0.0

    def __post_init__(self) -> None:
        for name in ("out_dim", "d_model", "heads", "ff_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.use_attention and self.d_model % self.heads != 0:
            raise ValueError("heads must divide d_model")


class Vocab:
    """Token -> index with an OOV bucket at index 0."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = [OOV] + sorted(set(tokens) - {OOV})
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_sequences(cls, sequences) -> "Vocab":
        return cls([t for seq in sequences for t in seq])

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self._index.get(t, 0) for t in tokens]


def param_shapes(cfg: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, int]]:
    """Parameter name -> shape, in initialization and checkpoint order."""
    d, f = cfg.d_model, cfg.ff_width
    shapes = {"tok_emb": (vocab_size, d)}
    if cfg.use_attention:
        dh = d // cfg.heads
        for h in range(cfg.heads):
            for w in ("wq", "wk", "wv"):
                shapes[f"{w}{h}"] = (d, dh)
        shapes["wo"] = (d, d)
        shapes["ff_w1"] = (d, f)
        shapes["ff_b1"] = (1, f)
        shapes["ff_w2"] = (f, d)
        shapes["ff_b2"] = (1, d)
    shapes["proj"] = (d, cfg.out_dim)
    return shapes


class BatchLayout(NamedTuple):
    """The arrays a forward reads off its n id sequences alone, padded to
    the longest length L."""

    ids: np.ndarray  # (n*L,) token ids, 0 past a sequence's end
    mask: np.ndarray  # (n, L) additive key mask: 0 for a token, -inf past the end
    pool: np.ndarray  # (n, L) mean-pool weights: 1/len for a token, 0 past the end


def batch_layout(sequences: Sequence[list[int]]) -> BatchLayout:
    """The BatchLayout of a forward over `sequences`, one or more non-empty
    id sequences, each cut to its first MAX_TOKENS ids."""
    if not sequences:
        raise ValueError("forward needs at least one token sequence")
    if not all(sequences):
        raise ValueError("token sequences must be non-empty")
    sequences = [s[:MAX_TOKENS] for s in sequences]
    lens = np.array([len(s) for s in sequences])
    real = np.arange(int(lens.max())) < lens[:, None]
    ids = np.zeros(real.shape, dtype=np.int64)
    ids[real] = [i for s in sequences for i in s]
    return BatchLayout(ids.ravel(), np.where(real, 0.0, -np.inf), real / lens[:, None])


class SequenceEncoder:
    """f(.) applied to both questions and serialized query graphs."""

    def __init__(self, vocab: Vocab, cfg: EncoderConfig, rng: np.random.Generator):
        self.vocab = vocab
        self.cfg = cfg
        self.params: dict[str, ad.Node] = {
            name: ad.parameter(
                np.zeros(shape) if name.startswith("ff_b") else rng.normal(0.0, 0.1, size=shape)
            )
            for name, shape in param_shapes(cfg, len(vocab)).items()
        }

    def parameters(self) -> list[ad.Node]:
        return list(self.params.values())

    def forward(
        self,
        *sequences: list[int],
        training: bool = False,
        rng: np.random.Generator | None = None,
        layout: BatchLayout | None = None,
    ) -> ad.Node | np.ndarray:
        """f(.) of each token id sequence (`Vocab.encode` of its tokens), as
        the rows of one (n, out_dim) output, computed from the parameters'
        current values: when training, one node over every parameter, with
        dropout on; otherwise the plain array, with dropout off.

        The n sequences are padded to the longest length L and run as one
        (n*L, d_model) token matrix. Attention stays inside each sequence's
        block of L rows, so its cost grows with n, not n^2. Padded keys get
        -inf scores and the mean pool reads only real tokens, so padding
        changes no output and receives no gradient. `layout` is
        batch_layout(sequences), made here when not given; a trainer that
        steps on the same batch every epoch makes it once.

        The node's backward does the arithmetic of the chain of row gather,
        block_attention, matmul, residual add, feed_forward, residual add,
        block_pool, dropout and matmul nodes, in the order that chain's walk
        runs, so its gradients have that chain's bits: the projection, the
        dropout mask and the pool; the residual's gradient, then
        feed_forward's added into its input; wo; attention, whose
        projections add into the token rows after the residual's gradient;
        the scatter into the token embeddings.
        """
        if layout is None:
            layout = batch_layout(sequences)
        cfg = self.cfg
        p = {name: w.value for name, w in self.params.items()}
        x = p["tok_emb"][layout.ids]
        if cfg.use_attention:
            projections = [f"{w}{h}" for h in range(cfg.heads) for w in ("wq", "wk", "wv")]
            attended, attention_grads = ad.block_attention(
                x, [p[n] for n in projections], layout.mask, len(sequences)
            )
            x = x + attended @ p["wo"]
            ff, ff_grads = ad.feed_forward(x, p["ff_w1"], p["ff_b1"], p["ff_w2"], p["ff_b2"])
            x = x + ff
        pooled, pool_grad = ad.block_pool(x, layout.pool)
        keep = None
        if training and cfg.dropout > 0.0:
            # inverted-scaling dropout
            keep = (rng.random(pooled.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            pooled = pooled * keep
        out = pooled @ p["proj"]
        if not training:
            return out

        def backward(g: np.ndarray) -> None:
            grads = {"proj": pooled.T @ g}
            g = g @ p["proj"].T
            if keep is not None:
                g = g * keep
            g = pool_grad(g)
            if cfg.use_attention:
                g_x, *grads_ff = ff_grads(g)
                grads.update(zip(("ff_w1", "ff_b1", "ff_w2", "ff_b2"), grads_ff))
                g = g + g_x
                grads["wo"] = attended.T @ g
                g, grads_projections = attention_grads(g @ p["wo"].T, g)
                grads.update(zip(projections, grads_projections))
            grads["tok_emb"] = ad.scatter_rows(layout.ids, g, len(p["tok_emb"]))
            for name, w in self.params.items():
                w.accumulate(grads[name])

        return ad.Node(out, backward)


class CheckpointError(ValueError):
    """A model checkpoint is truncated, malformed or does not fit its model."""


def write_checkpoint(
    path: str,
    magic: str,
    encoder: SequenceEncoder,
    params: list[ad.Node],
    sections: dict[str, list[str]] | None = None,
) -> None:
    """Model checkpoint shared by the ranker and the classifier.

    A `magic` line, a `dims` line with the encoder config, counted string
    sections (`<name> <count>` then one string per line: `vocab` first, then
    `sections` in order) and `floats N` followed by N float32 LE values:
    each of `params`, the model's `parameters()`, raveled in list order. A
    parameter that float32 cannot hold, nan, inf or beyond its range, is
    refused with CheckpointError before the file is opened.
    """
    cfg = encoder.cfg
    lines = [
        magic,
        f"dims {cfg.out_dim} {cfg.d_model} {cfg.heads} {cfg.ff_width} "
        f"{int(cfg.use_attention)} {cfg.dropout}",
    ]
    for name, items in {"vocab": encoder.vocab.tokens, **(sections or {})}.items():
        lines.append(f"{name} {len(items)}")
        lines.extend(items)
    with np.errstate(over="ignore"):  # a value beyond float32's range is refused below
        payload = np.concatenate([p.value.astype(np.float32).ravel() for p in params])
    if not np.isfinite(payload).all():
        raise CheckpointError(f"{path}: a parameter is nan, inf or beyond float32's range")
    lines.append(f"floats {payload.size}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode())
        f.write(payload.astype("<f4").tobytes())


def read_checkpoint(
    path: str,
    magic: str,
    sections: tuple[str, ...] = (),
    head_floats: Callable[[EncoderConfig, dict[str, list[str]]], int] | None = None,
) -> tuple[EncoderConfig, Vocab, dict[str, list[str]], np.ndarray]:
    """Parse a write_checkpoint file into (config, vocab, sections, payload).

    Before anything is built, the header is checked line by line and the
    payload against the parameter count of the model it describes, the
    encoder's plus head_floats(config, sections); a nan or inf payload
    value is refused.
    """
    with open(path, "rb") as f:

        def line(what: str) -> str:
            raw = f.readline()
            if not raw.endswith(b"\n"):
                raise CheckpointError(f"{path}: truncated in the {what}")
            try:
                return raw[:-1].decode()
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: undecodable {what}") from None

        def counted(name: str) -> int:
            fields = line(f"{name} count").split()
            if len(fields) != 2 or fields[0] != name or not fields[1].isdecimal():
                raise CheckpointError(f"{path}: expected '{name} <count>'")
            return int(fields[1])

        if line("magic line") != magic:
            raise CheckpointError(f"{path}: not a {magic} checkpoint")
        dims = line("dims line").split()
        if len(dims) != 7 or dims[0] != "dims":
            raise CheckpointError(f"{path}: dims line needs 6 fields")
        try:
            sizes = [int(v) for v in dims[1:5]]
            cfg = EncoderConfig(*sizes, bool(int(dims[5])), float(dims[6]))
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad dims line: {exc}") from None
        found = {
            name: [line(f"{name} section") for _ in range(counted(name))]
            for name in ("vocab", *sections)
        }
        vocab = Vocab(found["vocab"][1:])
        if vocab.tokens != found["vocab"]:
            raise CheckpointError(f"{path}: vocab section is not {OOV} then sorted unique tokens")
        count = counted("floats")
        need = sum(r * c for r, c in param_shapes(cfg, len(vocab)).values())
        need += head_floats(cfg, found) if head_floats else 0
        if count != need:
            raise CheckpointError(f"{path}: header declares {count} floats, the model needs {need}")
        raw = f.read()
    if len(raw) != 4 * count:
        raise CheckpointError(
            f"{path}: payload is {len(raw)} bytes, {count} floats need {4 * count}"
        )
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: payload holds a nan or inf")
    return cfg, vocab, found, flat


def load_parameters(params: list[ad.Node], flat: np.ndarray) -> None:
    """Copy a read_checkpoint payload into `params`, in write_checkpoint's order."""
    off = 0
    for p in params:
        p.value[...] = flat[off : off + p.value.size].reshape(p.value.shape)
        off += p.value.size
