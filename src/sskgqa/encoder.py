"""Shared trainable sequence encoder: token embeddings, one optional
multi-head self-attention block with a feed-forward layer, mean pooling and a
linear projection, and the header lines that describe it in the model files
of the ranker and the classifier. Its fused ops return a plain array and a
backward, and `SequenceEncoder.forward` makes one node of them."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad

OOV = "[OOV]"
# Most sequences an inference forward runs as one padded block; a longer
# batch runs as consecutive blocks, so the padded arrays stay bounded.
ENCODE_CHUNK = 256
# Most tokens of one sequence the encoder reads, in training and answering
# alike (`Vocab.encode` maps the first), so attention's L x L scores stay bounded.
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
        """The ids of the first MAX_TOKENS tokens, the ones a forward reads."""
        return [self._index.get(t, 0) for t in tokens[:MAX_TOKENS]]


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


def _row_grad(g: np.ndarray) -> np.ndarray:
    """The gradient of a (1, w) operand broadcast over the rows of g."""
    return g.sum(axis=0, keepdims=True) if g.shape[0] > 1 else g


def block_attention(x: np.ndarray, weights: list[np.ndarray], mask: np.ndarray):
    """Multi-head self-attention within each of the `blocks` equal row
    blocks of x, where (blocks, L) is the mask's shape: (blocks*L, d) ->
    (blocks*L, heads*dh), returned with its backward.

    `weights` is [wq0, wk0, wv0, wq1, ...], three (d, dh) projections per
    head. `mask` is the additive key mask: row i (0 for a key, -inf for
    padding) is added to every score row of block i. Per head, with
    q, k, v = x@wq, x@wk, x@wv, each block i gets
    softmax(q_i k_i^T / sqrt(dh) + mask_i) @ v_i; the heads' outputs are
    returned side by side.

    backward(g, held) gives, from the output's gradient g, x's gradient and
    the list of the weights' gradients in the order of `weights`. x's is
    the projections' gradients added in the order of `weights`, after
    `held`, the gradient x already holds (None for none), as the walk of a
    chain of matmul, block product, scale, mask add, row softmax and block
    product nodes per head adds them.

    All heads run together, as (heads, blocks, L, .) stacks: each batched
    product is one matmul per (head, block), the same products that chain
    runs, and the elementwise steps and row sums are that chain's, step for
    step. The projections are one product of x with the (heads*3, d, dh)
    stack of the weights in the order of `weights`, and the backward takes
    the weights' gradients and x's each as one product with the stack of
    the projections' gradients; each item is the 2-D product that chain
    takes. The row max is one reduction over a transposed copy of the
    scores, which is faster than a reduction over each short row; max is
    exact, so it has the same bits. So the values and gradients have that
    chain's bits.
    """
    n_rows, d = x.shape
    if not weights or len(weights) % 3:
        raise ad.ShapeError(f"block_attention: {len(weights)} weights are not [wq, wk, wv] per head")
    dh = weights[0].shape[1]
    if any(w.shape != (d, dh) for w in weights):
        raise ad.ShapeError(f"block_attention: every weight must be ({d}, {dh}) for x of {x.shape}")
    if mask.ndim != 2 or not mask.size or n_rows != mask.size:
        raise ad.ShapeError(f"block_attention: {x.shape} does not split into the row blocks of a {mask.shape} mask")
    blocks, width = mask.shape
    heads = len(weights) // 3
    c = 1.0 / math.sqrt(dh)
    w3 = np.array(weights)
    qkv = np.matmul(x, w3)  # (heads*3, n_rows, dh)
    q, k, v = qkv.reshape(heads, 3, blocks, width, dh).transpose(1, 0, 2, 3, 4)
    att = np.matmul(q, k.transpose(0, 1, 3, 2))
    att *= c
    att += mask.reshape(blocks, 1, width)
    # row softmax, in place
    att -= np.ascontiguousarray(att.transpose(3, 0, 1, 2)).max(axis=0)[..., None]
    np.exp(att, out=att)
    att /= att.sum(axis=3, keepdims=True)
    out = np.matmul(att, v)  # (heads, blocks, L, dh)

    def backward(g: np.ndarray, held: np.ndarray | None):
        g4 = g.reshape(blocks, width, heads, dh).transpose(2, 0, 1, 3)
        g_qkv = np.empty_like(qkv)
        gq, gk, gv = g_qkv.reshape(heads, 3, blocks, width, dh).transpose(1, 0, 2, 3, 4)
        gs = np.matmul(g4, v.transpose(0, 1, 3, 2))  # the scores' gradient, in place
        np.matmul(att.transpose(0, 1, 3, 2), g4, out=gv)
        gs -= (gs * att).sum(axis=3, keepdims=True)
        gs *= att
        gs *= c
        np.matmul(gs, k, out=gq)
        np.matmul(gs.transpose(0, 1, 3, 2), q, out=gk)
        gw = np.matmul(x.T, g_qkv)
        gx = np.matmul(g_qkv, w3.transpose(0, 2, 1))  # (heads*3, n_rows, d)
        total = gx[0]
        if held is not None:
            total += held
        for gxi in gx[1:]:
            total += gxi
        return total, list(gw)

    return np.ascontiguousarray(out.transpose(1, 2, 0, 3)).reshape(n_rows, heads * dh), backward


def block_pool(x: np.ndarray, weights: np.ndarray):
    """Weighted sums of the rows of each of n equal row blocks of x: row i
    is weights[i] @ block i, (n*L, d) -> (n, d) for (n, L) weights, returned
    with its backward, which gives x's gradient from the output's: the one a
    block product of the weights as a constant node gives it, with the same
    bits."""
    n, width = weights.shape
    if x.shape[0] != n * width:
        raise ad.ShapeError(f"block_pool: {x.shape} does not split into {n} blocks of {width} rows")
    w3 = weights.reshape(n, 1, width)

    def backward(g: np.ndarray) -> np.ndarray:
        return np.matmul(w3.transpose(0, 2, 1), g.reshape(n, 1, -1)).reshape(x.shape)

    return np.matmul(w3, x.reshape(n, width, -1)).reshape(n, -1), backward


def feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """relu(x @ w1 + b1) @ w2 + b2, returned with its backward, which gives
    the gradients of x, w1, b1, w2 and b2 from the output's; the biases are
    (1, width) rows added to every row. Same arithmetic, step for step, as
    the chain of matmul, add, relu, matmul and add nodes, so the value and
    the gradients have the same bits."""
    if not (x.shape[1] == w1.shape[0] and w1.shape[1] == w2.shape[0]):
        raise ad.ShapeError(f"feed_forward: inner dims differ {x.shape}, {w1.shape}, {w2.shape}")
    if b1.shape != (1, w1.shape[1]) or b2.shape != (1, w2.shape[1]):
        raise ad.ShapeError(f"feed_forward: biases {b1.shape} and {b2.shape} are not rows of its widths")
    pre = x @ w1 + b1
    active = pre > 0
    hidden = pre * active

    def backward(g: np.ndarray):
        g_pre = (g @ w2.T) * active
        return g_pre @ w1.T, x.T @ g_pre, _row_grad(g_pre), hidden.T @ g, _row_grad(g)

    return hidden @ w2 + b2, backward


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
        dropout on; otherwise the plain array, with dropout off. An inference
        forward over more than ENCODE_CHUNK sequences runs them as
        consecutive blocks of ENCODE_CHUNK and concatenates the blocks' rows.

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
        if not training and len(sequences) > ENCODE_CHUNK:
            return np.concatenate(
                [self.forward(*sequences[i : i + ENCODE_CHUNK]) for i in range(0, len(sequences), ENCODE_CHUNK)]
            )
        if layout is None:
            layout = batch_layout(sequences)
        cfg = self.cfg
        p = {name: w.value for name, w in self.params.items()}
        x = p["tok_emb"][layout.ids]
        if cfg.use_attention:
            projections = [f"{w}{h}" for h in range(cfg.heads) for w in ("wq", "wk", "wv")]
            attended, attention_grads = block_attention(x, [p[n] for n in projections], layout.mask)
            x = x + attended @ p["wo"]
            ff, ff_grads = feed_forward(x, p["ff_w1"], p["ff_b1"], p["ff_w2"], p["ff_b2"])
            x = x + ff
        pooled, pool_grad = block_pool(x, layout.pool)
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


def encoder_header(encoder: SequenceEncoder) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The `dims` field and `vocab` section of `encoder` in a model file."""
    cfg = encoder.cfg
    dims = f"{cfg.out_dim} {cfg.d_model} {cfg.heads} {cfg.ff_width} {int(cfg.use_attention)} {cfg.dropout}"
    return {"dims": dims}, {"vocab": encoder.vocab.tokens}


def parse_encoder_header(header: dict) -> tuple[EncoderConfig, Vocab, int]:
    """The config, vocab and parameter count that a model file's `dims` and
    `vocab` give, without building a parameter; a ValueError if none can."""
    try:
        out, d, heads, ff, attention, dropout = header["dims"].split()
        if attention not in ("0", "1"):
            raise ValueError(f"attention flag must be 0 or 1, got {attention!r}")
        cfg = EncoderConfig(int(out), int(d), int(heads), int(ff), attention == "1", float(dropout))
    except ValueError as exc:
        raise ValueError(f"bad dims line: {exc}") from None
    vocab = Vocab(header["vocab"][1:])
    if vocab.tokens != header["vocab"]:
        raise ValueError(f"vocab section is not {OOV} then sorted unique tokens")
    return cfg, vocab, sum(r * c for r, c in param_shapes(cfg, len(vocab)).values())
