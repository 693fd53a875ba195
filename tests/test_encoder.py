import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import count_blocks, count_forwards, graph_nodes_while
from reference import reference_constant, reference_mul, reference_rownorm, reference_sub, reference_sum_all
from sskgqa import autodiff as ad
from sskgqa import checkpoint as ckpt
from sskgqa import encoder as encoder_module
from sskgqa.encoder import (
    MAX_TOKENS,
    OOV,
    EncoderConfig,
    SequenceEncoder,
    Vocab,
    encoder_header,
    parse_encoder_header,
)
from sskgqa.optim import AdamW, ParameterBuffer, train_step


def test_vocab_oov_bucket():
    v = Vocab(["b", "a", "b"])
    assert v.tokens[0] == OOV
    assert v.encode(["a", "b", "unseen"]) == [v.encode(["a"])[0], v.encode(["b"])[0], 0]
    assert len(v) == 3


def test_vocab_encodes_the_first_max_tokens():
    v = Vocab(["a", "b"])
    tokens = ["a", "b", "unseen"] * MAX_TOKENS
    assert v.encode(tokens) == v.encode(tokens[:MAX_TOKENS])
    assert len(v.encode(tokens)) == MAX_TOKENS


def test_vocab_from_sequences():
    v = Vocab.from_sequences([["x", "y"], ["y", "z"]])
    assert set(v.tokens) == {OOV, "x", "y", "z"}


def test_config_head_divisibility():
    with pytest.raises(ValueError):
        EncoderConfig(out_dim=8, d_model=10, heads=3)
    EncoderConfig(out_dim=8, d_model=10, heads=3, use_attention=False)


@pytest.mark.parametrize(
    "name, value",
    [("out_dim", 0), ("d_model", 0), ("heads", 0), ("heads", -3), ("ff_width", 0),
     ("dropout", 1.0), ("dropout", 1.5), ("dropout", -0.1), ("dropout", float("nan"))],
)
@pytest.mark.parametrize("use_attention", [True, False])
def test_config_refuses_bad_sizes_and_dropout(name, value, use_attention):
    settings = {"out_dim": 8, "d_model": 12, "heads": 3, "ff_width": 16, "dropout": 0.5}
    with pytest.raises(ValueError, match=f"{name} must be"):
        EncoderConfig(**{**settings, name: value}, use_attention=use_attention)


def make_encoder(use_attention=True, seed=0, dropout=0.0):
    # token ids: 0 the OOV bucket, then a=1, b=2, c=3, d=4
    vocab = Vocab(["a", "b", "c", "d"])
    cfg = EncoderConfig(out_dim=6, d_model=12, heads=3, ff_width=16,
                        use_attention=use_attention, dropout=dropout)
    return SequenceEncoder(vocab, cfg, np.random.default_rng(seed))


def test_encode_shape_and_counter():
    enc = make_encoder()
    calls = count_forwards(enc)
    out = enc.forward([1, 2])
    assert out.shape == (1, 6)
    enc.forward([3], [4, 1])
    assert calls == [1, 2]


def test_encode_deterministic_at_inference():
    enc = make_encoder(dropout=0.5)
    a = enc.forward([1, 2, 3])
    b = enc.forward([1, 2, 3])
    assert np.array_equal(a, b)


def reference_forward(enc: SequenceEncoder, tokens: list[str]) -> np.ndarray:
    """The per-sequence forward that the batched one replaced, in numpy
    (inference mode): a (1, out_dim) row."""
    cfg, p = enc.cfg, {name: node.value for name, node in enc.params.items()}
    x = p["tok_emb"][enc.vocab.encode(tokens)]
    if cfg.use_attention:
        dh = cfg.d_model // cfg.heads
        heads = []
        for h in range(cfg.heads):
            q, k, v = (x @ p[f"{w}{h}"] for w in ("wq", "wk", "wv"))
            s = q @ k.T / math.sqrt(dh)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append(e / e.sum(axis=1, keepdims=True) @ v)
        x = x + np.concatenate(heads, axis=1) @ p["wo"]
        hidden = np.maximum(x @ p["ff_w1"] + p["ff_b1"], 0.0)
        x = x + hidden @ p["ff_w2"] + p["ff_b2"]
    return x.mean(axis=0, keepdims=True) @ p["proj"]


# "zz" is not in make_encoder's vocabulary, so it reads the OOV row
sequences = st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), min_size=1, max_size=20)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(sequences, min_size=1, max_size=6),
    st.lists(st.integers(0, 5), max_size=3),
    st.booleans(),
)
def test_batched_encode_matches_per_sequence_reference(seqs, repeats, use_attention):
    seqs = seqs + [seqs[i % len(seqs)] for i in repeats]  # duplicate sequences
    enc = make_encoder(use_attention=use_attention, dropout=0.5)
    calls = count_forwards(enc)
    got = enc.forward(*(enc.vocab.encode(s) for s in seqs))
    assert got.shape == (len(seqs), 6)
    assert calls == [len(seqs)]
    want = np.concatenate([reference_forward(enc, s) for s in seqs])
    assert np.abs(got - want).max() < 1e-10


def test_empty_sequence_rejected():
    enc = make_encoder()
    with pytest.raises(ValueError):
        enc.forward([])
    with pytest.raises(ValueError):
        enc.forward()
    for at in range(3):
        seqs = [[1], [2, 3]]
        seqs.insert(at, [])
        with pytest.raises(ValueError):
            enc.forward(*seqs)


def test_forward_reads_the_first_max_tokens_ids():
    # in answering and in training alike: the ids past MAX_TOKENS change
    # nothing, so they get no gradient either
    enc = make_encoder()
    long = [1, 2, 3, 4] * MAX_TOKENS
    head = long[:MAX_TOKENS]
    assert np.array_equal(enc.forward(long, [2]), enc.forward(head, [2]))
    outs = []
    for seq in (long, head):
        out = enc.forward(seq, [2], training=True)
        ad.backward(reference_sum_all(reference_mul(out, out)))
        outs.append((out.value, [p.grad for p in enc.parameters()]))
        for p in enc.parameters():
            p.grad = None
    (got, got_grads), (want, want_grads) = outs
    assert got.tobytes() == want.tobytes()
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got_grads, want_grads))


def long_batch(monkeypatch) -> list[list[int]]:
    # three sequences past ENCODE_CHUNK, patched small, of varied lengths
    monkeypatch.setattr(encoder_module, "ENCODE_CHUNK", 4)
    return [[1 + i % 4] * (1 + i % 3) for i in range(4 + 3)]


@pytest.mark.parametrize("use_attention", [True, False])
def test_inference_forward_runs_blocks_of_encode_chunk(monkeypatch, use_attention):
    enc = make_encoder(use_attention=use_attention)
    seqs = long_batch(monkeypatch)
    per_block = np.concatenate([enc.forward(*seqs[:4]), enc.forward(*seqs[4:])])
    blocks = count_blocks(monkeypatch)
    got = enc.forward(*seqs)
    assert blocks == [4, 3]
    assert got.tobytes() == per_block.tobytes()


def test_training_forward_past_encode_chunk_is_one_node(monkeypatch):
    enc = make_encoder(dropout=0.5)
    seqs = long_batch(monkeypatch)
    blocks = count_blocks(monkeypatch)
    out = []
    built = graph_nodes_while(lambda: out.append(enc.forward(*seqs, training=True, rng=np.random.default_rng(0))))
    assert built == (1, 1)
    assert blocks == [len(seqs)]
    assert out[0].shape == (len(seqs), 6)


def test_attention_params_present_only_when_enabled():
    with_att = make_encoder(use_attention=True)
    without = make_encoder(use_attention=False)
    assert "wo" in with_att.params and "ff_w1" in with_att.params
    assert set(without.params) == {"tok_emb", "proj"}


@pytest.mark.parametrize(
    "use_attention, dropout", [(True, 0.0), (True, 0.5), (False, 0.0)],
    ids=["attention", "attention_dropout", "no_attention"],
)
def test_forward_builds_one_node(use_attention, dropout):
    # training: one node, with a backward; the inference forward builds none
    enc = make_encoder(use_attention=use_attention, dropout=dropout)
    out = []
    built = graph_nodes_while(lambda: out.append(enc.forward([1, 2], [3], training=True, rng=np.random.default_rng(0))))
    assert built == (1, 1)
    assert graph_nodes_while(lambda: out.append(enc.forward([1, 2], [3]))) == (0, 0)
    assert type(out[1]) is np.ndarray


def test_gradients_flow_to_all_params():
    enc = make_encoder()
    out = enc.forward([1, 2, 3], training=True)
    loss = reference_sum_all(reference_mul(out, out))
    ad.backward(loss)
    for name, p in enc.params.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


def test_trainable_toward_target():
    enc = make_encoder(use_attention=False)
    target = reference_constant(np.ones((1, 6)))
    buffer = ParameterBuffer(enc.parameters())
    opt = AdamW(lr=0.05)
    first = None
    for _ in range(100):
        out = enc.forward([1, 2], training=True)
        loss = reference_rownorm(reference_sub(out, target))
        if first is None:
            first = float(loss.value[0, 0])
        train_step(opt, buffer, loss)
    assert float(loss.value[0, 0]) < 0.1 * first


def test_payload_round_trip(tmp_path):
    enc = make_encoder(seed=1)
    ref = enc.forward([1, 3])
    path = str(tmp_path / "enc.ckpt")
    ckpt.write(path, "test v1", *encoder_header(enc), [p.value for p in enc.parameters()])
    header, flat = ckpt.read(path, "test v1", ("dims",), ("vocab",), lambda h: parse_encoder_header(h)[2])
    cfg, vocab, _ = parse_encoder_header(header)
    assert (cfg, vocab.tokens) == (enc.cfg, enc.vocab.tokens)
    enc2 = make_encoder(seed=2)
    ckpt.fill([p.value for p in enc2.parameters()], flat)
    assert np.allclose(enc2.forward([1, 3]), ref, atol=1e-6)
