import numpy as np
import pytest

from sskgqa.classifier import (
    ClassifierError,
    ClassifierModel,
    ClassifierTrainConfig,
    load_classifier,
    rotate_fuse,
    save_classifier,
    train_classifier,
)
from sskgqa.embeddings import init_table
from sskgqa.encoder import EncoderConfig, SequenceEncoder, Vocab
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import separable_classifier_dataset


def test_rotate_fuse_matches_complex_oracle():
    rng = np.random.default_rng(0)
    for d in (2, 8, 64):
        eh = rng.normal(size=d)
        eq = rng.normal(size=d)
        out = rotate_fuse(eh, eq)
        h = d // 2
        zh = eh[:h] + 1j * eh[h:]
        zq = eq[:h] + 1j * eq[h:]
        zt = zh * zq
        expected = np.concatenate(
            [eh[:h] + eq[:h] + zt.real, eh[h:] + eq[h:] + zt.imag]
        )
        assert np.allclose(out, expected, atol=1e-12)


def test_rotate_fuse_validation():
    with pytest.raises(ValueError):
        rotate_fuse(np.zeros(4), np.zeros(6))
    with pytest.raises(ValueError):
        rotate_fuse(np.zeros(3), np.zeros(3))


def make_model(table, seed=0):
    tax = builtin_taxonomy()
    vocab = Vocab(["a", "b"])
    enc = SequenceEncoder(
        vocab,
        EncoderConfig(out_dim=table.d, d_model=8, use_attention=False),
        np.random.default_rng(seed),
    )
    return ClassifierModel(enc, table, tax, np.random.default_rng(seed))


def test_zero_head_gives_uniform_distribution():
    table = init_table("transe", 4, 2, 8, seed=0)
    model = make_model(table)
    model.w.value[...] = 0.0
    model.b.value[...] = 0.0
    probs = model.classify(["a", "b"], topic=1)
    assert np.allclose(probs, 1.0 / len(model.labels), atol=1e-12)
    assert probs.sum() == pytest.approx(1.0)


def test_dim_mismatch_rejected():
    table = init_table("transe", 4, 2, 8, seed=0)
    tax = builtin_taxonomy()
    enc = SequenceEncoder(
        Vocab(["a"]),
        EncoderConfig(out_dim=6, d_model=8, use_attention=False),
        np.random.default_rng(0),
    )
    with pytest.raises(ClassifierError):
        ClassifierModel(enc, table, tax, np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierTrainConfig(epochs=0)


def test_train_reaches_full_accuracy_and_table_frozen():
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    before = table.ent.tobytes()
    cfg = ClassifierTrainConfig(
        epochs=50, lr=1e-2, d_model=16, use_attention=False, seed=0
    )
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    assert model.accuracy(dataset) == 1.0
    assert table.ent.tobytes() == before  # embeddings never updated


def test_train_rejects_unknown_label():
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    bad = dataset + [(["x"], 0, "SS9")]
    with pytest.raises(ClassifierError):
        train_classifier(bad, table, builtin_taxonomy(), ClassifierTrainConfig(epochs=1))


def test_checkpoint_round_trip(tmp_path):
    dataset, table = separable_classifier_dataset(builtin_taxonomy().labels())
    cfg = ClassifierTrainConfig(
        epochs=10, lr=1e-2, d_model=16, use_attention=False, seed=0
    )
    model = train_classifier(dataset, table, builtin_taxonomy(), cfg)
    path = str(tmp_path / "clf.ckpt")
    save_classifier(model, path)
    back = load_classifier(path, table, builtin_taxonomy())
    for toks, topic, _ in dataset[:5]:
        assert np.allclose(
            back.classify(toks, topic), model.classify(toks, topic), atol=1e-6
        )
        assert back.predict(toks, topic) == model.predict(toks, topic)
    again = str(tmp_path / "again.ckpt")
    save_classifier(back, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()
