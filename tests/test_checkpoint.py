"""The one codec of the three model files: each format reads back what it
wrote, byte for byte, and a file of another version or table is refused."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sskgqa import checkpoint as ckpt
from sskgqa.classifier import ClassifierError, ClassifierModel, load_classifier, save_classifier
from sskgqa.embeddings import KINDS, init_table, load_table, save_table
from sskgqa.encoder import OOV, EncoderConfig, SequenceEncoder, Vocab, encoder_header, parse_encoder_header
from sskgqa.ranker import RankerModel, load_ranker, save_ranker
from sskgqa.structures import builtin_taxonomy

# one line of a header section: any text without a line break or a lone
# surrogate, which UTF-8 cannot encode
LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6)


@st.composite
def encoder_configs(draw, out_dim=None):
    """An encoder config of small random sizes, with or without attention."""
    heads = draw(st.integers(1, 3))
    attention = draw(st.booleans())
    return EncoderConfig(
        out_dim=out_dim or draw(st.integers(1, 5)),
        d_model=heads * draw(st.integers(1, 3)) if attention else draw(st.integers(1, 6)),
        heads=heads,
        ff_width=draw(st.integers(1, 5)),
        use_attention=attention,
        dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )


def encoder(draw, cfg: EncoderConfig) -> SequenceEncoder:
    vocab = Vocab(draw(st.lists(LINE, max_size=8)))
    return SequenceEncoder(vocab, cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def write_read_write(tmp_path, save, load, model) -> tuple[bytes, bytes]:
    first, second = tmp_path / "first", tmp_path / "second"
    save(model, str(first))
    save(load(str(first)), str(second))
    return first.read_bytes(), second.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    sizes=st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4)),
    kg=LINE,
    seed=st.integers(0, 2**32 - 1),
)
def test_table_file_reads_back_byte_equal(tmp_path_factory, kind, sizes, kg, seed):
    n, r, half = sizes
    table = init_table(kind, n, r, 2 * half, seed)
    table.kg = kg
    tmp = tmp_path_factory.mktemp("emb")
    first, second = write_read_write(tmp, save_table, load_table, table)
    assert first == second
    assert first.startswith(b"ssk-emb v2\nkind %s\nsizes %d %d %d\nkg 1\n" % (kind.encode(), n, r, 2 * half))
    back = load_table(str(tmp / "first"))
    assert (back.kind, back.kg) == (kind, kg)
    assert back.ent.tobytes() == table.ent.astype(np.float32).astype(np.float64).tobytes()
    assert back.rel.tobytes() == table.rel.astype(np.float32).astype(np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_classifier_file_reads_back_byte_equal(tmp_path_factory, data):
    n, half = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    table = init_table("transe", n, 2, 2 * half, data.draw(st.integers(0, 99)))
    enc = encoder(data.draw, data.draw(encoder_configs(out_dim=2 * half)))
    tax = builtin_taxonomy()
    model = ClassifierModel(enc, table, tax, np.random.default_rng(data.draw(st.integers(0, 99))))
    tmp = tmp_path_factory.mktemp("clf")
    first, second = write_read_write(tmp, save_classifier, lambda p: load_classifier(p, table, tax), model)
    assert first == second
    assert first.startswith(b"ssk-clf v2\ndims ")
    assert f"\ntable 1\n{ckpt.digest([table.ent, table.rel])}\nfloats ".encode() in first


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ranker_file_reads_back_byte_equal(tmp_path_factory, data):
    model = RankerModel(encoder(data.draw, data.draw(encoder_configs())))
    first, second = write_read_write(tmp_path_factory.mktemp("rank"), save_ranker, load_ranker, model)
    assert first == second
    assert first.startswith(b"ssk-rank v1\ndims ")


@pytest.mark.parametrize("flag", ["2", "-1", "1_0", "01", "+1", "true"])
def test_attention_flag_other_than_0_or_1_is_refused(tmp_path, flag):
    with pytest.raises(ValueError, match="^bad dims line: attention flag must be 0 or 1"):
        parse_encoder_header({"dims": f"4 24 3 8 {flag} 0.0", "vocab": [OOV, "a"]})
    tax = builtin_taxonomy()
    table = init_table("transe", 4, 2, 4, seed=0)
    enc = SequenceEncoder(Vocab(["a"]), EncoderConfig(out_dim=4, d_model=4, use_attention=False), np.random.default_rng(0))
    files = {
        "rank": (save_ranker, RankerModel(enc), load_ranker),
        "clf": (save_classifier, ClassifierModel(enc, table, tax, np.random.default_rng(0)), lambda p: load_classifier(p, table, tax)),
    }
    # the file's own dims line but for the attention flag
    dims = encoder_header(enc)[0]["dims"].split()
    dims[4] = flag
    for name, (save, model, load) in files.items():
        path = tmp_path / name
        save(model, str(path))
        load(str(path))
        path.write_bytes(rewrite_dims(path.read_bytes(), dims))
        with pytest.raises(ckpt.CheckpointError, match="bad dims line: attention flag must be 0 or 1"):
            load(str(path))


def rewrite_dims(data: bytes, dims: list[str]) -> bytes:
    """A model file's bytes with its `dims` line set to `dims`."""
    head, rest = data.split(b"\ndims ", 1)
    return head + b"\ndims " + " ".join(dims).encode() + b"\n" + rest.split(b"\n", 1)[1]


def test_classifier_over_another_table_is_refused(tmp_path):
    tax = builtin_taxonomy()
    table, other = init_table("transe", 4, 2, 4, seed=0), init_table("transe", 4, 2, 4, seed=1)
    enc = SequenceEncoder(Vocab(["a"]), EncoderConfig(out_dim=4, d_model=4, use_attention=False), np.random.default_rng(0))
    path = str(tmp_path / "clf.ckpt")
    save_classifier(ClassifierModel(enc, table, tax, np.random.default_rng(0)), path)
    load_classifier(path, table, tax)
    with pytest.raises(ClassifierError, match="^.*clf.ckpt: trained over another embedding table"):
        load_classifier(path, other, tax)
    # one float32 value apart is another table too
    other = init_table("transe", 4, 2, 4, seed=0)
    other.ent[3, 3] = np.nextafter(np.float32(other.ent[3, 3]), np.float32(np.inf), dtype=np.float32)
    with pytest.raises(ClassifierError, match="another embedding table"):
        load_classifier(path, other, tax)


@pytest.mark.parametrize(
    "magic,first",
    [("ssk-emb v2", b"ssk-emb v1 transe 5 2 8"), ("ssk-clf v2", b"ssk-clf v1"), ("ssk-rank v1", b"ssk-rank v2")],
)
def test_another_version_is_refused_by_name(tmp_path, magic, first):
    path = tmp_path / "model.ckpt"
    path.write_bytes(first + b"\nfloats 0\n")
    with pytest.raises(ckpt.CheckpointError, match=f"^.*model.ckpt: not a {magic} checkpoint, it starts '{first.decode()}'$"):
        ckpt.read(str(path), magic, (), (), lambda header: 0)


def test_read_checks_the_header_line_by_line_and_against_the_model_size(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"m v1\nkind x\nitems 2\na\nb\nfloats 3\n" + np.zeros(3, dtype="<f4").tobytes())
    header, flat = ckpt.read(str(path), "m v1", ("kind",), ("items",), lambda h: len(h["items"]) + 1)
    assert header == {"kind": "x", "items": ["a", "b"]} and flat.tolist() == [0.0, 0.0, 0.0]

    def refuse(header):
        raise ValueError("no such model")

    with pytest.raises(ckpt.CheckpointError, match="^.*model.ckpt: no such model$"):
        ckpt.read(str(path), "m v1", ("kind",), ("items",), refuse)
    with pytest.raises(ckpt.CheckpointError, match="header declares 3 floats, the model needs 4"):
        ckpt.read(str(path), "m v1", ("kind",), ("items",), lambda h: 4)
    with pytest.raises(ckpt.CheckpointError, match="expected 'kind <count>'$"):  # a field, not a section
        ckpt.read(str(path), "m v1", (), ("kind", "items"), lambda h: 3)
    with pytest.raises(ckpt.CheckpointError, match="expected 'size <value>'$"):
        ckpt.read(str(path), "m v1", ("size",), ("items",), lambda h: 3)


def test_fill_copies_in_write_order():
    a, b = np.zeros((2, 3)), np.zeros((1, 2))
    ckpt.fill([a, b], np.arange(8.0))
    assert a.tolist() == [[0, 1, 2], [3, 4, 5]] and b.tolist() == [[6, 7]]
