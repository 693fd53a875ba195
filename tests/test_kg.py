import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_build_kg
from sskgqa import cli
from sskgqa.kg import (
    LookupError_,
    ParseError,
    SymbolTable,
    build_kg,
    load_kg_file,
    load_triples,
    step,
    write_triples,
)
from sskgqa.querygraph import Chain, execute


def test_symbol_table_dense_ids():
    table = build_kg([("a", "r", "b"), ("b", "r", "a")]).entities
    assert table.id_of("a") == 0
    assert table.symbol_of(1) == "b"
    assert table.id_of("b") == 1
    assert "a" in table
    assert len(table) == 2
    assert table.symbols() == ["a", "b"]


def test_symbol_table_unknown_lookup():
    table = SymbolTable()
    with pytest.raises(LookupError_):
        table.id_of("missing")
    with pytest.raises(LookupError_):
        table.symbol_of(0)


def test_build_kg_basic():
    kg = build_kg([("a", "r", "b"), ("a", "r", "c"), ("b", "s", "c")])
    assert kg.num_entities == 3
    assert kg.num_relations == 2
    assert kg.num_triples == 3
    a, b, c = (kg.entities.id_of(x) for x in "abc")
    r, s = kg.relations.id_of("r"), kg.relations.id_of("s")
    assert kg.has_triple(a, r, b)
    assert not kg.has_triple(b, r, a)
    assert kg.out_edges(a) == [(r, b), (r, c)]
    assert sorted(kg.in_edges(c)) == sorted([(r, a), (s, b)])


def test_build_kg_deduplicates():
    kg = build_kg([("a", "r", "b"), ("a", "r", "b")])
    assert kg.num_triples == 1


def test_out_edges_id_checked():
    kg = build_kg([("a", "r", "b")])
    with pytest.raises(LookupError_):
        kg.out_edges(99)
    # a leaf entity has no out edges but is a valid id
    assert kg.out_edges(kg.entities.id_of("b")) == []


def test_load_triples_tsv():
    triples = load_triples(io.StringIO("# comment\na\tr\tb\n\nb\ts\tc\n"))
    assert triples.num_triples == 2
    assert triples.entities.symbols() == ["a", "b", "c"]


def test_load_triples_bad_line():
    with pytest.raises(ParseError) as err:
        load_triples(io.StringIO("a\tr\tb\nbroken line\n"))
    assert str(err.value).startswith("2: expected 3")


def test_load_triples_empty_field():
    with pytest.raises(ParseError):
        load_triples(io.StringIO("a\t\tb\n"))


def test_load_kg_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\n")
    kg = load_kg_file(str(path))
    assert kg.num_triples == 1


def test_load_kg_file_skips_byte_order_mark(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\tr\tb\n")
    kg = load_kg_file(str(path))
    assert [kg.entities.symbol_of(i) for i in range(kg.num_entities)] == ["a", "b"]
    # the mark is three bytes of line 1, so a bad byte still gets its line
    path.write_bytes(b"\xef\xbb\xbfa\tr\tb\n\xff\n")
    with pytest.raises(ParseError, match=f"^{path}:2: not UTF-8: byte 0xff"):
        load_kg_file(str(path))


def test_fingerprint_follows_the_symbols_in_id_order():
    triples = [("a", "r", "b"), ("b", "s", "c")]
    fp = build_kg(triples).fingerprint()
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert build_kg(triples + [("a", "s", "c")]).fingerprint() == fp  # other triples, same ids
    assert build_kg(triples[::-1] + triples).fingerprint() == fp  # same triple set, same ids
    assert build_kg([("a", "s", "b"), ("b", "r", "c")]).fingerprint() != fp  # same symbols, other ids
    assert build_kg([("a", "r", "b"), ("b", "s", "d")]).fingerprint() != fp  # another symbol
    assert build_kg([("a", "r", "b"), ("b", "r", "c")]).fingerprint() != fp  # another relation list
    # symbols that a joined string would confuse
    assert build_kg([("a b", "r", "c")]).fingerprint() != build_kg([("a", "r", "b c")]).fingerprint()


def test_has_triple_id_checked():
    kg = build_kg([("a", "r", "b")])
    for h, r, t in ((2, 0, 0), (0, 0, -1), (0, 1, 1), (0, -1, 1)):
        with pytest.raises(LookupError_):
            kg.has_triple(h, r, t)


# -- the relation index against a brute-force list of triples ------------------

NAMES = [f"e{i}" for i in range(6)]
RELATIONS = ["r", "s", "t"]


@st.composite
def records_with_repeats(draw, names=NAMES, relations=RELATIONS):
    """Records over few symbols, so self-loops and entities with no out- or
    in-edges are common, plus repeats of drawn records, shuffled."""
    record = st.tuples(st.sampled_from(names), st.sampled_from(relations), st.sampled_from(names))
    base = draw(st.lists(record, max_size=25))
    loops = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(relations[:2])), max_size=3))
    base += [(e, r, e) for e, r in loops]
    repeats = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    return draw(st.permutations(base + repeats))


@settings(max_examples=300, deadline=None)
@given(records=records_with_repeats(), data=st.data())
def test_index_equals_brute_force(records, data):
    kg = build_kg(records)
    distinct = sorted(set(records))
    first_seen = list(dict.fromkeys(x for h, _, t in distinct for x in (h, t)))
    assert kg.entities.symbols() == first_seen
    assert kg.relations.symbols() == list(dict.fromkeys(r for _, r, _ in distinct))
    ids = [(kg.entities.id_of(h), kg.relations.id_of(r), kg.entities.id_of(t)) for h, r, t in records]
    triples = sorted(set(ids))
    assert list(kg.iter_triples()) == triples
    assert kg.num_triples == len(triples)
    n, m = kg.num_entities, kg.num_relations
    for e in range(n):
        assert kg.out_edges(e) == [(r, t) for h, r, t in triples if h == e]
        assert kg.in_edges(e) == sorted((r, h) for h, r, t in triples if t == e)
    for h in range(n):
        for r in range(m):
            for t in range(n):
                assert kg.has_triple(h, r, t) == ((h, r, t) in triples)
    frontier = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    for r in range(m):
        assert step(kg, frontier, r, False) == {t for h, rr, t in triples if rr == r and h in frontier}
        assert step(kg, frontier, r, True) == {h for h, rr, t in triples if rr == r and t in frontier}


# non-ASCII symbols, and "r" and "e0" each both an entity and a relation
WIDE_NAMES = NAMES + ["é", "東京", "\U0001d4b3", "r"]
WIDE_RELATIONS = RELATIONS + ["ü", "e0"]


@settings(max_examples=300, deadline=None)
@given(records=records_with_repeats(WIDE_NAMES, WIDE_RELATIONS))
def test_build_kg_equals_the_groupby_build(records):
    kg, ref = build_kg(records), reference_build_kg(records)
    assert kg.entities.symbols() == ref.entities.symbols()
    assert kg.relations.symbols() == ref.relations.symbols()
    for table in (kg.entities, kg.relations):
        assert [table.id_of(x) for x in table.symbols()] == list(range(len(table)))
    for index, ref_index in ((kg.tails_of, ref.tails_of), (kg.heads_of, ref.heads_of)):
        assert [list(d.items()) for d in index] == [list(d.items()) for d in ref_index]
        assert all(type(v) is tuple for d in index for v in d.values())
    assert kg.num_triples == ref.num_triples


def symbol_triples(kg) -> set[tuple[str, str, str]]:
    ent, rel = kg.entities.symbol_of, kg.relations.symbol_of
    return {(ent(h), rel(r), ent(t)) for h, r, t in kg.iter_triples()}


@settings(max_examples=200, deadline=None)
@given(records=records_with_repeats(WIDE_NAMES, WIDE_RELATIONS))
def test_write_triples_is_read_back_by_load_triples(records):
    # one line per distinct triple, in sorted symbol order
    kg = build_kg(records)
    sink = io.StringIO()
    write_triples(kg, sink)
    assert sink.getvalue() == "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(set(records)))
    assert symbol_triples(load_triples(io.StringIO(sink.getvalue()))) == symbol_triples(kg) == set(records)


def ingest(text: str) -> tuple:
    """The KG `load_kg_file` reads from a file holding `text`, and the stdout
    of `sskgqa ingest` on that file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "kg.tsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["ingest", "--kg", path]) == 0
        return load_kg_file(path), out.getvalue()


@settings(max_examples=100, deadline=None)
@given(records=records_with_repeats(WIDE_NAMES, WIDE_RELATIONS))
def test_line_order_and_repeats_leave_the_kg_unchanged(records):
    # `records` is its distinct sorted lines shuffled, some of them repeated
    kg, stdout = ingest("".join(f"{h}\t{r}\t{t}\n" for h, r, t in records))
    want, want_stdout = ingest("".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(set(records))))
    assert kg.entities.symbols() == want.entities.symbols()
    assert kg.relations.symbols() == want.relations.symbols()
    assert kg.fingerprint() == want.fingerprint()
    for index, want_index in ((kg.tails_of, want.tails_of), (kg.heads_of, want.heads_of)):
        assert [list(d.items()) for d in index] == [list(d.items()) for d in want_index]
    assert stdout == want_stdout


def test_hub_lookups_are_bounded():
    # "hub" heads 200,000 `r` edges. The topic reaches 1,000 entities: the last
    # 500 of the hub's tails and 500 others, so a scan of the hub's tail list
    # per frontier entity would make about 2e8 comparisons.
    n = 200_000
    records = [("hub", "r", f"e{i}") for i in range(n)]
    records += [("t", "p", f"e{i}") for i in range(n - 500, n)]
    records += [("t", "p", f"x{i}") for i in range(500)]
    kg = build_kg(records)
    hub, r = kg.entities.id_of("hub"), kg.relations.id_of("r")
    last, t = kg.entities.id_of(f"e{n - 1}"), kg.entities.id_of("t")
    chain = Chain("t", (("p", False),), ((1, "r", True, "hub"),))
    start = time.perf_counter()
    assert kg.has_triple(hub, r, last) and not kg.has_triple(hub, r, t)
    assert execute(chain, kg) == {kg.entities.id_of(f"e{i}") for i in range(n - 500, n)}
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_not_utf8_names_the_line(tmp_path, newline):
    # 1,000 good lines put the bad byte past the first 8 KiB chunk text mode decodes
    path = tmp_path / "kg.tsv"
    good = "".join(f"e{i:03d}\tr\te{i:03d}x{newline}" for i in range(1000)).encode()
    path.write_bytes(good + b"e\tr\t\xc3(" + newline.encode())
    with pytest.raises(ParseError) as info:
        load_kg_file(str(path))
    assert str(info.value) == f"{path}:1001: not UTF-8: byte 0xc3: invalid continuation byte"
