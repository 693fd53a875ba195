import io
import json
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sskgqa.kg import (
    LookupError_,
    ParseError,
    SymbolTable,
    build_kg,
    load_kg,
    load_kg_file,
    load_triples,
    save_kg,
    step,
)
from sskgqa.querygraph import Chain, execute


def test_symbol_table_dense_ids():
    table = SymbolTable()
    assert table.intern("a") == 0
    assert table.intern("b") == 1
    assert table.intern("a") == 0
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
    assert "line 2" in str(err.value)


def test_load_triples_empty_field():
    with pytest.raises(ParseError):
        load_triples(io.StringIO("a\t\tb\n"))


def test_save_load_round_trip(tmp_path):
    kg = build_kg([("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")])
    path = str(tmp_path / "kg.json")
    save_kg(kg, path)
    kg2 = load_kg(path)
    assert kg2.num_triples == kg.num_triples
    assert kg2.entities.symbols() == kg.entities.symbols()
    for t in kg.iter_triples():
        assert kg2.has_triple(*t)
    payload = json.loads(Path(path).read_text())
    assert set(payload) == {"entities", "relations", "triples"}


def test_load_kg_keeps_ids(tmp_path):
    # e3 is interned before e2 if the dump is re-read in triple order
    kg = build_kg([("e1", "r", "e0"), ("e0", "r", "e2"), ("e1", "r", "e3")])
    path = str(tmp_path / "kg.json")
    save_kg(kg, path)
    kg2 = load_kg(path)
    assert kg2.entities.symbols() == ["e1", "e0", "e2", "e3"]
    assert list(kg2.iter_triples()) == list(kg.iter_triples())


def test_load_kg_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\n")
    kg = load_kg_file(str(path))
    assert kg.num_triples == 1


def test_has_triple_id_checked():
    kg = build_kg([("a", "r", "b")])
    for h, r, t in ((2, 0, 0), (0, 0, -1), (0, 1, 1), (0, -1, 1)):
        with pytest.raises(LookupError_):
            kg.has_triple(h, r, t)


# -- the relation index against a brute-force list of triples ------------------

NAMES = [f"e{i}" for i in range(6)]
record = st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s", "t"]), st.sampled_from(NAMES))


@st.composite
def records_with_repeats(draw):
    """Records over few symbols, so self-loops and entities with no out- or
    in-edges are common, plus repeats of drawn records, shuffled."""
    base = draw(st.lists(record, max_size=25))
    loops = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s"])), max_size=3))
    base += [(e, r, e) for e, r in loops]
    repeats = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    return draw(st.permutations(base + repeats))


@settings(max_examples=300, deadline=None)
@given(records=records_with_repeats(), data=st.data())
def test_index_equals_brute_force(records, data):
    kg = build_kg(records)
    first_seen = list(dict.fromkeys(x for h, _, t in records for x in (h, t)))
    assert kg.entities.symbols() == first_seen
    assert kg.relations.symbols() == list(dict.fromkeys(r for _, r, _ in records))
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
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_kg(kg, first)
        save_kg(load_kg(first), second)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            dumped = f1.read()
            assert f2.read() == dumped
    want = {"entities": first_seen, "relations": kg.relations.symbols(), "triples": [list(t) for t in triples]}
    assert json.loads(dumped) == want


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
