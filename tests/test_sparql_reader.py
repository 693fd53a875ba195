"""The SPARQL reader against the peek/take reader it replaced (in
`reference.py`), on `to_sparql` queries and broken copies of them, the
writer's escape against its per-character loop, and the writer and reader as
a round trip over all of Unicode."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import (
    reference_decode_iri,
    reference_encode_iri,
    reference_extract_query_graph,
    reference_pairs,
    reference_parse_sparql,
)

from sskgqa.annotation import UNSUPPORTED, LabeledQuestion, label_question
from sskgqa.querygraph import (
    _UNSUPPORTED_KEYWORDS,
    _UNSUPPORTED_OPS,
    Chain,
    QueryGraphError,
    SparqlAst,
    SparqlError,
    _encode_iri,
    build_chain,
    decode_iri,
    extract_query_graph,
    parse_sparql,
    sparql_chain,
    to_sparql,
)
from sskgqa.structures import builtin_taxonomy

TAX = builtin_taxonomy()
# Few symbols, so that labels repeat, and some that need an escape.
ENTITIES = ["a", "b", "x", "c d", "e=f", "g\u2003h", "%u0041"]
RELATIONS = ["r", "s.t", "u:v"]
KEYWORDS = {"PREFIX", "SELECT", "DISTINCT", "WHERE"}
SOMETIMES = st.sampled_from([True, False, False, False])
# tokens a mutation may insert: keywords, clauses and operators outside the
# subset, solution modifiers, punctuation, bare `?` and `:`, and terms
INSERTS = sorted(KEYWORDS | _UNSUPPORTED_KEYWORDS | set(_UNSUPPORTED_OPS)) + [
    "ORDER", "BY", "DESC", "LIMIT", "1", "(", ")", "{", "}", "<", ">", ".",
    "?", ":", "ns:", "?x", "?y", ":a", "ns:b", "filter", "%", "%u2003",
]


def read(parse, extract, text, topic):
    """(ast, chain) of the query from `topic`, or the type, message and
    position of the error that stopped it. Any other exception fails the
    test that calls this."""
    try:
        ast = parse(text)
    except SparqlError as exc:
        return "SparqlError", str(exc), exc.position
    try:
        return ast, extract(ast, topic)
    except QueryGraphError as exc:
        return ast, "QueryGraphError", str(exc)


def read_reference(text, topic):
    """`read` by the reference reader, its AST's terms as (is IRI, name) pairs."""
    got = read(reference_parse_sparql, reference_extract_query_graph, text, topic)
    return (reference_pairs(got[0]), *got[1:]) if isinstance(got[0], SparqlAst) else got


@st.composite
def queries(draw):
    """(SPARQL, topic): the tokens of `to_sparql` of a chain of 1-5 hops and
    0-2 constraints either way, maybe after PREFIX lines, with keywords maybe
    in lower case, maybe a FILTER before the closing `}` and an ORDER BY
    after it, then 0-3 tokens dropped, duplicated, swapped, inserted or
    replaced; the topic is mostly the chain's, else any entity."""
    ent, rel = st.sampled_from(ENTITIES), st.sampled_from(RELATIONS)
    hops = draw(st.lists(st.tuples(rel, st.booleans()), min_size=1, max_size=5))
    cons = draw(st.lists(st.tuples(st.integers(0, len(hops)), rel, st.booleans(), ent), max_size=2))
    chain = Chain(draw(ent), tuple(hops), tuple(sorted(cons, key=lambda c: c[0])))
    toks = to_sparql(chain).split()
    for _ in range(draw(st.integers(0, 2))):
        toks = ["PREFIX", draw(st.sampled_from(["ns:", ":", "p"])), "<", "http://example.org/", ">", *toks]
    toks = [t.lower() if t in KEYWORDS and draw(st.booleans()) else t for t in toks]
    if draw(SOMETIMES):
        toks[-1:-1] = ["FILTER", "(", "?x", draw(st.sampled_from(_UNSUPPORTED_OPS)), "3", ")"]
    if draw(SOMETIMES):
        toks += ["ORDER", "BY", "DESC", "(", "?x", ")", "LIMIT", "1"]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "insert", "replace"]))
        i = draw(st.integers(0, max(len(toks) - 1, 0)))
        if kind == "insert":
            toks.insert(i, draw(st.sampled_from(INSERTS)))
        elif toks and kind == "replace":
            toks[i] = draw(st.sampled_from(INSERTS))
        elif toks and kind == "drop":
            del toks[i]
        elif toks and kind == "duplicate":
            toks.insert(i, toks[i])
        elif toks:
            j = draw(st.integers(0, len(toks) - 1))
            toks[i], toks[j] = toks[j], toks[i]
    text = draw(st.sampled_from([" ", "\n", "  "])).join(toks)
    return text, draw(st.sampled_from(ENTITIES)) if draw(SOMETIMES) else chain.topic


@settings(max_examples=1000, deadline=None)
@given(queries())
def test_reader_equals_the_peek_take_reader(query):
    text, topic = query
    got = read(parse_sparql, extract_query_graph, text, topic)
    assert got == read_reference(text, topic)
    chain = got[1] if isinstance(got[1], Chain) else None
    assert sparql_chain(text, topic) == chain
    label = UNSUPPORTED if chain is None else TAX.find_match(chain.shape) or UNSUPPORTED
    assert label_question(LabeledQuestion("q", "?", topic, [], sparql=text), TAX) == label
    event("chain" if chain else got[0] if isinstance(got[0], str) else got[1])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "SELECT",
        "SELECT x WHERE { :a :r ?x . }",
        "select distinct ?x where { :a :r ?x . }",
        "PREFIX",
        "PREFIX ns:",
        "PREFIX ns: <http://example.org/",
        "PREFIX ns: <http://example.org/> SELECT ?x WHERE { ns:a ns:r ?x . }",
        "SELECT ?x WHERE { ? :r ?x . }",
        "SELECT ?x WHERE { ? :r ?x }",
        "SELECT ?x WHERE { :a ? ?x . }",
        "SELECT ?x WHERE { :a :r : . }",
        "SELECT ?x WHERE { : :r ?x . }",
        "SELECT ?x WHERE { :a :r ?x }",
        "SELECT ?x WHERE { :a :r",
        "SELECT ?x WHERE { :a :r ?x .",
        "SELECT ?x WHERE { }",
        "SELECT ?x WHERE { :a :r ?y . }",
        "SELECT ? WHERE { :a :r ?x . }",
        "SELECT ?a WHERE { :a :r ?x . }",
        "SELECT ?x WHERE { :a ?p ?x . }",
        "SELECT ?x WHERE { :a :r ?x . } LIMIT 1",
        "SELECT ?x WHERE { :b :r ?x . }",
        "SELECT ?x WHERE { :a :r ?x . :a :s ?x . }",
        "SELECT ?x WHERE { ?x :r :a . ?x :s :b . }",
    ],
)
def test_reader_equals_the_peek_take_reader_on_named_cases(text):
    assert read(parse_sparql, extract_query_graph, text, "a") == read_reference(text, "a")


@pytest.mark.parametrize("text, position", [("SELECT", 1), ("PREFIX", 1)])
def test_end_where_any_token_may_come_names_no_wanted_token(text, position):
    # after SELECT comes the ?variable, after PREFIX the namespace: no one
    # token is wanted, so the message names none (the named cases above hold
    # the reference reader to the same message)
    with pytest.raises(SparqlError) as err:
        parse_sparql(text)
    assert str(err.value) == f"unexpected end of input (at token {position})"
    assert err.value.position == position


# -- the writer and the reader as a round trip ---------------------------------

# any text, with the characters that need an escape drawn often
CHARS = st.one_of(st.characters(), st.sampled_from("=%.:?{}()<> \t\u0085\u00a0\u2003\u2028\u3000"))
TEXT = st.text(CHARS)


@settings(max_examples=500, deadline=None)
@given(TEXT)
def test_decode_reads_back_what_encode_wrote(s):
    assert decode_iri(_encode_iri(s)) == s


def test_encode_iri_equals_the_loop_on_every_character():
    # pins the one-pass search's character class against `str.isspace`
    chars = [chr(c) for c in range(0x110000)]
    assert [_encode_iri(ch) for ch in chars] == [reference_encode_iri(ch) for ch in chars]


@settings(max_examples=500, deadline=None)
@given(TEXT)
def test_encode_iri_equals_the_loop(s):
    assert _encode_iri(s) == reference_encode_iri(s)


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("%u0aF9"), st.characters())))
def test_decode_iri_equals_the_escape_regex(s):
    assert decode_iri(s) == reference_decode_iri(s)


@st.composite
def unicode_chains(draw):
    """A chain of 1-5 hops and 0-2 constraints either way whose symbols are
    distinct non-empty texts drawn from all of Unicode."""
    n_hops, n_cons = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    n = 1 + n_hops + 2 * n_cons
    syms = draw(st.lists(st.text(CHARS, min_size=1), min_size=n, max_size=n, unique=True))
    hops = tuple((rel, draw(st.booleans())) for rel in syms[1 : 1 + n_hops])
    rest = syms[1 + n_hops :]
    cons = [(draw(st.integers(0, n_hops)), rest[2 * k], draw(st.booleans()), rest[2 * k + 1]) for k in range(n_cons)]
    return Chain(syms[0], hops, tuple(sorted(cons, key=lambda c: c[0])))


@settings(max_examples=300, deadline=None)
@given(unicode_chains())
def test_sparql_round_trip_over_all_of_unicode(c):
    assert sparql_chain(to_sparql(c), c.topic) == c


def test_equals_sign_and_wide_whitespace_survive_the_round_trip():
    assert _encode_iri("a=b\u2003c d%") == "a%3db%u2003c%20d%25"
    for symbol in ("a=b", "x\u2003y", "x\u3000y", "x\u2028y"):
        c = build_chain(symbol, [("r", False)])
        assert sparql_chain(to_sparql(c), symbol) == c


def test_decode_iri_reads_the_wide_escape():
    # a deliberate change: `%uXXXX` was left as written before the wide escape
    assert decode_iri("%u0041") == "A"
    assert decode_iri("%25u0041") == "%u0041"
    assert decode_iri("%u2003x%41") == "\u2003xA"
