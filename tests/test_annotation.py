import re
from time import perf_counter

import pytest

from sskgqa.annotation import (
    UNSUPPORTED,
    LabeledQuestion,
    LabelingError,
    coverage,
    label_question,
    load_dataset,
    save_dataset,
)
from sskgqa.pipeline import gold_graph_of
from sskgqa.querygraph import (
    _UNSUPPORTED_KEYWORDS,
    _UNSUPPORTED_OPS,
    QueryGraphError,
    SparqlError,
    build_chain,
    canonicalize,
    extract_query_graph,
    parse_sparql,
    to_sparql,
)
from sskgqa.structures import (
    ANSWER,
    E_CONST,
    E_TOPIC,
    StructureError,
    Taxonomy,
    builtin_taxonomy,
    structure_of,
)


def q(**kw):
    base = dict(id="q0", question="?", topic_entity="a", answers=[])
    base.update(kw)
    return LabeledQuestion(**base)


def test_parse_basic_select():
    ast = parse_sparql("SELECT DISTINCT ?x WHERE { :a :r ?x . }")
    assert ast.select_var == "x"
    assert ast.patterns == [((True, "a"), (True, "r"), (False, "x"))]


def test_parse_prefix_and_multiple_patterns():
    text = (
        "PREFIX ns: <http://example.org/> "
        "SELECT ?x WHERE { ns:a ns:r ?y . ?y ns:s ?x . }"
    )
    ast = parse_sparql(text)
    assert len(ast.patterns) == 2
    assert ast.patterns[0][0] == (True, "a")


def test_parse_percent_decoding():
    ast = parse_sparql("SELECT ?x WHERE { :big%20city :r ?x . }")
    assert ast.patterns[0][0] == (True, "big city")


@pytest.mark.parametrize("tok", sorted(_UNSUPPORTED_KEYWORDS) + list(_UNSUPPORTED_OPS))
def test_unsupported_clause_is_refused(tok):
    # a query with a clause or operator outside the subset has no chain
    sparql = f"SELECT ?x WHERE {{ :a :r ?x . {tok} ( ?x < 3 ) }}"
    with pytest.raises(SparqlError, match=re.escape(repr(tok))):
        parse_sparql(sparql)
    assert label_question(q(sparql=sparql), builtin_taxonomy()) == UNSUPPORTED
    assert gold_graph_of(q(sparql=sparql)) is None


@pytest.mark.parametrize(
    "tail, first",
    [("ORDER BY DESC(?x) LIMIT 1", "ORDER"), ("FILTER ( ?x < 3 )", "FILTER"), ("}}", "}")],
)
def test_token_after_where_block_is_refused(tail, first):
    # a superlative's ORDER BY ... LIMIT 1 is not part of the chain
    sparql = f"SELECT ?x WHERE {{ :a :r ?x . }} {tail}"
    with pytest.raises(SparqlError, match=re.escape(f"unexpected {first!r}")) as err:
        parse_sparql(sparql)
    assert err.value.position == 9  # the first token after the closing }
    assert label_question(q(sparql=sparql), builtin_taxonomy()) == UNSUPPORTED
    assert gold_graph_of(q(sparql=sparql)) is None


def test_parse_errors():
    with pytest.raises(SparqlError):
        parse_sparql("SELECT ?x WHERE { }")
    with pytest.raises(SparqlError):
        parse_sparql("ASK { :a :r ?x . }")
    with pytest.raises(SparqlError):
        parse_sparql("SELECT ?x WHERE { :a :r ?y . }")  # select var unused


def test_extract_round_trip_chain():
    g = build_chain("yuriy norshteyn", [("directed_by", True), ("written_by", False)])
    ast = parse_sparql(to_sparql(g))
    g2 = extract_query_graph(ast, g.topic)
    assert canonicalize(g2) == canonicalize(g)


def test_extract_reads_the_chain_from_the_given_topic():
    # constraint value "1990" is one step from lambda, topic "d1" two steps
    g = build_chain(
        "d1", [("made", False), ("written_by", False)], constraints=[(1, "year", "1990")]
    )
    g2 = extract_query_graph(parse_sparql(to_sparql(g)), "d1")
    assert g2.topic == "d1"
    assert canonicalize(g2) == canonicalize(g)


def test_label_question_by_hops():
    tax = builtin_taxonomy()
    assert label_question(q(hops=1), tax) == "SS1"
    assert label_question(q(hops=3), tax) == "SS3"
    assert label_question(q(hops=4), tax) == UNSUPPORTED


def test_label_question_by_sparql():
    tax = builtin_taxonomy()
    g = build_chain("a", [("r", False), ("s", False)])
    assert label_question(q(sparql=to_sparql(g)), tax) == "SS2"
    assert label_question(q(sparql="SELECT ?x WHERE { :a :r ?x . FILTER ( ?x < 3 ) }"), tax) == UNSUPPORTED
    assert label_question(q(sparql="not sparql at all"), tax) == UNSUPPORTED


def test_label_question_constraint_on_topic():
    # from the topic :b, the value :a is a constraint on the topic; from :a
    # there is no chain, as :a reaches ?x only through :b
    tc = structure_of("TC", (E_TOPIC, ANSWER, E_CONST), ((0, 1), (0, 2)), "TC")
    sparql = "SELECT ?x WHERE { :b :r ?x . :b :r :a . }"
    g = extract_query_graph(parse_sparql(sparql), "b")
    assert g.topic == "b"
    assert g.shape == tc.shape == (1, (0,))
    # enumeration never emits a constraint on the topic, so no taxonomy may
    # hold that shape, and the question is Unsupported
    with pytest.raises(StructureError, match=r"TC: .* \(1, \(0,\)\)"):
        Taxonomy(list(builtin_taxonomy()) + [tc])
    assert label_question(q(sparql=sparql, topic_entity="b"), builtin_taxonomy()) == UNSUPPORTED
    with pytest.raises(QueryGraphError):
        extract_query_graph(parse_sparql(sparql), "a")


def test_label_long_chain_is_bounded():
    # a 10-node chain matches no structure; labelling is one linear walk
    # of the chain, so even a long one is rejected at once
    names = [":a"] + [f"?v{i}" for i in range(1, 9)] + ["?x"]
    patterns = " ".join(f"{s} :r{i} {o} ." for i, (s, o) in enumerate(zip(names, names[1:])))
    t0 = perf_counter()
    label = label_question(q(sparql=f"SELECT ?x WHERE {{ {patterns} }}"), builtin_taxonomy())
    assert label == UNSUPPORTED
    assert perf_counter() - t0 < 0.5


def test_label_question_prefers_hops():
    tax = builtin_taxonomy()
    g = build_chain("a", [("r", False)])
    assert label_question(q(hops=2, sparql=to_sparql(g)), tax) == "SS2"
    assert label_question(q(sparql=to_sparql(g)), tax) == "SS1"
    assert label_question(q(), tax) == UNSUPPORTED


def test_coverage():
    tax = builtin_taxonomy()
    good = q(hops=1)
    bad = q(id="q1")
    assert coverage([label_question(x, tax) for x in (good, good, good, bad)]) == 75.0
    assert coverage([]) is None


def test_dataset_round_trip(tmp_path):
    path = str(tmp_path / "data.jsonl")
    qs = [
        q(id="a", hops=2),
        q(id="b", sparql="SELECT ?x WHERE { :a :r ?x . }", answers=["z"]),
    ]
    save_dataset(qs, path)
    back = load_dataset(path)
    assert [x.id for x in back] == ["a", "b"]
    assert back[0].hops == 2
    assert back[1].sparql == qs[1].sparql
    assert back[1].answers == ["z"]
    assert back == qs


def test_load_dataset_bad_json(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(LabelingError):
        load_dataset(str(path))
