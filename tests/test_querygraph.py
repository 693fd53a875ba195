import pytest

from sskgqa.annotation import UNSUPPORTED, LabeledQuestion, label_question
from sskgqa.kg import build_kg
from sskgqa.pipeline import gold_graph_of
from sskgqa.querygraph import (
    CLS,
    SEP,
    Chain,
    QueryGraphError,
    SparqlError,
    build_chain,
    canonicalize,
    chain_of,
    decode_iri,
    execute,
    extract_query_graph,
    parse_sparql,
    serialize_tokens,
    split_symbol,
    to_sparql,
)
from sskgqa.structures import (
    ANSWER,
    E_CONST,
    E_TOPIC,
    VAR,
    StructureError,
    builtin_taxonomy,
    structure_of,
)


def chain_2hop():
    return build_chain("alpha", [("r1", False), ("r2", False)])


def test_build_chain_shape():
    g = chain_2hop()
    assert g == Chain("alpha", (("r1", False), ("r2", False)), ())
    # the topic is grounded, the intermediate is ?y and the lambda ?x
    assert to_sparql(g) == "SELECT DISTINCT ?x WHERE { :alpha :r1 ?y . ?y :r2 ?x . }"
    p = extract_query_graph(parse_sparql(to_sparql(g)), "alpha")
    assert p == g


def test_build_chain_with_constraint():
    g = build_chain("a", [("r", False)], constraints=[(1, "c", "val")])
    assert g.hops == (("r", False),)
    assert g.constraints == ((1, "c", False, "val"),)
    assert g.shape == (1, (1,))
    # the triples of the same nodes and edges are read back as g
    assert chain_of([("a", "r", "x"), ("x", "c", "val")], "a", "x", {"a": "a", "val": "val"}) == g


def _extract(sparql, topic="a"):
    return extract_query_graph(parse_sparql(sparql), topic)


def test_validation_rejects_two_lambdas():
    # a query selects one variable, and a structure has one answer node
    with pytest.raises(SparqlError):
        _extract("SELECT ?x ?x2 WHERE { :a :r ?x . ?x :r ?x2 . }")
    with pytest.raises(StructureError):
        structure_of("X", (E_TOPIC, ANSWER, ANSWER), ((0, 1), (1, 2)), "X")


def test_validation_rejects_disconnected():
    # from either IRI, the other pattern is neither a path edge nor a
    # constraint on a path node
    for topic in ("a", "b"):
        with pytest.raises(QueryGraphError):
            _extract("SELECT ?x WHERE { :a :r ?x . :b :r ?y . }", topic)
    with pytest.raises(StructureError):
        structure_of("X", (E_TOPIC, ANSWER, E_CONST), ((0, 1),), "X")


def test_validation_rejects_query_without_the_topic():
    # a query that names its record's topic in no pattern has no chain, so
    # the question is Unsupported and has no gold; a predicate is no node.
    # A structure without a topic node is refused too.
    for sparql in ("SELECT ?x WHERE { ?y :r ?x . }", "SELECT ?x WHERE { :b :r ?x . }", "SELECT ?x WHERE { ?x :a ?y . }"):
        with pytest.raises(QueryGraphError, match="no pattern names the topic 'a'"):
            _extract(sparql)
        q = LabeledQuestion("q", "?", "a", [], sparql=sparql)
        assert label_question(q, builtin_taxonomy()) == UNSUPPORTED
        assert gold_graph_of(q) is None
    with pytest.raises(StructureError):
        structure_of("X", (VAR, ANSWER, E_CONST), ((0, 1), (2, 0)), "X")


def test_each_named_topic_gives_its_own_chain():
    # a path from :a with a constraint :b on ?y, or a path from :b with the
    # constraint :a on the topic's neighbour
    sparql = "SELECT ?x WHERE { :a :r ?y . ?y :s ?x . ?y :t :b . }"
    assert _extract(sparql, "a") == Chain("a", (("r", False), ("s", False)), ((1, "t", False, "b"),))
    assert _extract(sparql, "b") == Chain("b", (("t", True), ("s", False)), ((1, "r", True, "a"),))


def test_validation_rejects_lambda_named_as_a_variable():
    # naming the middle node ?x makes it the lambda, which loops
    with pytest.raises(QueryGraphError):
        _extract("SELECT ?x WHERE { :a :r ?x . ?x :s ?x . }")


def test_canonicalize_invariant_to_node_order():
    g1 = chain_2hop()
    # the same triples over other node names, in another order
    g2 = chain_of([(1, "r1", 2), (2, "r2", 0)], 1, 0, {1: "alpha"})
    assert canonicalize(g1) == canonicalize(g2)


def test_canonicalize_distinguishes_relations():
    g1 = build_chain("a", [("r", False)])
    g2 = build_chain("a", [("s", False)])
    assert canonicalize(g1) != canonicalize(g2)


def test_split_symbol():
    assert split_symbol("directed_by") == ["directed", "by"]
    assert split_symbol("a.b-c d") == ["a", "b", "c", "d"]
    assert split_symbol("plain") == ["plain"]


def test_serialize_tokens_forward_chain():
    g = build_chain("big_city", [("located_in", False)])
    assert serialize_tokens(g) == [CLS, "big", "city", "located", "in", "x", SEP]


def test_serialize_tokens_reverse_marker():
    g = build_chain("someone", [("directed_by", True), ("written_by", False)])
    toks = serialize_tokens(g)
    assert toks == [
        CLS, "someone", "directed", "by", "reverse", "y", "written", "by", "x", SEP,
    ]


def test_serialize_tokens_names_variables_by_place():
    # an extracted gold serializes as the candidate it canonicalizes equal to
    g = _extract("SELECT ?x WHERE { :a :r ?m . ?m :s ?x . }")
    cand = build_chain("a", [("r", False), ("s", False)])
    assert canonicalize(g) == canonicalize(cand)
    assert serialize_tokens(g) == serialize_tokens(cand) == [CLS, "a", "r", "y", "s", "x", SEP]


def test_serialize_tokens_rejects_more_variables_than_names():
    hops = 6  # five intermediate nodes, one more than CHAIN_VAR_NAMES
    g = chain_of([(i, "r", i + 1) for i in range(hops)], 0, hops, {0: "a"})
    with pytest.raises(QueryGraphError):
        serialize_tokens(g)


def test_serialize_tokens_constraint_tail():
    g = build_chain("a", [("r", False)], constraints=[(1, "in_year", "1990")])
    toks = serialize_tokens(g)
    assert toks[0] == CLS and toks[-1] == SEP
    assert "in" in toks and "year" in toks and "1990" in toks
    # constraint fragments come after the chain walk
    assert toks.index("1990") > toks.index("x")


KG = build_kg(
    [
        ("f1", "directed_by", "d1"),
        ("f2", "directed_by", "d1"),
        ("f1", "written_by", "w1"),
        ("f2", "written_by", "w2"),
        ("f1", "year", "1990"),
        ("f2", "year", "2000"),
    ]
)


def test_execute_forward_hop():
    g = build_chain("f1", [("directed_by", False)])
    assert execute(g, KG) == {KG.entities.id_of("d1")}


def test_execute_reversed_hop():
    g = build_chain("d1", [("directed_by", True)])
    assert execute(g, KG) == {KG.entities.id_of("f1"), KG.entities.id_of("f2")}


def test_execute_two_hop_with_constraint():
    # films of d1 written by whom, restricted to films from 1990
    g = build_chain(
        "d1",
        [("directed_by", True), ("written_by", False)],
        constraints=[(1, "year", "1990")],
    )
    assert execute(g, KG) == {KG.entities.id_of("w1")}


def test_execute_empty_result():
    g = build_chain("w1", [("directed_by", False)])
    assert execute(g, KG) == set()


def test_to_sparql_and_iri_encoding():
    g = build_chain("big city", [("located in", False)])
    q = to_sparql(g)
    assert q.startswith("SELECT DISTINCT ?x WHERE {")
    assert ":big%20city :located%20in ?x ." in q
    assert decode_iri("big%20city") == "big city"


def test_to_sparql_reversed_swaps_subject():
    g = build_chain("d1", [("directed_by", True)])
    assert "?x :directed_by :d1 ." in to_sparql(g)


def test_to_sparql_round_trip_keeps_selected_variable():
    # the query selects ?ans and also uses ?x; emitting it must not merge them
    kg = build_kg([("a", "r", "m1"), ("m1", "s", "t1"), ("a", "r", "m2"), ("m2", "s", "m2")])
    g = _extract("SELECT ?ans WHERE { :a :r ?x . ?x :s ?ans . }")
    h = _extract(to_sparql(g))
    assert canonicalize(h) == canonicalize(g)
    assert execute(h, kg) == execute(g, kg) == {kg.entities.id_of("t1"), kg.entities.id_of("m2")}
