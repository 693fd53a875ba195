import pytest

from sskgqa.annotation import extract_query_graph, parse_sparql
from sskgqa.kg import build_kg
from sskgqa.querygraph import (
    CLS,
    EXISTENTIAL,
    GROUNDED,
    LAMBDA,
    SEP,
    Chain,
    QgEdge,
    QgNode,
    QueryGraph,
    QueryGraphError,
    build_chain,
    canonicalize,
    chain_of,
    decode_iri,
    execute,
    serialize_tokens,
    split_symbol,
    to_sparql,
)


def chain_2hop():
    return build_chain("alpha", [("r1", False), ("r2", False)])


def test_build_chain_shape():
    g = chain_2hop()
    assert g == Chain("alpha", (("r1", False), ("r2", False)), ())
    # the topic is grounded, the intermediate is ?y and the lambda ?x
    assert to_sparql(g) == "SELECT DISTINCT ?x WHERE { :alpha :r1 ?y . ?y :r2 ?x . }"
    p = extract_query_graph(parse_sparql(to_sparql(g)))
    assert p == g


def test_build_chain_with_constraint():
    g = build_chain("a", [("r", False)], constraints=[(1, "c", "val")])
    assert g.hops == (("r", False),)
    assert g.constraints == ((1, "c", False, "val"),)
    assert g.shape == (1, (1,))
    # the pattern graph with the same nodes and edges is read back as g
    nodes = [QgNode(GROUNDED, "a"), QgNode(LAMBDA, "x"), QgNode(GROUNDED, "val")]
    assert chain_of(QueryGraph(nodes, [QgEdge(0, "r", 1), QgEdge(1, "c", 2)], 0)) == g


def test_validation_rejects_two_lambdas():
    with pytest.raises(QueryGraphError):
        QueryGraph(
            nodes=[QgNode(GROUNDED, "a"), QgNode(LAMBDA, "x"), QgNode(LAMBDA, "x2")],
            edges=[QgEdge(0, "r", 1), QgEdge(1, "r", 2)],
            topic=0,
        )


def test_validation_rejects_disconnected():
    with pytest.raises(QueryGraphError):
        QueryGraph(
            nodes=[QgNode(GROUNDED, "a"), QgNode(LAMBDA, "x"), QgNode(GROUNDED, "b")],
            edges=[QgEdge(0, "r", 1)],
            topic=0,
        )


def test_validation_rejects_variable_topic():
    with pytest.raises(QueryGraphError):
        QueryGraph(
            nodes=[QgNode(EXISTENTIAL, "y"), QgNode(LAMBDA, "x"), QgNode(GROUNDED, "a")],
            edges=[QgEdge(0, "r", 1), QgEdge(2, "r", 0)],
            topic=0,
        )


def test_validation_rejects_lambda_named_as_a_variable():
    with pytest.raises(QueryGraphError):
        QueryGraph(
            nodes=[QgNode(GROUNDED, "a"), QgNode(EXISTENTIAL, "x"), QgNode(LAMBDA, "x")],
            edges=[QgEdge(0, "r", 1), QgEdge(1, "s", 2)],
            topic=0,
        )


def test_canonicalize_invariant_to_node_order():
    g1 = chain_2hop()
    # same graph with node list scrambled
    g2 = QueryGraph(
        nodes=[QgNode(LAMBDA, "x"), QgNode(GROUNDED, "alpha"), QgNode(EXISTENTIAL, "q")],
        edges=[QgEdge(1, "r1", 2), QgEdge(2, "r2", 0)],
        topic=1,
    )
    assert canonicalize(g1) == canonicalize(chain_of(g2))


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
    g = extract_query_graph(parse_sparql("SELECT ?x WHERE { :a :r ?m . ?m :s ?x . }"))
    cand = build_chain("a", [("r", False), ("s", False)])
    assert canonicalize(g) == canonicalize(cand)
    assert serialize_tokens(g) == serialize_tokens(cand) == [CLS, "a", "r", "y", "s", "x", SEP]


def test_serialize_tokens_rejects_more_variables_than_names():
    hops = 6  # five intermediate nodes, one more than CHAIN_VAR_NAMES
    nodes = [QgNode(GROUNDED, "a")] + [QgNode(EXISTENTIAL, f"v{i}") for i in range(hops - 1)]
    g = QueryGraph(nodes + [QgNode(LAMBDA, "x")], [QgEdge(i, "r", i + 1) for i in range(hops)], 0)
    with pytest.raises(QueryGraphError):
        serialize_tokens(chain_of(g))


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
    g = extract_query_graph(parse_sparql("SELECT ?ans WHERE { :a :r ?x . ?x :s ?ans . }"))
    h = extract_query_graph(parse_sparql(to_sparql(g)))
    assert canonicalize(h) == canonicalize(g)
    assert execute(h, kg) == execute(g, kg) == {kg.entities.id_of("t1"), kg.entities.id_of("m2")}
