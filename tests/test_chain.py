"""`Chain`, the one query-graph value, against the query-graph oracles in
`reference.py` run on the graph `build_chain` used to build
(`reference_graph`) and on the pattern graph of its SPARQL round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    graph_chain,
    reference_canonicalize,
    reference_execute,
    reference_graph,
    reference_serialize,
    sparql_graph,
)

from sskgqa import querygraph, structures
from sskgqa.candidates import EnumConfig, enumerate_candidates
from sskgqa.kg import build_kg
from sskgqa.pipeline import PipelineConfig, evaluate, tokenize_question
from sskgqa.querygraph import (
    QueryGraphError,
    build_chain,
    canonicalize,
    execute,
    extract_query_graph,
    parse_sparql,
    serialize_tokens,
    to_sparql,
)
from sskgqa.ranker import TokenOverlapRanker, rank_candidates
from sskgqa.structures import builtin_taxonomy
from sskgqa.synth import three_hop_benchmark

# Few labels, so that equal keys, repeated labels and shared values are common.
ENTITIES = ["a", "b", "c d"]
RELATIONS = ["r", "s.t"]
# every drawn KG contains a cycle a -> b -> c d -> a and a self-loop on b
LOOPS = [("a", "r", "b"), ("b", "r", "c d"), ("c d", "r", "a"), ("b", "s.t", "b")]


@st.composite
def chain_args(draw):
    """`build_chain` arguments: 1-3 hops, each maybe reversed, and 0-2
    constraints on any path node, the topic included."""
    ent, rel = st.sampled_from(ENTITIES), st.sampled_from(RELATIONS)
    hops = draw(st.lists(st.tuples(rel, st.booleans()), min_size=1, max_size=3))
    cons = draw(st.lists(st.tuples(st.integers(0, len(hops)), rel, ent), max_size=2))
    return draw(ent), hops, cons


@st.composite
def kgs(draw):
    triples = draw(st.lists(st.tuples(*(st.sampled_from(x) for x in (ENTITIES, RELATIONS, ENTITIES))), max_size=12))
    return build_kg(LOOPS + triples)


def forms(args):
    """(chain, the query graph it stands for) for the chain of `args` and,
    when its SPARQL extracts to a chain, for that round trip."""
    c = build_chain(*args)
    out = [(c, reference_graph(*args))]
    ast = parse_sparql(to_sparql(c))
    try:
        e = extract_query_graph(ast, c.topic)
    except QueryGraphError:
        # SPARQL names an entity once, so a repeated label can join two
        # nodes into a non-chain; the pattern graph is then no chain from
        # the chain's own topic either
        with pytest.raises(QueryGraphError):
            graph_chain(sparql_graph(ast, c.topic))
    else:
        out.append((e, sparql_graph(ast, e.topic)))
    return out


@settings(max_examples=300, deadline=None)
@given(kgs(), chain_args())
def test_chain_equals_graph_oracles(kg, args):
    for c, g in forms(args):
        assert graph_chain(g) == c
        assert serialize_tokens(c) == reference_serialize(g)
        assert execute(c, kg) == reference_execute(g, kg)


@settings(max_examples=300, deadline=None)
@given(chain_args(), chain_args(), st.randoms(use_true_random=False))
def test_keys_equal_iff_reference_forms_equal(a, b, random):
    # b is often a with its constraints in another order, which keeps the key
    if random.random() < 0.3:
        b = (a[0], a[1], random.sample(a[2], len(a[2])))
    # A round trip that merged two grounded nodes of one label is left out:
    # its key, like the chain's, counts each constraint edge, while the n!
    # form sees one node with two edges.
    pairs = [(c, g) for args in (a, b) for c, g in forms(args) if len(g.nodes) == len(reference_graph(*args).nodes)]
    for c, g in pairs:
        for c2, g2 in pairs:
            assert (canonicalize(c) == canonicalize(c2)) == (reference_canonicalize(g) == reference_canonicalize(g2))


def test_round_trip_of_distinct_labels_keeps_the_chain():
    c = build_chain("d1", [("made", False), ("written_by", True)], [(2, "lang", "ru"), (0, "in", "x y")])
    assert extract_query_graph(parse_sparql(to_sparql(c)), "d1") == c


@pytest.mark.parametrize(
    "args, sparql",
    [
        (
            ("d1", [("directed_by", True), ("written_by", False)], []),
            "SELECT DISTINCT ?x WHERE { ?y :directed_by :d1 . ?y :written_by ?x . }",
        ),
        (
            ("d1", [("made", False), ("written_by", True)],
             [(0, "in_country", "ru"), (1, "year", "1990"), (2, "lang", "big city")]),
            "SELECT DISTINCT ?x WHERE { :d1 :made ?y . ?x :written_by ?y . :d1 :in_country :ru ."
            " ?y :year :1990 . ?x :lang :big%20city . }",
        ),
        (
            ("t0", [("r0", False), ("r1", False)], [(1, "rc", "e 7")]),
            "SELECT DISTINCT ?x WHERE { :t0 :r0 ?y . ?y :r1 ?x . ?y :rc :e%207 . }",
        ),
    ],
    ids=["reversed_hop", "constraints_in_path_order", "ss6_gold"],
)
def test_to_sparql_strings(args, sparql):
    assert to_sparql(build_chain(*args)) == sparql


def test_build_chain_errors():
    for hops, cons in (([], []), ([("r", False)] * 6, []), ([("r", False)], [(2, "c", "v")])):
        with pytest.raises(QueryGraphError):
            build_chain("a", hops, cons)


def test_answering_builds_no_query_graph(monkeypatch):
    tax = builtin_taxonomy()  # structures are read with chain_of once, here

    def refuse(*args):
        raise AssertionError("chain_of was called")

    for module in (querygraph, structures):
        monkeypatch.setattr(module, "chain_of", refuse)
    with pytest.raises(AssertionError):
        extract_query_graph(parse_sparql("SELECT ?x WHERE { :a :r ?x . }"), "a")
    kg, questions = three_hop_benchmark(8, seed=0)
    ranker = TokenOverlapRanker()
    for q in questions:
        cands = enumerate_candidates(kg, q.topic_entity, EnumConfig()).graphs
        best = rank_candidates(ranker, tokenize_question(q.question), cands)[0]
        execute(best, kg)
    report = evaluate(PipelineConfig(kg=kg, taxonomy=tax, ranker=ranker, mode="oracle"), questions)
    assert report.hits_at_1 == 100.0
