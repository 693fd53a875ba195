"""The chain walk (`chain_of`, `serialize_tokens`, frontier `execute`)
against the DFS serializer and the backtracking join it replaced, on the
query graphs of `build_chain` chains and on chain-shaped pattern graphs."""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    EXISTENTIAL,
    GROUNDED,
    LAMBDA,
    Graph,
    graph_chain,
    lambda_of,
    reference_execute,
    reference_graph,
    reference_serialize,
    sparql_graph,
)

from sskgqa.candidates import SHAPES
from sskgqa.kg import build_kg
from sskgqa.querygraph import (
    QueryGraphError,
    build_chain,
    chain_of,
    execute,
    extract_query_graph,
    parse_sparql,
    serialize_tokens,
    to_sparql,
)


# -- strategies ---------------------------------------------------------------

NAMES = ["a", "b", "c", "d", "e_f"]
RELATIONS = ["r", "s", "t.u"]
# a -> b -> c -> a is a cycle, d has a self-loop, a and b are joined by two
# relations; every drawn KG contains these triples
LOOPS = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("d", "s", "d"), ("a", "s", "b")]


@st.composite
def kgs(draw):
    triples = draw(
        st.lists(st.tuples(*(st.sampled_from(x) for x in (NAMES, RELATIONS, NAMES))), max_size=25)
    )
    return build_kg(LOOPS + triples)


@st.composite
def chains(draw, kg):
    """`build_chain` arguments of 1-3 hops with 0-2 constraints over kg's symbols."""
    ent, rel = st.sampled_from(kg.entities.symbols()), st.sampled_from(kg.relations.symbols())
    hops = draw(st.lists(st.tuples(rel, st.booleans()), min_size=1, max_size=3))
    cons = draw(st.lists(st.tuples(st.integers(0, len(hops)), rel, ent), max_size=2))
    return draw(ent), hops, cons


@st.composite
def forms(draw, g):
    """g as built, or with its node order shuffled."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(len(g.nodes))))
        nodes = [None] * len(g.nodes)
        for i, node in enumerate(g.nodes):
            nodes[perm[i]] = node
        edges = [(perm[head], rel, perm[tail]) for head, rel, tail in g.edges]
        return Graph(nodes, edges, perm[g.topic])
    return g


@st.composite
def kg_and_chain(draw):
    """A KG, a `build_chain` chain over it, and its reference query graph as
    built or shuffled."""
    kg = draw(kgs())
    args = draw(chains(kg))
    return kg, build_chain(*args), draw(forms(reference_graph(*args)))


@st.composite
def chain_shaped(draw):
    """A path of 1-3 hops from a grounded topic to lambda, plus at most one
    grounded value hung off a path node after the topic, with random labels,
    node order and edge directions."""
    hops = draw(st.integers(1, 3))
    at = draw(st.sampled_from([None, *range(1, hops + 1)]))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=hops - 1, max_size=hops - 1, unique=True))
    nodes = [(GROUNDED, draw(st.sampled_from(NAMES)))]
    nodes += [(EXISTENTIAL, name) for name in names] + [(LAMBDA, "x")]
    pairs = [(i, i + 1) for i in range(hops)]
    if at is not None:
        nodes.append((GROUNDED, draw(st.sampled_from(NAMES))))
        pairs.append((at, hops + 1))
    perm = draw(st.permutations(range(len(nodes))))
    edges = []
    for a, b in pairs:
        a, b = draw(st.sampled_from([(perm[a], perm[b]), (perm[b], perm[a])]))
        edges.append((a, draw(st.sampled_from(RELATIONS)), b))
    return Graph([nodes[perm.index(i)] for i in range(len(nodes))], edges, perm[0])


# -- equivalence --------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(kg_and_chain())
def test_execute_equals_backtracking_join(case):
    kg, c, g = case
    assert graph_chain(g) == c
    assert execute(c, kg) == reference_execute(g, kg)


@settings(max_examples=400, deadline=None)
@given(kg_and_chain())
def test_serialize_equals_dfs_serializer_on_chains(case):
    _, c, g = case
    assert serialize_tokens(c) == reference_serialize(g)


@settings(max_examples=300, deadline=None)
@given(chain_shaped())
def test_serialize_equals_dfs_serializer_on_chain_shaped_graphs(g):
    c = graph_chain(g)
    assert c.shape in SHAPES
    assert serialize_tokens(c) == reference_serialize(g)


@settings(max_examples=200, deadline=None)
@given(kg_and_chain())
def test_serialize_equals_dfs_serializer_after_sparql_round_trip(case):
    # SPARQL names a grounded node by its label, so equal labels would merge
    _, c, g = case
    labels = [label for kind, label in g.nodes if kind == GROUNDED]
    assume(len(set(labels)) == len(labels))
    # read from the chain's topic, also when a constraint value lies farther
    # from lambda, the round trip serializes as the chain itself
    ast = parse_sparql(to_sparql(c))
    e = extract_query_graph(ast, c.topic)
    assert serialize_tokens(e) == reference_serialize(sparql_graph(ast, e.topic)) == serialize_tokens(c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_serialize_ignores_variable_names(data):
    # the variable nodes renamed to drawn names, as extraction names them
    g = data.draw(chain_shaped())
    var = [i for i, (kind, _) in enumerate(g.nodes) if kind != GROUNDED]
    pool = st.sampled_from(NAMES + ["x", "y", "m"])
    names = dict(zip(var, data.draw(st.lists(pool, min_size=len(var), max_size=len(var), unique=True))))
    edges = [(names.get(head, head), rel, names.get(tail, tail)) for head, rel, tail in g.edges]
    labels = {i: label for i, (kind, label) in enumerate(g.nodes) if kind == GROUNDED}
    c = chain_of(edges, g.topic, names[lambda_of(g)], labels)
    assert serialize_tokens(c) == serialize_tokens(graph_chain(g))


# -- non-chain graphs ---------------------------------------------------------

T, X, Y = (GROUNDED, "a"), (LAMBDA, "x"), (EXISTENTIAL, "y")
G = (GROUNDED, "b")
NOT_CHAINS = {
    # y hangs off the path topic -> x, at the topic or past lambda
    "branch": Graph([T, X, Y], [(0, "r", 1), (0, "r", 2)], 0),
    "branch_past_lambda": Graph([T, X, Y], [(0, "r", 1), (1, "r", 2)], 0),
    "cycle": Graph([T, Y, X], [(0, "r", 1), (1, "r", 2), (2, "s", 0)], 0),
    "parallel": Graph([T, X], [(0, "r", 1), (0, "s", 1)], 0),
    "self_loop": Graph([T, Y, X], [(0, "r", 1), (1, "s", 1), (1, "r", 2)], 0),
    "grounded_pair": Graph([T, X, G, (GROUNDED, "c")], [(0, "r", 1), (1, "s", 2), (2, "t", 3)], 0),
}


@pytest.mark.parametrize("name", sorted(NOT_CHAINS))
def test_non_chain_graphs_raise(name):
    g = NOT_CHAINS[name]
    kg = build_kg([("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a")])
    with pytest.raises(QueryGraphError):
        serialize_tokens(graph_chain(g))
    with pytest.raises(QueryGraphError):
        execute(graph_chain(g), kg)


# -- fan-out budget -----------------------------------------------------------


def test_three_hop_fan_out_budget():
    # the topic reaches 160 entities, each of which reaches the same 160, and
    # so on for three hops: 160**3 paths over 51,440 triples; every other
    # second-hop entity carries the constraint
    n = 160
    layers = [["t"]] + [[f"l{k}_{i}" for i in range(n)] for k in (1, 2, 3)]
    triples = [(h, "r", t) for k in range(3) for h in layers[k] for t in layers[k + 1]]
    triples += [(z, "c", "v") for z in layers[2][::2]]
    kg = build_kg(triples)
    want = {kg.entities.id_of(e) for e in layers[3]}
    for cons in ([], [(2, "c", "v")]):
        g = build_chain("t", [("r", False)] * 3, cons)
        start = time.perf_counter()
        assert execute(g, kg) == want
        assert time.perf_counter() - start < 0.5
