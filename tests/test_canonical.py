"""The keys read off the chain walk against the n! canonical forms in
`reference.py`."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    EXISTENTIAL,
    GROUNDED,
    LAMBDA,
    Graph,
    graph_chain,
    reference_canonicalize,
    reference_chain,
    reference_isomorphic,
    reference_structure_canonical,
)

from sskgqa.querygraph import QueryGraphError, canonicalize
from sskgqa.structures import ANSWER, E_CONST, E_TOPIC, VAR, StructureError, structure_of

# Labels with JSON syntax, separators and edge syntax in them, and labels
# that are prefixes of others.
LABELS = ["a", "ab", "a|", "a|G:a", "|", "#", "->", "x->y", ",", "a,", "b#c", "", '"', "[]"]
RELATIONS = ["r", "rs", "r|", "#", "->", "-", ";", "r->s", ",", "1"]
VARIABLES = ["x", "y", "z", "w", "v"]


@st.composite
def chain_specs(draw):
    """(topic label, hops as (relation, back), constraints as (path position,
    relation, back, value label)): 1-3 hops and 0-2 constraints."""
    hops = draw(st.integers(1, 3))
    path = draw(st.lists(st.tuples(st.sampled_from(RELATIONS), st.booleans()), min_size=hops, max_size=hops))
    cons = st.tuples(st.integers(0, hops), st.sampled_from(RELATIONS), st.booleans(), st.sampled_from(LABELS))
    return draw(st.sampled_from(LABELS)), path, draw(st.lists(cons, max_size=2))


@st.composite
def spec_pairs(draw):
    """A spec and a copy of it with up to two small edits, so that equal and
    nearly equal pairs are both common."""
    a = draw(chain_specs())
    topic, path, cons = a[0], list(a[1]), list(a[2])
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["topic", "path", "relation", "back", "constraints", "position", "flip"]))
        i = draw(st.integers(0, len(path) - 1))
        k = draw(st.integers(0, len(cons) - 1)) if cons else None
        if edit == "topic":
            topic = draw(st.sampled_from(LABELS))
        elif edit == "path":
            path = draw(chain_specs())[1]
            cons = [(min(at, len(path)), *rest) for at, *rest in cons]
        elif edit == "relation":
            path[i] = (draw(st.sampled_from(RELATIONS)), path[i][1])
        elif edit == "back":
            path[i] = (path[i][0], not path[i][1])
        elif edit == "constraints":
            cons = [(min(at, len(path)), *rest) for at, *rest in draw(chain_specs())[2]]
        elif edit == "position" and cons:
            cons[k] = (draw(st.integers(0, len(path))), *cons[k][1:])
        elif edit == "flip" and cons:
            at, r, back, label = cons[k]
            cons[k] = (at, r, not back, label)
    return a, (topic, path, cons)


@st.composite
def chain_graphs(draw, spec):
    """The chain of `spec`, with random variable names and node, edge and
    constraint order; `back` stores an edge against the walk."""
    topic, path, cons = spec
    hops = len(path)
    names = draw(st.lists(st.sampled_from(VARIABLES), min_size=hops, max_size=hops, unique=True))
    nodes = [(GROUNDED, topic)] + [(EXISTENTIAL, n) for n in names[1:]] + [(LAMBDA, names[0])]
    edges = [(i + 1, r, i) if back else (i, r, i + 1) for i, (r, back) in enumerate(path)]
    for at, r, back, label in draw(st.permutations(cons)):
        nodes.append((GROUNDED, label))
        edges.append((len(nodes) - 1, r, at) if back else (at, r, len(nodes) - 1))
    perm = draw(st.permutations(range(len(nodes))))
    return shuffled_graph(Graph(nodes, draw(st.permutations(edges)), 0), perm)


def shuffled_graph(g: Graph, perm) -> Graph:
    nodes = [None] * len(g.nodes)
    for i, node in enumerate(g.nodes):
        nodes[perm[i]] = node
    edges = [(perm[head], rel, perm[tail]) for head, rel, tail in g.edges]
    return Graph(nodes, edges, perm[g.topic])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonicalize_equals_full_search(data):
    a, b = data.draw(spec_pairs())
    g, g2, h = data.draw(chain_graphs(a)), data.draw(chain_graphs(a)), data.draw(chain_graphs(b))
    key, key2, key_h = (canonicalize(graph_chain(x)) for x in (g, g2, h))
    assert key2 == key
    assert (key == key_h) == (reference_canonicalize(g) == reference_canonicalize(h))


@st.composite
def structures(draw):
    """(kinds, edges): a chain shape with 1-3 hops and 0-2 constraints, with
    random edge directions and node order."""
    hops = draw(st.integers(1, 3))
    at = draw(st.lists(st.integers(0, hops), max_size=2))
    kinds, edges = reference_chain(hops, at)
    perm = draw(st.permutations(range(len(kinds))))
    shuffled = [None] * len(kinds)
    for i, kind in enumerate(kinds):
        shuffled[perm[i]] = kind
    edges = [draw(st.sampled_from([(perm[s], perm[d]), (perm[d], perm[s])])) for s, d in edges]
    return tuple(shuffled), tuple(edges)


@settings(max_examples=300, deadline=None)
@given(structures(), structures())
def test_structure_canonical_equals_full_search(a, b):
    key = structure_of("a", *a, "a").canonical()
    assert (key == structure_of("b", *b, "b").canonical()) == reference_isomorphic(a, b)


@st.composite
def structure_entries(draw):
    """(kinds, edges): a topic, an answer and up to four v/Ec nodes, of which
    up to two are isolated and the rest joined by a spanning tree plus up to
    two extra edges. An extra edge may be a self-loop, parallel to a tree
    edge, or a second edge of an Ec node."""
    n = draw(st.integers(2, 6))
    kinds = (E_TOPIC, ANSWER) + tuple(draw(st.sampled_from([VAR, E_CONST])) for _ in range(n - 2))
    joined = n - draw(st.integers(0, min(2, n - 2)))  # nodes from here on are isolated
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, joined)]
    node = st.integers(0, joined - 1)
    extra = st.tuples(node, node)
    ec = [i for i in range(joined) if kinds[i] == E_CONST]
    if ec:
        extra |= st.tuples(st.sampled_from(ec), node)
    edges += draw(st.lists(extra, max_size=2))
    return kinds, tuple(draw(st.sampled_from([(a, b), (b, a)])) for a, b in edges)


@functools.cache
def chain_forms(n: int) -> frozenset:
    """n! canonical forms of the chain structures with n nodes."""
    return frozenset(
        reference_structure_canonical(*reference_chain(hops, at))
        for hops in range(1, n)
        for at in itertools.combinations_with_replacement(range(hops + 1), n - hops - 1)
    )


@settings(max_examples=300, deadline=None)
@given(structure_entries())
def test_structure_is_built_iff_it_is_a_chain(case):
    kinds, edges = case
    try:
        structure_of("s", kinds, edges, "s")
    except StructureError:
        built = False
    else:
        built = True
    assert built == (reference_structure_canonical(kinds, edges) in chain_forms(len(kinds)))


def _graph(kinds, edges) -> Graph:
    return Graph([(kind, f"n{i}") for i, kind in enumerate(kinds)], [(s, "r", d) for s, d in edges], 0)


@pytest.mark.parametrize(
    "kinds, edges",
    [
        ([GROUNDED, EXISTENTIAL, LAMBDA], [(0, 1), (1, 2), (2, 0)]),
        ([GROUNDED, LAMBDA], [(0, 1), (0, 1)]),
        ([GROUNDED, EXISTENTIAL, LAMBDA, EXISTENTIAL], [(0, 1), (1, 2), (1, 3)]),
    ],
    ids=["cycle", "parallel", "branch"],
)
def test_canonicalize_rejects_non_chains(kinds, edges):
    with pytest.raises(QueryGraphError):
        canonicalize(graph_chain(_graph(kinds, edges)))

