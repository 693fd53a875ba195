"""The grouped canonical-form search against the n! search it replaces."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sskgqa.querygraph import (
    EXISTENTIAL,
    GROUNDED,
    LAMBDA,
    QgEdge,
    QgNode,
    QueryGraph,
    _node_tag,
    bfs_depths,
    canonicalize,
)
from sskgqa.structures import ANSWER, E_TOPIC, SemanticStructure

# Labels with the separators and edge syntax in them, and labels that are
# prefixes of others. "a|G:a" makes the tag "G:a|G:a", which commutes with
# "G:a" under "|"; "v,v" commutes with "v" under ",".
LABELS = ["a", "ab", "a|", "a|G:a", "|", "#", "->", "x->y", ",", "a,", "b#c", ""]
RELATIONS = ["r", "rs", "r|", "#", "->", "-", ";", "r->s", ",", "1"]
KINDS = ["v", "Ec", "v,", "v,v", "Ec,", "E,", ",", "a,", "#", "v>"]


def reference_canonicalize(g: QueryGraph) -> str:
    """canonicalize by trying every node order."""
    n = len(g.nodes)
    tags = [_node_tag(g.nodes[i], i == g.topic) for i in range(n)]
    edges = [(e.src, e.relation, e.dst) for e in g.edges]
    best = None
    for perm in itertools.permutations(range(n)):
        node_part = [None] * n
        for i in range(n):
            node_part[perm[i]] = tags[i]
        edge_part = sorted((perm[s], r, perm[d]) for s, r, d in edges)
        cand = "|".join(node_part) + "#" + ";".join(f"{s}-{r}->{d}" for s, r, d in edge_part)
        if best is None or cand < best:
            best = cand
    return best


def reference_structure_canonical(ss: SemanticStructure) -> str:
    """SemanticStructure.canonical by trying every node order."""
    n = len(ss.kinds)
    best = None
    for perm in itertools.permutations(range(n)):
        node_part = [None] * n
        for i in range(n):
            node_part[perm[i]] = ss.kinds[i]
        edge_part = sorted((perm[s], perm[d]) for s, d in ss.edges)
        cand = ",".join(node_part) + "#" + ";".join(f"{s}>{d}" for s, d in edge_part)
        if best is None or cand < best:
            best = cand
    return best


@st.composite
def connected_edges(draw, n):
    """A spanning tree over 0..n-1 plus up to three extra edges, which may be
    self-loops or parallel to tree edges."""
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=3))
    return [draw(st.sampled_from([(a, b), (b, a)])) for a, b in edges]


@st.composite
def query_graphs(draw):
    n = draw(st.integers(2, 6))
    nodes = [QgNode(GROUNDED, draw(st.sampled_from(LABELS))), QgNode(LAMBDA, "x")]
    for i in range(2, n):
        if draw(st.booleans()):
            nodes.append(QgNode(GROUNDED, draw(st.sampled_from(LABELS))))
        else:
            nodes.append(QgNode(EXISTENTIAL, f"v{i}"))
    edges = [QgEdge(a, draw(st.sampled_from(RELATIONS)), b) for a, b in draw(connected_edges(n))]
    return QueryGraph(nodes, edges, topic=0), draw(st.permutations(range(n)))


@st.composite
def structures(draw):
    n = draw(st.integers(2, 6))
    kinds = (E_TOPIC, ANSWER) + tuple(draw(st.sampled_from(KINDS)) for _ in range(n - 2))
    return SemanticStructure("s", kinds, tuple(draw(connected_edges(n)))), draw(
        st.permutations(range(n))
    )


def shuffled_graph(g: QueryGraph, perm) -> QueryGraph:
    nodes = [None] * len(g.nodes)
    for i, node in enumerate(g.nodes):
        nodes[perm[i]] = node
    edges = [QgEdge(perm[e.src], e.relation, perm[e.dst]) for e in g.edges]
    return QueryGraph(nodes, edges, topic=perm[g.topic])


@settings(max_examples=300, deadline=None)
@given(query_graphs())
def test_canonicalize_equals_full_search(case):
    g, perm = case
    key = canonicalize(g)
    assert key == reference_canonicalize(g)
    assert canonicalize(shuffled_graph(g, perm)) == key


@settings(max_examples=300, deadline=None)
@given(structures())
def test_structure_canonical_equals_full_search(case):
    ss, perm = case
    key = ss.canonical()
    assert key == reference_structure_canonical(ss)
    kinds = [None] * len(ss.kinds)
    for i, kind in enumerate(ss.kinds):
        kinds[perm[i]] = kind
    edges = tuple((perm[s], perm[d]) for s, d in ss.edges)
    assert SemanticStructure("s", tuple(kinds), edges).canonical() == key


def test_commuting_tags_share_a_group():
    # "G:a|G:a" and "G:a" commute under "|", so every order of the two
    # grounded nodes gives the same node part and both must be tried
    g = QueryGraph(
        [QgNode(GROUNDED, "t"), QgNode(LAMBDA, "x"), QgNode(GROUNDED, "a|G:a"), QgNode(GROUNDED, "a")],
        [QgEdge(0, "r", 1), QgEdge(1, "s", 2), QgEdge(1, "s", 3), QgEdge(3, "u", 2)],
        topic=0,
    )
    assert canonicalize(g) == reference_canonicalize(g)


def test_bfs_depths():
    edges = [(0, 1), (1, 2), (2, 0), (3, 3)]
    assert bfs_depths(5, edges, 0) == {0: 0, 1: 1, 2: 1}
    assert bfs_depths(5, edges, 3) == {3: 0}
