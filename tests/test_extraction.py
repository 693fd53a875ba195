"""SPARQL extraction from the record's topic against the rule that guessed
the topic from the patterns, and the indexed chain walk against the walk
that scanned every edge left at each step (both in `reference.py`)."""

import re
from time import perf_counter

from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import reference_chain_of, reference_topic_guess

from sskgqa.annotation import UNSUPPORTED, LabeledQuestion, label_question
from sskgqa.pipeline import gold_graph_of
from sskgqa.querygraph import (
    QueryGraphError,
    build_chain,
    chain_of,
    parse_sparql,
    sparql_chain,
    to_sparql,
)
from sskgqa.structures import builtin_taxonomy

TAX = builtin_taxonomy()
# Few labels, so that a constraint value often repeats the topic or another value.
ENTITIES = ["a", "b", "c d"]
RELATIONS = ["r", "s.t"]


def walk(f, edges, topic, lam, labels):
    """f's chain, or the message of its QueryGraphError."""
    try:
        return f(edges, topic, lam, labels)
    except QueryGraphError as exc:
        return str(exc)


# -- the record's topic against the guessed one --------------------------------


@st.composite
def records(draw):
    """(SPARQL, topic): `to_sparql` of a `build_chain` chain of 1-4 hops with
    0-2 constraints, its patterns shuffled, and a topic drawn from its IRIs."""
    ent, rel = st.sampled_from(ENTITIES), st.sampled_from(RELATIONS)
    hops = draw(st.lists(st.tuples(rel, st.booleans()), min_size=1, max_size=4))
    cons = draw(st.lists(st.tuples(st.integers(0, len(hops)), rel, ent), max_size=2))
    head, body = to_sparql(build_chain(draw(ent), hops, cons)).split("{ ")
    patterns = draw(st.permutations(re.findall(r"\S+ \S+ \S+ \.", body)))
    text = f"{head}{{ {' '.join(patterns)} }}"
    iris = sorted({t[1] for s, _, o in parse_sparql(text).patterns for t in (s, o) if t[0]})
    return text, draw(st.sampled_from(iris))


def read_from(text, topic):
    """The reference walk of the query's patterns from the IRI `topic`, or None."""
    ast = parse_sparql(text)
    edges = [(s, p[1], o) for s, p, o in ast.patterns]
    labels = {t: t[1] for s, _, o in edges for t in (s, o) if t[0]}
    c = walk(reference_chain_of, edges, (True, topic), (False, ast.select_var), labels)
    return None if isinstance(c, str) else c


@settings(max_examples=500, deadline=None)
@given(records())
def test_record_topic_equals_the_guess_wherever_they_agree(record):
    text, topic = record
    q = LabeledQuestion("q", "?", topic, [], sparql=text)
    c = gold_graph_of(q)
    assert sparql_chain(text, topic) == c
    label = label_question(q, TAX)
    guess = reference_topic_guess(parse_sparql(text))
    if guess == topic:  # the chain and label the guess gave
        guessed = read_from(text, guess)
        assert c == guessed
        assert label == (UNSUPPORTED if guessed is None else TAX.find_match(guessed.shape) or UNSUPPORTED)
    else:  # the chain read from the record's topic, or None
        assert c == read_from(text, topic)
        assert c is None or c.topic == topic
    event(f"guess {'equals' if guess == topic else 'is not'} the topic, {'no ' if c is None else ''}chain")


def test_changed_cases_read_the_record_topic():
    # a constraint value on the topic: no chain from it
    assert sparql_chain("SELECT DISTINCT ?x WHERE { :a :r ?x . :a :t :b . }", "b") is None
    # the topic and a constraint value tie on distance and neither is a
    # subject: the guess took the first to appear, the record names the other
    text = "SELECT DISTINCT ?x WHERE { ?x :t :b . ?x :r :a . }"
    assert reference_topic_guess(parse_sparql(text)) == "b"
    assert sparql_chain(text, "a") == build_chain("a", [("r", True)], [(1, "t", "b")])


# -- the indexed chain walk against the scanning one ---------------------------

NODES = st.integers(0, 6)


@st.composite
def edge_lists(draw):
    """(edges, topic, lam, labels): a walk of 0-6 steps from the topic over
    nodes 0-6, each step a triple in either direction, where nodes may repeat
    (cycles, parallel and looping edges); maybe 0-3 edges anywhere; 0-3 constraint
    leaves on walk nodes to grounded nodes 7-9; a lambda that is usually the
    walk's end and may be on no edge; and the topic plus 0-2 nodes grounded,
    in shuffled order."""
    rel = st.sampled_from(["r", "s"])
    topic = draw(NODES)
    nodes = [topic] + draw(st.lists(NODES, max_size=6, unique=draw(st.booleans())))
    edges = [(a, draw(rel), b) if draw(st.booleans()) else (b, draw(rel), a) for a, b in zip(nodes, nodes[1:])]
    if draw(st.booleans()):
        edges += draw(st.lists(st.tuples(NODES, rel, NODES), max_size=3))
    for node, value in draw(st.lists(st.tuples(st.sampled_from(nodes), st.integers(7, 9)), max_size=3)):
        edges.append((node, draw(rel), value) if draw(st.booleans()) else (value, draw(rel), node))
    lam = nodes[-1] if draw(st.booleans()) else draw(st.integers(0, 10))
    grounded = {topic, *draw(st.sets(NODES, max_size=2)), *(n for e in edges for n in (e[0], e[2]) if n >= 7)}
    labels = {n: draw(st.sampled_from(ENTITIES)) for n in sorted(grounded)}
    return draw(st.permutations(edges)), topic, lam, labels


@settings(max_examples=1000, deadline=None)
@given(edge_lists())
def test_chain_walk_equals_scanning_walk(case):
    c = walk(chain_of, *case)
    assert c == walk(reference_chain_of, *case)
    event(c if isinstance(c, str) else "chain")


def test_chain_walk_equals_scanning_walk_on_named_cases():
    lab = {0: "a", 5: "v"}
    cases = {
        "path": [(0, "r", 1), (2, "s", 1), (2, "r", 3)],
        "branch": [(0, "r", 1), (1, "s", 2), (1, "s", 3)],
        "cycle": [(0, "r", 1), (1, "s", 2), (2, "r", 0), (2, "s", 3)],
        "parallel": [(0, "r", 1), (0, "s", 1), (1, "r", 3)],
        "loop": [(0, "r", 1), (1, "s", 1), (1, "r", 3)],
        "loop_at_topic": [(0, "r", 0), (0, "r", 3)],
        "constraint_leaf": [(5, "c", 1), (0, "r", 1), (1, "s", 3)],
        "constraint_off_path": [(0, "r", 3), (4, "c", 5)],
        "lambda_unreachable": [(0, "r", 1)],
        "left_over": [(0, "r", 3), (1, "s", 2)],
    }
    outcomes = {name: walk(chain_of, e, 0, 3, lab) for name, e in cases.items()}
    assert outcomes == {name: walk(reference_chain_of, e, 0, 3, lab) for name, e in cases.items()}
    assert not any(isinstance(outcomes[n], str) for n in ("path", "constraint_leaf"))
    assert sum(isinstance(c, str) for c in outcomes.values()) == len(cases) - 2


def test_long_path_query_labels_in_linear_time():
    # 8,001 patterns :a :r ?v0 . ?v0 :r ?v1 . ... ?x; the scanning walk
    # takes quadratic time on it (15 s for label_question alone on a 2-vCPU
    # x86-64 host, against about 0.1 s)
    names = [":a"] + [f"?v{i}" for i in range(8000)] + ["?x"]
    text = "SELECT ?x WHERE { " + " ".join(f"{s} :r {o} ." for s, o in zip(names, names[1:])) + " }"
    q = LabeledQuestion("q", "?", "a", [], sparql=text)
    t0 = perf_counter()
    assert label_question(q, TAX) == UNSUPPORTED
    c = gold_graph_of(q)
    assert perf_counter() - t0 < 2.0
    assert len(c.hops) == 8001 and not c.constraints
