from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_chain, reference_enumerate

from sskgqa.candidates import SHAPES, EnumConfig, derived_enum, enumerate_candidates
from sskgqa.kg import build_kg
from sskgqa.pipeline import tokenize_question
from sskgqa.querygraph import CLS, SEP, execute, serialize_tokens
from sskgqa.ranker import TokenOverlapRanker
from sskgqa.structures import (
    ANSWER,
    E_CONST,
    E_TOPIC,
    builtin_taxonomy,
    structure_of,
)


KG = build_kg(
    [
        ("a", "r", "b"),
        ("b", "r", "c"),
        ("b", "s", "d"),
        ("d", "t", "a"),
    ]
)


def test_enum_config_validation():
    with pytest.raises(ValueError):
        EnumConfig(max_hops=0)
    with pytest.raises(ValueError):
        EnumConfig(max_hops=4)
    with pytest.raises(ValueError):
        EnumConfig(max_candidates=0)


def test_one_hop_candidates():
    res = enumerate_candidates(KG, "b", EnumConfig(max_hops=1))
    assert not res.truncated
    # forward r (c), forward s (d), reverse r (a)
    assert len(res.graphs) == 3
    for g in res.graphs:
        assert execute(g, KG)  # every candidate is satisfiable


def test_all_candidates_satisfiable_multi_hop():
    res = enumerate_candidates(KG, "a", EnumConfig(max_hops=3))
    assert res.graphs
    for g in res.graphs:
        assert execute(g, KG)


# a -> b -> c -> a is a cycle, d has a self-loop, and a, b are joined by
# two parallel relations (one of them also in the reverse direction)
LOOPY_KG = build_kg(
    [
        ("a", "r", "b"),
        ("a", "s", "b"),
        ("b", "s", "a"),
        ("b", "r", "c"),
        ("c", "t", "a"),
        ("c", "r", "d"),
        ("d", "t", "d"),
    ]
)


def test_candidates_deduplicated():
    # enumeration does not deduplicate: distinct chains are never isomorphic
    from sskgqa.querygraph import canonicalize

    for kg, cfg in [
        (KG, EnumConfig(max_hops=2)),
        (LOOPY_KG, EnumConfig(max_hops=3)),
        (LOOPY_KG, EnumConfig(max_hops=3, attach_constraints=True)),
    ]:
        res = enumerate_candidates(kg, "a", cfg)
        assert not res.truncated
        keys = [canonicalize(g) for g in res.graphs]
        assert len(keys) == len(set(keys))


def test_truncation_flag():
    res = enumerate_candidates(KG, "a", EnumConfig(max_hops=3, max_candidates=2))
    assert res.truncated
    assert len(res.graphs) == 2


def test_constraint_attachment():
    kg = build_kg(
        [
            ("d1", "made", "f1"),
            ("d1", "made", "f2"),
            ("f1", "year", "1990"),
            ("f2", "year", "2000"),
        ]
    )
    res = enumerate_candidates(
        kg, "d1", EnumConfig(max_hops=1, attach_constraints=True)
    )
    constrained = [c for c in res.graphs if c.constraints]
    assert constrained
    values = set()
    for c in constrained:
        assert execute(c, kg)  # constrained candidates stay satisfiable
        values.update(value for *_, value in c.constraints)
    assert {"1990", "2000"} <= values


def test_constraint_abstracts_to_constrained_structure():
    from sskgqa.structures import builtin_taxonomy

    kg = build_kg([("d1", "made", "f1"), ("f1", "year", "1990")])
    res = enumerate_candidates(
        kg, "d1", EnumConfig(max_hops=1, attach_constraints=True)
    )
    labels = {builtin_taxonomy().find_match(g.shape) for g in res.graphs}
    assert "SS4" in labels


def test_deterministic_order():
    a = enumerate_candidates(KG, "a", EnumConfig(max_hops=3))
    b = enumerate_candidates(KG, "a", EnumConfig(max_hops=3))
    from sskgqa.querygraph import canonicalize

    assert [canonicalize(g) for g in a.graphs] == [canonicalize(g) for g in b.graphs]


# Two constraints on the answer: no enumerated chain has this structure.
TWO_CONSTRAINTS = structure_of("two", (E_TOPIC, ANSWER, E_CONST, E_CONST), ((0, 1), (1, 2), (1, 3)), "two")
NAMES = ["a", "b", "c", "d"]


@settings(max_examples=150, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s", "t"]), st.sampled_from(NAMES)),
        min_size=3,
        max_size=12,
        unique=True,
    ),
    pick=st.integers(0, 3),
    attach=st.booleans(),
    cap=st.integers(1, 12),
)
def test_structure_enumeration_equals_filtered_enumeration(triples, pick, attach, cap):
    # the chains built for ss are those the filter keeps from the full
    # enumeration of ss's hop count and constraint need, in the same order
    kg = build_kg(triples)
    topic = kg.entities.symbol_of(pick % kg.num_entities)
    for ss in builtin_taxonomy().structures + [TWO_CONSTRAINTS]:
        for max_hops in (1, 2, 3):
            cfg = EnumConfig(max_hops=max_hops, attach_constraints=attach)
            full = enumerate_candidates(kg, topic, derived_enum(cfg, ss.shape)).graphs
            # the pipeline's fallback: every entity of a triple starts a chain
            assert full
            want = [c for c in full if c.shape == ss.shape]
            got = enumerate_candidates(kg, topic, cfg, ss.shape)
            assert got.graphs == want and not got.truncated
            if ss is TWO_CONSTRAINTS:
                assert want == []
            # with a structure, max_candidates counts only that structure's chains
            capped = enumerate_candidates(kg, topic, replace(cfg, max_candidates=cap), ss.shape)
            assert capped.graphs == want[:cap]
            assert capped.truncated == (len(want) > cap)


# -- against the recursive reference enumerator --------------------------------

# a -> b -> c -> a is a cycle, d has a self-loop, and a, b are joined by two
# relations; every drawn KG contains these triples
LOOPS = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("d", "s", "d"), ("a", "s", "b")]


@settings(max_examples=300, deadline=None)
@given(
    extra=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s", "t"]), st.sampled_from(NAMES)),
        max_size=10,
    ),
    pick=st.sampled_from(NAMES),
    ss=st.sampled_from([None, *builtin_taxonomy().structures, TWO_CONSTRAINTS]),
    cap=st.integers(1, 60),
)
def test_enumeration_equals_reference_enumerator(extra, pick, ss, cap):
    kg = build_kg(LOOPS + extra)
    for max_hops in (1, 2, 3):
        for attach in (False, True):
            for max_candidates in (cap, 10000):
                cfg = EnumConfig(max_hops=max_hops, attach_constraints=attach, max_candidates=max_candidates)
                got = enumerate_candidates(kg, pick, cfg, None if ss is None else ss.shape)
                drawing = None if ss is None else reference_chain(*ss.shape)
                assert (got.graphs, got.truncated) == reference_enumerate(kg, pick, cfg, drawing)


@settings(max_examples=150, deadline=None)
@given(
    extra=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s", "t"]), st.sampled_from(NAMES)),
        max_size=10,
    ),
    pick=st.sampled_from(NAMES),
)
def test_reference_emits_only_shapes(extra, pick):
    # every chain the recursive walk builds has a shape in SHAPES, so a
    # taxonomy that refuses the other shapes refuses none an answer can reach
    kg = build_kg(LOOPS + extra)
    graphs, truncated = reference_enumerate(kg, pick, EnumConfig(max_hops=3, attach_constraints=True))
    assert not truncated
    assert {g.shape for g in graphs} <= SHAPES


@settings(max_examples=150, deadline=None)
@given(
    extra=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(["r", "s", "t"]), st.sampled_from(NAMES)),
        max_size=10,
    ),
    pick=st.sampled_from(NAMES),
    attach=st.booleans(),
    question=st.text(max_size=30),
)
def test_candidates_serialize_in_boundary_tokens_and_overlap_scores_are_positive(extra, pick, attach, question):
    # every serialized candidate holds [CLS] and [SEP], and so does every
    # tokenized question, so the token-overlap union is never empty and the
    # score lies in (0, 1]
    kg = build_kg(LOOPS + extra)
    for max_hops in (1, 2, 3):
        graphs = enumerate_candidates(kg, pick, EnumConfig(max_hops=max_hops, attach_constraints=attach)).graphs
        for c in graphs:
            tokens = serialize_tokens(c)
            assert tokens[0] == CLS and tokens[-1] == SEP
        scores = TokenOverlapRanker().score_all(tokenize_question(question), graphs)
        assert all(0.0 < s <= 1.0 for s in scores)


def test_every_shape_is_emitted():
    cfg = EnumConfig(max_hops=3, attach_constraints=True)
    graphs, truncated = reference_enumerate(build_kg(LOOPS), "a", cfg)
    assert not truncated
    assert {g.shape for g in graphs} == SHAPES
    assert {g.shape for g in enumerate_candidates(build_kg(LOOPS), "a", cfg).graphs} == SHAPES
