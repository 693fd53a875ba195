import json
import re

import pytest

from fixtures import taxonomy_entries
from reference import reference_chain
from sskgqa.annotation import UNSUPPORTED, LabeledQuestion, label_question
from sskgqa.candidates import SHAPES
from sskgqa.querygraph import QueryGraphError, build_chain, chain_of
from sskgqa.structures import (
    ANSWER,
    E_CONST,
    E_TOPIC,
    VAR,
    StructureError,
    Taxonomy,
    abstract,
    builtin_taxonomy,
    load_taxonomy,
    structure_of,
)


def test_builtin_taxonomy_shape():
    tax = builtin_taxonomy()
    assert tax.labels() == ["SS1", "SS2", "SS3", "SS4", "SS5", "SS6"]
    assert [tax.get(label).shape for label in tax.labels()] == [
        (1, ()), (2, ()), (3, ()), (1, (1,)), (2, (2,)), (2, (1,))
    ]
    # the paper's drawings of the six structures
    drawings = {
        "SS1": ((E_TOPIC, ANSWER), ((0, 1),)),
        "SS2": ((E_TOPIC, VAR, ANSWER), ((0, 1), (1, 2))),
        "SS3": ((E_TOPIC, VAR, VAR, ANSWER), ((0, 1), (1, 2), (2, 3))),
        "SS4": ((E_TOPIC, ANSWER, E_CONST), ((0, 1), (1, 2))),
        "SS5": ((E_TOPIC, VAR, ANSWER, E_CONST), ((0, 1), (1, 2), (2, 3))),
        "SS6": ((E_TOPIC, VAR, ANSWER, E_CONST), ((0, 1), (1, 2), (1, 3))),
    }
    for label, drawing in drawings.items():
        assert structure_of(label, *drawing, label).shape == tax.get(label).shape


def test_ss5_ss6_differ():
    tax = builtin_taxonomy()
    assert tax.get("SS5").canonical() != tax.get("SS6").canonical()


def test_structure_validation():
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, VAR), ((0, 1),), "bad")  # no answer node
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, ANSWER, VAR), ((0, 1),), "bad")  # disconnected
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, ANSWER), ((0, 1), (1, -1)), "bad")  # out of range
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, VAR, VAR, ANSWER), ((0, 1), (0, 2), (1, 3)), "bad")  # branch
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, ANSWER), ((0, 1), (0, 1)), "bad")  # parallel edge
    with pytest.raises(StructureError):
        structure_of("bad", (E_TOPIC, "zz", ANSWER), ((0, 1), (1, 2)), "bad")  # unknown kind


def test_taxonomy_rejects_answer_reached_only_through_constraint(tmp_path):
    # not a chain, so it has no shape: the structure cannot be built, and a
    # taxonomy file holding it fails at load
    with pytest.raises(StructureError):
        structure_of("X", (E_TOPIC, E_CONST, ANSWER), ((0, 1), (1, 2)), "X")
    path = tmp_path / "tax.json"
    path.write_text('[{"label": "X", "kinds": ["E", "Ec", "a"], "edges": [[0, 1], [1, 2]]}]')
    with pytest.raises(StructureError):
        load_taxonomy(str(path))


def test_abstract_plain_chains():
    tax = builtin_taxonomy()
    g1 = build_chain("a", [("r", False)])
    assert g1.shape == tax.get("SS1").shape
    g2 = build_chain("a", [("r", False), ("s", True)])
    assert g2.shape == tax.get("SS2").shape
    assert g2.shape != tax.get("SS1").shape
    g3 = build_chain("a", [("r", False), ("s", False), ("t", False)])
    assert g3.shape == tax.get("SS3").shape


def test_abstract_constrained_chains():
    tax = builtin_taxonomy()
    g4 = build_chain("a", [("r", False)], constraints=[(1, "c", "v")])
    assert g4.shape == tax.get("SS4").shape
    g5 = build_chain("a", [("r", False), ("s", False)], constraints=[(2, "c", "v")])
    assert g5.shape == tax.get("SS5").shape
    assert g5.shape != tax.get("SS6").shape
    g6 = build_chain("a", [("r", False), ("s", False)], constraints=[(1, "c", "v")])
    assert g6.shape == tax.get("SS6").shape


def test_abstract_erases_reversal_and_storage():
    # a 2-hop chain with both edges pointing at the topic matches the 2-hop
    # chain structure
    g = chain_of([("y", "r", "a"), ("x", "s", "y")], "a", "x", {"a": "a"})
    assert builtin_taxonomy().find_match(g.shape) == "SS2"


def test_abstract_rejects_non_chain():
    # a non-chain has no Chain, so no structure: its SPARQL labels Unsupported
    with pytest.raises(QueryGraphError):
        abstract(chain_of([("a", "r", "x"), ("a", "s", "x")], "a", "x", {"a": "a"}))
    sparql = "SELECT ?x WHERE { :a :r ?x . :a :s ?x . }"
    assert label_question(LabeledQuestion("q", "?", "a", [], sparql=sparql), builtin_taxonomy()) == UNSUPPORTED


def test_taxonomy_rejects_duplicate_shapes():
    # the same 1-hop chain with its edge and nodes the other way round
    twin = structure_of("X", (ANSWER, E_TOPIC), ((0, 1),), "X")
    assert twin.canonical() == builtin_taxonomy().get("SS1").canonical()
    with pytest.raises(StructureError, match="X: same shape as SS1"):
        Taxonomy(builtin_taxonomy().structures + [twin])


@pytest.mark.parametrize("shape", [(1, (0,)), (2, (0,)), (1, (1, 1)), (2, (1, 2)), (4, ()), (4, (2,))])
def test_taxonomy_refuses_shapes_enumeration_never_emits(tmp_path, shape):
    # a constraint on the topic, two constraints, or more than three hops
    kinds, edges = reference_chain(*shape)
    ss = structure_of("X", kinds, edges, "X")
    assert ss.shape == shape  # any chain is a structure
    with pytest.raises(StructureError, match=re.escape(f"X: candidate enumeration emits no chain of shape {shape}")):
        Taxonomy(builtin_taxonomy().structures + [ss])
    path = tmp_path / "tax.json"
    path.write_text(json.dumps([{"label": "X", "kinds": list(kinds), "edges": edges}]))
    with pytest.raises(StructureError, match="X: candidate enumeration"):
        load_taxonomy(str(path))


def test_taxonomy_accepts_every_emitted_shape():
    tax = Taxonomy([structure_of(str(s), *reference_chain(*s), str(s)) for s in sorted(SHAPES)])
    assert {tax.find_match(s) for s in SHAPES} == {str(s) for s in SHAPES}


def test_taxonomy_round_trip(tmp_path):
    tax = builtin_taxonomy()
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(taxonomy_entries(tax)))
    tax2 = load_taxonomy(str(path))
    assert tax2.labels() == tax.labels()
    for a, b in zip(tax.structures, tax2.structures):
        assert a.canonical() == b.canonical()


def test_unknown_label():
    with pytest.raises(StructureError):
        builtin_taxonomy().get("SS9")
