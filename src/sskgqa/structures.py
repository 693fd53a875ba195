"""Semantic structures: a structure is a label and the shape of its chain,
the SS1..SS6 taxonomy is six shapes, and `structure_of` reads the drawing
(node kinds plus index edges) a taxonomy file gives."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .candidates import SHAPES
from .kg import not_utf8
from .querygraph import Chain, QueryGraphError, chain_of

E_TOPIC = "E"  # topic entity
E_CONST = "Ec"  # constraint endpoint entity
VAR = "v"
ANSWER = "a"
KINDS = frozenset((E_TOPIC, E_CONST, VAR, ANSWER))
UNSUPPORTED = "Unsupported"  # the label of a question no structure matches


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class SemanticStructure:
    """Abstract pattern of a query graph. Its identity is its shape, (hop
    count, sorted path positions of its constraints) with the topic at
    position 0."""

    label: str
    shape: tuple[int, tuple[int, ...]]

    def canonical(self) -> tuple[int, tuple[int, ...]]:
        """The structure's identity: equal iff the structures are isomorphic."""
        return self.shape


def structure_of(label: str, kinds, edges, where: str) -> SemanticStructure:
    """The structure drawn by node kinds and unlabeled (from, to) index edges,
    or StructureError prefixed with `where`.

    It must be a chain: the edges touching no Ec node form one path from the
    topic to the answer, and each Ec node is a leaf on one path node. Edge
    direction is not read.
    """
    try:
        return SemanticStructure(label, _drawn_shape(kinds, edges))
    except StructureError as exc:
        raise StructureError(f"{where}: {exc}") from None


def _drawn_shape(kinds, edges) -> tuple[int, tuple[int, ...]]:
    """The shape of a drawing, or StructureError saying why it has none."""
    if not KINDS.issuperset(kinds):
        raise StructureError(f"kinds must be among {', '.join(sorted(KINDS))}")
    if kinds.count(ANSWER) != 1:
        raise StructureError("exactly one answer node required")
    if kinds.count(E_TOPIC) != 1:
        raise StructureError("exactly one topic node required")
    if {n for e in edges for n in e} != set(range(len(kinds))):
        raise StructureError("every node needs an edge, and edges join nodes of the entry")
    grounded = {i: str(i) for i, k in enumerate(kinds) if k in (E_TOPIC, E_CONST)}
    try:
        c = chain_of([(s, "", d) for s, d in edges], kinds.index(E_TOPIC), kinds.index(ANSWER), grounded)
    except QueryGraphError as exc:
        raise StructureError(str(exc)) from None
    # the path's nodes are distinct and not Ec, and each constraint takes
    # one edge of an Ec node, so the counts add up only if every node is
    # on the path or is a constraint leaf with one edge
    if len(c.hops) + 1 + len(c.constraints) != len(kinds):
        raise StructureError("a node is off the path or is not a single-edge constraint leaf")
    return c.shape


@dataclass
class Taxonomy:
    structures: list[SemanticStructure]
    _by_label: dict[str, SemanticStructure] = field(init=False)
    _by_shape: dict[tuple, str] = field(init=False)

    def __post_init__(self) -> None:
        labels = [s.label for s in self.structures]
        if len(labels) != len(set(labels)):
            raise StructureError("duplicate structure labels")
        if UNSUPPORTED in labels:
            raise StructureError(f"{UNSUPPORTED}: reserved for questions no structure matches")
        self._by_label = {s.label: s for s in self.structures}
        self._by_shape = {}
        for s in self.structures:
            if s.shape not in SHAPES:
                raise StructureError(f"{s.label}: candidate enumeration emits no chain of shape {s.shape}")
            first = self._by_shape.setdefault(s.shape, s.label)
            if first != s.label:
                raise StructureError(f"{s.label}: same shape as {first}")

    def labels(self) -> list[str]:
        return [s.label for s in self.structures]

    def get(self, label: str) -> SemanticStructure:
        try:
            return self._by_label[label]
        except KeyError:
            raise StructureError(f"unknown structure label: {label}") from None

    def find_match(self, shape: tuple[int, tuple[int, ...]]) -> str | None:
        """Label of the structure with this shape, or None."""
        return self._by_shape.get(shape)


def builtin_taxonomy() -> Taxonomy:
    """SS1..SS3: plain 1/2/3-hop chains; SS4..SS6: constrained 1/2-hop chains."""
    shapes = [(1, ()), (2, ()), (3, ()), (1, (1,)), (2, (2,)), (2, (1,))]
    return Taxonomy([SemanticStructure(f"SS{i}", s) for i, s in enumerate(shapes, 1)])


def abstract(c: Chain) -> SemanticStructure:
    """The structure of chain c: its shape."""
    return SemanticStructure("abstract", c.shape)


def load_taxonomy(path: str) -> Taxonomy:
    """Taxonomy config: JSON list of {label, kinds, edges} entries.

    labels are strings without line breaks; kinds use E (topic), Ec
    (constraint entity), v, a; edges are [from, to] index pairs. Each
    structure must be a chain of a shape in `candidates.SHAPES`, and no two
    may share a shape. A leading byte-order mark is skipped.
    """
    with open(path, encoding="utf-8-sig") as f:
        try:
            entries = json.load(f)
        except UnicodeDecodeError:
            raise StructureError(not_utf8(path)) from None
        except json.JSONDecodeError as exc:
            raise StructureError(f"{path}:{exc.lineno}: bad JSON: {exc}") from None
        except RecursionError as exc:
            raise StructureError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(entries, list):
        raise StructureError(f"{path}: expected a JSON list of structures")
    return Taxonomy([_structure_entry(path, i, e) for i, e in enumerate(entries)])


def _structure_entry(path: str, i: int, e) -> SemanticStructure:
    """One taxonomy entry, or StructureError naming its position and label."""
    name = f"{path}: entry {i}"
    if not isinstance(e, dict) or not all(k in e for k in ("label", "kinds", "edges")):
        raise StructureError(f"{name}: needs label, kinds and edges")
    label = e["label"]
    # splitlines drops every character that breaks a line: \n, \r, U+2028 ...
    if not isinstance(label, str) or "".join(label.splitlines()) != label:
        raise StructureError(f"{name} ({label!r}): label must be a string without line breaks")
    name += f" ({label})"
    kinds = e["kinds"]
    if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
        raise StructureError(f"{name}: kinds must be a list of strings")
    edges = e["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(d, list) and len(d) == 2 and all(type(v) is int for v in d) for d in edges
    ):
        raise StructureError(f"{name}: edges must be a list of [from, to] index pairs")
    return structure_of(label, kinds, edges, name)

