"""Semantic structures: the SS1..SS6 taxonomy, abstraction and matching."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .querygraph import EXISTENTIAL, GROUNDED, QueryGraph, bfs_depths, canonical_form

E_TOPIC = "E"  # topic entity
E_CONST = "Ec"  # constraint endpoint entity
VAR = "v"
ANSWER = "a"
KINDS = frozenset((E_TOPIC, E_CONST, VAR, ANSWER))


class StructureError(Exception):
    pass


@dataclass(frozen=True)
class SemanticStructure:
    """Abstract pattern of a query graph: node kinds plus unlabeled edges.

    Edges are oriented away from the topic; an edge touching an Ec node is a
    constraint edge.
    """

    label: str
    kinds: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kinds.count(ANSWER) != 1:
            raise StructureError(f"{self.label}: exactly one answer node required")
        if self.kinds.count(E_TOPIC) != 1:
            raise StructureError(f"{self.label}: exactly one topic node required")
        n = len(self.kinds)
        if not all(0 <= i < n for edge in self.edges for i in edge):
            raise StructureError(f"{self.label}: edge endpoint out of range")
        if len(bfs_depths(n, self.edges, 0)) != n:
            raise StructureError(f"{self.label}: structure must be connected")

    def constraint_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (s, d)
            for s, d in self.edges
            if self.kinds[s] == E_CONST or self.kinds[d] == E_CONST
        )

    def hop_count(self) -> int:
        """Chain length from topic to answer over non-constraint edges."""
        cons = set(self.constraint_edges())
        chain = [edge for edge in self.edges if edge not in cons]
        depth = bfs_depths(len(self.kinds), chain, self.kinds.index(E_TOPIC))
        answer = self.kinds.index(ANSWER)
        if answer not in depth:
            raise StructureError(f"{self.label}: answer unreachable from topic")
        return depth[answer]

    def has_constraints(self) -> bool:
        return bool(self.constraint_edges())

    def canonical(self) -> str:
        return canonical_form(self.kinds, [(s, "", d) for s, d in self.edges], ",", "{0}>{2}")


@dataclass
class Taxonomy:
    structures: list[SemanticStructure]
    _by_label: dict[str, SemanticStructure] = field(init=False)

    def __post_init__(self) -> None:
        labels = [s.label for s in self.structures]
        if len(labels) != len(set(labels)):
            raise StructureError("duplicate structure labels")
        for s in self.structures:
            s.hop_count()  # the answer must be reachable without constraint edges
        self._by_label = {s.label: s for s in self.structures}

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self):
        return iter(self.structures)

    def labels(self) -> list[str]:
        return [s.label for s in self.structures]

    def get(self, label: str) -> SemanticStructure:
        try:
            return self._by_label[label]
        except KeyError:
            raise StructureError(f"unknown structure label: {label}") from None

    def find_match(self, g: QueryGraph) -> str | None:
        """Label of the first structure abstract(g) matches, or None.

        Structures that fail `_may_match` are rejected before the canonical
        search, which then only runs on graphs as small as some structure.
        """
        a = abstract(g)
        key = None
        for s in self.structures:
            if _may_match(a, s):
                key = key or a.canonical()
                if s.canonical() == key:
                    return s.label
        return None


def chain_structure(hops: int, at: int | None = None, label: str = "chain") -> SemanticStructure:
    """Structure of a `build_chain` graph with `hops` hops and, when `at` is
    given, one constraint on chain node `at` (1 = first node after the topic)."""
    kinds = (E_TOPIC,) + (VAR,) * (hops - 1) + (ANSWER,)
    edges = tuple((i, i + 1) for i in range(hops))
    if at is not None:
        kinds += (E_CONST,)
        edges += ((at, hops + 1),)
    return SemanticStructure(label, kinds, edges)


def builtin_taxonomy() -> Taxonomy:
    """SS1..SS3: plain 1/2/3-hop chains; SS4..SS6: constrained 1/2-hop chains."""
    shapes = [(1, None), (2, None), (3, None), (1, 1), (2, 2), (2, 1)]
    return Taxonomy([chain_structure(h, at, f"SS{i}") for i, (h, at) in enumerate(shapes, 1)])


def abstract(g: QueryGraph) -> SemanticStructure:
    """Abstract pattern of g: kinds E/Ec/v/a, edges re-oriented away from topic."""
    kinds = []
    for i, node in enumerate(g.nodes):
        if node.kind == GROUNDED:
            kinds.append(E_TOPIC if i == g.topic else E_CONST)
        elif node.kind == EXISTENTIAL:
            kinds.append(VAR)
        else:
            kinds.append(ANSWER)
    # Orient every edge away from the topic by BFS depth (the KG direction is
    # erased); parallel edges keep their multiplicity.
    dist = bfs_depths(len(g.nodes), [(e.src, e.dst) for e in g.edges], g.topic)
    edges = tuple(
        (e.src, e.dst) if dist[e.src] <= dist[e.dst] else (e.dst, e.src)
        for e in g.edges
    )
    return SemanticStructure("abstract", tuple(kinds), edges)


def isomorphic(a: SemanticStructure, b: SemanticStructure) -> bool:
    """Kind- and edge-preserving isomorphism; the canonical search runs only
    when `_may_match` passes."""
    return _may_match(a, b) and a.canonical() == b.canonical()


def matches(g: QueryGraph, ss: SemanticStructure) -> bool:
    """True iff abstract(g) is isomorphic to ss."""
    return isomorphic(abstract(g), ss)


def filter_candidates(
    cands: list[QueryGraph], ss: SemanticStructure
) -> list[QueryGraph]:
    """Candidates whose abstraction matches ss."""
    return [g for g in cands if matches(g, ss)]


def _may_match(a: SemanticStructure, b: SemanticStructure) -> bool:
    """False when a and b cannot be isomorphic: their kind multisets or edge
    counts differ. Cheap, and it bounds the cost of matching a large graph."""
    return len(a.edges) == len(b.edges) and sorted(a.kinds) == sorted(b.kinds)


def load_taxonomy(path: str) -> Taxonomy:
    """Taxonomy config: JSON list of {label, kinds, edges} entries.

    kinds use E (topic), Ec (constraint entity), v, a; edges are [from, to]
    index pairs oriented away from the topic.
    """
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        raise StructureError(f"{path}: expected a JSON list of structures")
    return Taxonomy([_structure_entry(path, i, e) for i, e in enumerate(entries)])


def _structure_entry(path: str, i: int, e) -> SemanticStructure:
    """One taxonomy entry, or StructureError naming its position and label."""
    name = f"{path}: entry {i}"
    if not isinstance(e, dict) or not all(k in e for k in ("label", "kinds", "edges")):
        raise StructureError(f"{name}: needs label, kinds and edges")
    name += f" ({e['label']})"
    kinds = e["kinds"]
    if not isinstance(kinds, list) or not all(isinstance(k, str) and k in KINDS for k in kinds):
        raise StructureError(f"{name}: kinds must be a list of {', '.join(sorted(KINDS))}")
    edges = e["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(d, list) and len(d) == 2 and all(type(v) is int for v in d) for d in edges
    ):
        raise StructureError(f"{name}: edges must be a list of [from, to] index pairs")
    return SemanticStructure(e["label"], tuple(kinds), tuple(map(tuple, edges)))


def save_taxonomy(tax: Taxonomy, path: str) -> None:
    entries = [
        {"label": s.label, "kinds": list(s.kinds), "edges": [list(e) for e in s.edges]}
        for s in tax
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=2)
