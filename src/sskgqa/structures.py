"""Semantic structures: the SS1..SS6 taxonomy, abstraction and matching."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .querygraph import EXISTENTIAL, GROUNDED, QueryGraph, bfs_depths, canonical_form

E_TOPIC = "E"  # topic entity
E_CONST = "Ec"  # constraint endpoint entity
VAR = "v"
ANSWER = "a"


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

    def index_of(self, label: str) -> int:
        return self.labels().index(label)

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


def builtin_taxonomy() -> Taxonomy:
    """SS1..SS3: plain 1/2/3-hop chains; SS4..SS6: constrained 1/2-hop chains."""
    chain = lambda k: [(i, i + 1) for i in range(k)]
    return Taxonomy(
        [
            SemanticStructure("SS1", (E_TOPIC, ANSWER), tuple(chain(1))),
            SemanticStructure("SS2", (E_TOPIC, VAR, ANSWER), tuple(chain(2))),
            SemanticStructure("SS3", (E_TOPIC, VAR, VAR, ANSWER), tuple(chain(3))),
            SemanticStructure(
                "SS4", (E_TOPIC, ANSWER, E_CONST), tuple(chain(1)) + ((1, 2),)
            ),
            SemanticStructure(
                "SS5", (E_TOPIC, VAR, ANSWER, E_CONST), tuple(chain(2)) + ((2, 3),)
            ),
            SemanticStructure(
                "SS6", (E_TOPIC, VAR, ANSWER, E_CONST), tuple(chain(2)) + ((1, 3),)
            ),
        ]
    )


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
    # Orient every edge away from the topic by BFS depth (reversed flags and
    # storage orientation erased); parallel edges keep their multiplicity.
    dist = bfs_depths(len(g.nodes), [(e.src, e.dst) for e in g.edges], g.topic)
    edges = tuple(
        (e.src, e.dst) if dist[e.src] <= dist[e.dst] else (e.dst, e.src)
        for e in g.edges
    )
    return SemanticStructure("abstract", tuple(kinds), edges)


def matches(g: QueryGraph, ss: SemanticStructure) -> bool:
    """True iff abstract(g) is isomorphic to ss (kind- and edge-preserving)."""
    return bool(filter_candidates([g], ss))


def filter_candidates(
    cands: list[QueryGraph], ss: SemanticStructure
) -> list[QueryGraph]:
    """Candidates whose abstraction matches ss. The canonical search runs only
    on abstractions that pass `_may_match`."""
    key = None
    out = []
    for g in cands:
        a = abstract(g)
        if _may_match(a, ss):
            key = key or ss.canonical()
            if a.canonical() == key:
                out.append(g)
    return out


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
    structures = [
        SemanticStructure(
            e["label"], tuple(e["kinds"]), tuple((s, d) for s, d in e["edges"])
        )
        for e in entries
    ]
    return Taxonomy(structures)


def save_taxonomy(tax: Taxonomy, path: str) -> None:
    entries = [
        {"label": s.label, "kinds": list(s.kinds), "edges": [list(e) for e in s.edges]}
        for s in tax
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=2)
