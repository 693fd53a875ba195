"""In-memory knowledge graph: interned triples with forward/backward adjacency."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable


class KgError(Exception):
    pass


class ParseError(KgError):
    pass


class LookupError_(KgError):
    """Unknown entity/relation id or symbol."""


class SymbolTable:
    """Bidirectional symbol <-> dense id mapping, first-appearance order."""

    def __init__(self) -> None:
        self._sym_to_id: dict[str, int] = {}
        self._id_to_sym: list[str] = []

    def intern(self, symbol: str) -> int:
        i = self._sym_to_id.get(symbol)
        if i is None:
            i = len(self._id_to_sym)
            self._sym_to_id[symbol] = i
            self._id_to_sym.append(symbol)
        return i

    def id_of(self, symbol: str) -> int:
        try:
            return self._sym_to_id[symbol]
        except KeyError:
            raise LookupError_(f"unknown symbol: {symbol!r}") from None

    def symbol_of(self, i: int) -> str:
        if not 0 <= i < len(self._id_to_sym):
            raise LookupError_(f"id out of range: {i}")
        return self._id_to_sym[i]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym_to_id

    def __len__(self) -> int:
        return len(self._id_to_sym)

    def symbols(self) -> list[str]:
        return list(self._id_to_sym)


@dataclass(frozen=True)
class Triple:
    head: int
    relation: int
    tail: int


@dataclass
class KnowledgeGraph:
    entities: SymbolTable = field(default_factory=SymbolTable)
    relations: SymbolTable = field(default_factory=SymbolTable)
    triples: set[Triple] = field(default_factory=set)
    # fwd: head -> sorted [(relation, tail)], bwd: tail -> sorted [(relation, head)]
    fwd: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    bwd: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    def _check_entity(self, e: int) -> None:
        if not 0 <= e < len(self.entities):
            raise LookupError_(f"entity id out of range: {e}")

    def out_edges(self, e: int) -> list[tuple[int, int]]:
        self._check_entity(e)
        return self.fwd.get(e, [])

    def in_edges(self, e: int) -> list[tuple[int, int]]:
        self._check_entity(e)
        return self.bwd.get(e, [])

    def has_triple(self, t: Triple) -> bool:
        self._check_entity(t.head)
        self._check_entity(t.tail)
        if not 0 <= t.relation < len(self.relations):
            raise LookupError_(f"relation id out of range: {t.relation}")
        return t in self.triples


def step(kg: KnowledgeGraph, frontier: set[int], rid: int, rev: bool) -> set[int]:
    """Entities one `rid` edge from the frontier: tails of its out-edges, or
    heads of its in-edges when `rev`."""
    out: set[int] = set()
    for e in frontier:
        for r, other in kg.in_edges(e) if rev else kg.out_edges(e):
            if r == rid:
                out.add(other)
    return out


def build_kg(records: Iterable[tuple[str, str, str]]) -> KnowledgeGraph:
    """Intern symbols in first-appearance order and index the triples."""
    kg = KnowledgeGraph()
    for h, r, t in records:
        hid = kg.entities.intern(h)
        rid = kg.relations.intern(r)
        tid = kg.entities.intern(t)
        triple = Triple(hid, rid, tid)
        if triple in kg.triples:
            continue
        kg.triples.add(triple)
        kg.fwd.setdefault(hid, []).append((rid, tid))
        kg.bwd.setdefault(tid, []).append((rid, hid))
    for index in (kg.fwd, kg.bwd):
        for edges in index.values():
            edges.sort()
    return kg


def load_triples(source: IO[str] | IO[bytes]) -> KnowledgeGraph:
    """Load a TSV triple file: head<TAB>relation<TAB>tail, '#' lines are comments."""

    def records():
        for lineno, raw in enumerate(source, start=1):
            line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or any(not p for p in parts):
                raise ParseError(
                    f"line {lineno}: expected 3 non-empty tab-separated fields, got {line!r}"
                )
            yield parts[0], parts[1], parts[2]

    return build_kg(records())


def load_kg_file(path: str) -> KnowledgeGraph:
    with open(path, encoding="utf-8") as f:
        return load_triples(f)


def save_kg(kg: KnowledgeGraph, path: str) -> None:
    """Interned KG dump (JSON): symbol tables plus id triples."""
    payload = {
        "entities": kg.entities.symbols(),
        "relations": kg.relations.symbols(),
        "triples": sorted((t.head, t.relation, t.tail) for t in kg.triples),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_kg(path: str) -> KnowledgeGraph:
    """Read a `save_kg` dump; a malformed one raises ParseError."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("entities", "relations", "triples"):
        if not isinstance(payload.get(key), list):
            raise ParseError(f"{path}: {key!r} must be a list")
    ents, rels = payload["entities"], payload["relations"]
    for key, syms in (("entities", ents), ("relations", rels)):
        # build_kg interns by symbol: a repeated one would renumber the ids after it
        if not all(isinstance(s, str) for s in syms) or len(set(syms)) != len(syms):
            raise ParseError(f"{path}: {key!r} must be distinct strings")
    sizes = (len(ents), len(rels), len(ents))
    for i, t in enumerate(payload["triples"]):
        if not (isinstance(t, list) and len(t) == 3 and all(type(v) is int for v in t)):
            raise ParseError(f"{path}: triple {i}: expected 3 integer ids, got {t!r}")
        if not all(0 <= v < n for v, n in zip(t, sizes)):
            raise ParseError(f"{path}: triple {i}: id out of range: {t!r}")
    return build_kg((ents[h], rels[r], ents[t]) for h, r, t in payload["triples"])
