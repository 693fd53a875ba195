"""In-memory knowledge graph: interned triples indexed by entity and relation, both directions."""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator


class KgError(ValueError):
    pass


class ParseError(KgError):
    pass


class LookupError_(KgError):
    """Unknown entity/relation id or symbol."""


class SymbolTable:
    """Bidirectional symbol <-> dense id mapping, in the order `build_kg` interns."""

    def __init__(self, ids: dict[str, int] | None = None) -> None:
        """`ids` maps each symbol to its id, numbered 0, 1, ... in insertion order."""
        self._sym_to_id = ids or {}
        self._id_to_sym = list(self._sym_to_id)

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


@dataclass
class KnowledgeGraph:
    """Symbol tables and one index per direction: `tails_of[h][r]` holds the
    sorted tails of the triples (h, r, _) and `heads_of[t][r]` the sorted heads
    of (_, r, t), each inner dict keyed by relation id in ascending order."""

    entities: SymbolTable = field(default_factory=SymbolTable)
    relations: SymbolTable = field(default_factory=SymbolTable)
    tails_of: list[dict[int, tuple[int, ...]]] = field(default_factory=list)
    heads_of: list[dict[int, tuple[int, ...]]] = field(default_factory=list)
    num_triples: int = 0

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def _check_entity(self, e: int) -> None:
        if not 0 <= e < len(self.entities):
            raise LookupError_(f"entity id out of range: {e}")

    def out_edges(self, e: int) -> list[tuple[int, int]]:
        """Sorted (relation, tail) pairs of e's out-edges."""
        self._check_entity(e)
        return [(r, t) for r, tails in self.tails_of[e].items() for t in tails]

    def in_edges(self, e: int) -> list[tuple[int, int]]:
        """Sorted (relation, head) pairs of e's in-edges."""
        self._check_entity(e)
        return [(r, h) for r, heads in self.heads_of[e].items() for h in heads]

    def has_triple(self, h: int, r: int, t: int) -> bool:
        self._check_entity(h)
        self._check_entity(t)
        if not 0 <= r < len(self.relations):
            raise LookupError_(f"relation id out of range: {r}")
        tails = self.tails_of[h].get(r, ())
        i = bisect_left(tails, t)
        return i < len(tails) and tails[i] == t

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        """Every triple as (head, relation, tail) ids, in ascending order."""
        return ((h, r, t) for h, rels in enumerate(self.tails_of) for r, tails in rels.items() for t in tails)

    def fingerprint(self) -> str:
        """SHA-256 prefix of the entity and the relation symbols, in id order."""
        symbols = repr((self.entities.symbols(), self.relations.symbols()))
        return hashlib.sha256(symbols.encode()).hexdigest()[:16]


def step(kg: KnowledgeGraph, frontier: set[int], rid: int, rev: bool) -> set[int]:
    """Entities one `rid` edge from the frontier: tails of its out-edges, or
    heads of its in-edges when `rev`. Frontier ids come from the KG, so they
    are not range-checked."""
    index = kg.heads_of if rev else kg.tails_of
    out: set[int] = set()
    for e in frontier:
        others = index[e].get(rid)
        if others:
            out.update(others)
    return out


def build_kg(records: Iterable[tuple[str, str, str]]) -> KnowledgeGraph:
    """Intern symbols in first-appearance order over the sorted distinct triples, and
    index them: each direction's sorted id triples close one tuple per (entity, relation) run."""
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}
    ids = {
        (ents.setdefault(h, len(ents)), rels.setdefault(r, len(rels)), ents.setdefault(t, len(ents)))
        for h, r, t in sorted(set(records))
    }
    kg = KnowledgeGraph(SymbolTable(ents), SymbolTable(rels), num_triples=len(ids))
    kg.tails_of = [{} for _ in ents]
    kg.heads_of = [{} for _ in ents]
    for index, triples in ((kg.tails_of, ids), (kg.heads_of, [(t, r, h) for h, r, t in ids])):
        e0 = r0 = -1
        run: list[int] = []
        for e, r, x in sorted(triples):
            if r != r0 or e != e0:
                if run:
                    index[e0][r0] = tuple(run)
                e0, r0, run = e, r, []
            run.append(x)
        if run:
            index[e0][r0] = tuple(run)
    return kg


def load_triples(source: IO[str]) -> KnowledgeGraph:
    """Load a TSV triple file: head<TAB>relation<TAB>tail, '#' lines are comments.
    A malformed line raises ParseError starting with its line number."""

    def records():
        for lineno, raw in enumerate(source, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or any(not p for p in parts):
                raise ParseError(f"{lineno}: expected 3 non-empty tab-separated fields, got {line!r}")
            yield parts[0], parts[1], parts[2]

    return build_kg(records())


def write_triples(kg: KnowledgeGraph, sink: IO[str]) -> None:
    """Write kg's triples to `sink` as `load_triples` reads them, one sorted line each."""
    ent, rel = kg.entities.symbol_of, kg.relations.symbol_of
    for t in sorted((ent(h), rel(r), ent(t)) for h, r, t in kg.iter_triples()):
        sink.write("\t".join(t) + "\n")


def load_kg_file(path: str) -> KnowledgeGraph:
    """`load_triples` of the file, past a leading UTF-8 byte-order mark; a
    ParseError names the file and line, also for a file that is not UTF-8."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            return load_triples(f)
        except ParseError as exc:
            raise ParseError(f"{path}:{exc}") from None
        except UnicodeDecodeError:
            raise ParseError(not_utf8(path)) from None


def not_utf8(path: str) -> str:
    """`<path>:<line>: not UTF-8: ...`, the message for a text file whose
    read raised UnicodeDecodeError. Text mode decodes in chunks, so that
    error can come before the lines ahead of the bad byte are read, and its
    position counts from the chunk. The file's bytes are decoded again here,
    and the line counts the line breaks text mode reads (LF, CRLF and CR)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"{path}:{line}: not UTF-8: byte 0x{data[exc.start]:02x}: {exc.reason}"
    return f"{path}: not UTF-8"  # the file changed after it was read
