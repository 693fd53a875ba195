"""Query graphs: the `Chain` every candidate and gold is, with its key,
serialization, execution and SPARQL, and `chain_of`, which reads a `Chain`
off the triple patterns of a SPARQL query or a structure."""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .kg import KnowledgeGraph, step

# Intermediate variable names for chains, in hop order (lambda is always "x").
CHAIN_VAR_NAMES = ("y", "z", "w", "u")

_SPLIT_RE = re.compile(r"[\s._\-]+")

CLS = "[CLS]"
SEP = "[SEP]"


class QueryGraphError(Exception):
    pass


@dataclass(frozen=True)
class Chain:
    """A query graph: the topic label, the hops from topic to lambda as
    (relation, back), and the constraints as (at, relation, back, value) on
    path node `at` (0 = topic), in path order, then edge order. `back` marks
    a hop, or a constraint read from its node to its value, that runs against
    the KG triple."""

    topic: str
    hops: tuple[tuple[str, bool], ...]
    constraints: tuple[tuple[int, str, bool, str], ...] = ()

    @property
    def shape(self) -> tuple[int, tuple[int, ...]]:
        """(hop count, path positions of the constraints)."""
        return len(self.hops), tuple(at for at, *_ in self.constraints)


def build_chain(
    topic: str,
    hops: list[tuple[str, bool]],
    constraints: list[tuple[int, str, str]] = (),
) -> Chain:
    """Chain topic -> hops -> lambda, plus constraint edges.

    Each hop is (relation symbol, reversed), a reversed hop being walked
    against its KG triple; each constraint is (hop index, relation symbol,
    value symbol), the triple from path node `hop index` (0 = topic node, i =
    i-th intermediate, len(hops) = lambda) to the value.
    """
    if not hops:
        raise QueryGraphError("hops must be non-empty")
    _path_names(len(hops))  # raises on too many hops
    for hop_idx, _, _ in constraints:
        if not 0 <= hop_idx <= len(hops):
            raise QueryGraphError(f"constraint hop index out of range: {hop_idx}")
    cons = sorted(((at, rel, False, value) for at, rel, value in constraints), key=lambda c: c[0])
    return Chain(topic, tuple((rel, bool(rev)) for rel, rev in hops), tuple(cons))


def _path_names(hops: int) -> list[str]:
    """Names of the variables a chain of `hops` hops reaches, in hop order:
    CHAIN_VAR_NAMES, then "x" for the lambda."""
    if hops - 1 > len(CHAIN_VAR_NAMES):
        raise QueryGraphError("too many hops")
    return [*CHAIN_VAR_NAMES[: hops - 1], "x"]


def split_symbol(symbol: str) -> list[str]:
    """Fragment a symbol on whitespace, '.', '_' and '-'."""
    return [t for t in _SPLIT_RE.split(symbol) if t]


def chain_of(edges, topic, lam, labels: dict) -> Chain:
    """The chain the (head, relation, tail) triples `edges` form over hashable
    node names, where `labels` maps each grounded node, the topic among them,
    to its label: the path from `topic` to `lam`, and per path node in path
    order (topic first) the constraint edges to its grounded values, in edge
    order.

    The edges touching no grounded node but the topic must form one simple
    path from the topic to lambda, and every other edge must join a path node
    to a grounded node; otherwise QueryGraphError.
    """
    other = labels.keys() - {topic}
    # node -> (edge index, node across, relation, back) of each path edge at
    # it, a looping edge twice; a path edge touches no grounded node but the topic
    at: dict = {}
    n_path = 0
    for i, (head, rel, tail) in enumerate(edges):
        if head not in other and tail not in other:
            at.setdefault(head, []).append((i, tail, rel, False))
            at.setdefault(tail, []).append((i, head, rel, True))
            n_path += 1
    # Each step takes the one edge at the node but the one it came by: a
    # second edge there (a branch, a cycle, a parallel or looping edge) shows
    # as two steps, or is never taken.
    hops, pos, node, came = [], {topic: 0}, topic, None
    while node != lam:
        steps = [s for s in at.get(node, ()) if s[0] != came]
        if len(steps) != 1:
            raise QueryGraphError("chain edges are not one path from topic to lambda")
        came, node, rel, back = steps[0]
        hops.append((rel, back))
        pos[node] = len(hops)
    if len(hops) != n_path:
        raise QueryGraphError("chain edges are not one path from topic to lambda")
    cons = []
    for head, rel, tail in edges:
        if head in other or tail in other:
            back = head in other
            node, value = (tail, head) if back else (head, tail)
            if node not in pos or value not in other:
                raise QueryGraphError("constraint edge does not join a path node to a grounded node")
            cons.append((pos[node], rel, back, labels[value]))
    cons.sort(key=lambda c: c[0])
    return Chain(labels[topic], tuple(hops), tuple(cons))


def canonicalize(c: Chain) -> str:
    """Key of chain c, as JSON since labels may hold any character: the
    topic label, each hop's (relation, back) in path order, and per path node
    the sorted (relation, back, value label) of its constraints. Equal iff
    the chains are equal up to constraint order within a node."""
    values = [sorted((rel, back, value) for at, rel, back, value in c.constraints if at == k)
              for k in range(len(c.hops) + 1)]
    return json.dumps([c.topic, c.hops, values])


def serialize_tokens(c: Chain, split: Callable[[str], Sequence[str]] = split_symbol) -> list[str]:
    """Linear walk topic -> hops -> constraints, split into fragments and
    wrapped in [CLS]/[SEP]. Traversal against KG direction adds 'reverse'.
    A path node is named by its place: the topic "c", the i-th intermediate
    CHAIN_VAR_NAMES[i - 1] and the lambda "x". `split` maps a topic,
    relation or value symbol to its fragments (a list or a tuple) and must
    give split_symbol's; a caller that serializes many chains of one topic
    may pass one that splits each symbol once."""
    names = ["c", *_path_names(len(c.hops))]
    tokens = [CLS, *split(c.topic)]
    for (rel, back), name in zip(c.hops, names[1:]):
        tokens += split(rel)
        if back:
            tokens.append("reverse")
        tokens.append(name)
    for at, rel, back, value in c.constraints:
        tokens.append(names[at])
        tokens += split(rel)
        if back:
            tokens.append("reverse")
        tokens += split(value)
    tokens.append(SEP)
    return tokens


def execute(c: Chain, kg: KnowledgeGraph) -> set[int]:
    """Answer set of the lambda variable: the topic's set of entities walks
    the chain path one frontier step per hop, and at each path node keeps
    only the entities with a KG triple to each of that node's constraint
    values. The triple test costs one lookup per frontier entity, however
    many edges the constraint value has."""
    frontier = {kg.entities.id_of(c.topic)}
    for k, hop in enumerate([None, *c.hops]):
        if hop:
            frontier = step(kg, frontier, kg.relations.id_of(hop[0]), hop[1])
        for at, rel, back, value in c.constraints:
            if at == k:
                v, rid = kg.entities.id_of(value), kg.relations.id_of(rel)
                frontier = {p for p in frontier if (kg.has_triple(v, rid, p) if back else kg.has_triple(p, rid, v))}
    return frontier


# each character the SPARQL tokenizer would split on, or that `parse_sparql` reads
_NEEDS_ESCAPE = re.compile(r"[\s%.:?{}()<>=]")


def _escape(m: re.Match) -> str:
    c = ord(m[0])
    return f"%{c:02x}" if c <= 0xFF else f"%u{c:04x}"


def _encode_iri(symbol: str) -> str:
    """`symbol` with each `_NEEDS_ESCAPE` character escaped: `%xx` up to
    U+00FF and `%uXXXX` above it (every whitespace character lies below
    U+10000); a symbol with none is returned as it is."""
    return symbol if _NEEDS_ESCAPE.search(symbol) is None else _NEEDS_ESCAPE.sub(_escape, symbol)


_ESCAPE_RE = re.compile(r"%(?:u([0-9a-fA-F]{4})|([0-9a-fA-F]{2}))")


def decode_iri(name: str) -> str:
    """The symbol `_encode_iri` wrote as `name`: each `%uXXXX` and `%xx`
    escape read back."""
    if "%" not in name:
        return name
    return _ESCAPE_RE.sub(lambda m: chr(int(m.group(1) or m.group(2), 16)), name)


def to_sparql(c: Chain) -> str:
    """Emit chain c in the supported subset, hops first, then constraints,
    with the path variables named by place and the lambda "?x" selected."""
    terms = [":" + _encode_iri(c.topic), *("?" + n for n in _path_names(len(c.hops)))]
    edges = [(terms[i], rel, back, terms[i + 1]) for i, (rel, back) in enumerate(c.hops)]
    edges += [(terms[at], rel, back, ":" + _encode_iri(v)) for at, rel, back, v in c.constraints]
    patterns = " ".join(
        f"{b if back else a} :{_encode_iri(rel)} {a if back else b} ." for a, rel, back, b in edges
    )
    return f"SELECT DISTINCT {terms[-1]} WHERE {{ {patterns} }}"
