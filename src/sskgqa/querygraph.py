"""Query graph data model: chains with constraints, canonical keys, execution."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .kg import KnowledgeGraph, Triple, step

GROUNDED = "grounded"
EXISTENTIAL = "existential"
LAMBDA = "lambda"

# Intermediate variable names for chains, in hop order (lambda is always "x").
CHAIN_VAR_NAMES = ("y", "z", "w", "u")

_SPLIT_RE = re.compile(r"[\s._\-]+")

CLS = "[CLS]"
SEP = "[SEP]"


class QueryGraphError(Exception):
    pass


@dataclass(frozen=True)
class QgNode:
    kind: str  # GROUNDED | EXISTENTIAL | LAMBDA
    label: str  # entity symbol for grounded, variable name otherwise


@dataclass(frozen=True)
class QgEdge:
    """The KG triple pattern (src, relation, dst): src is its head, dst its tail."""

    src: int
    relation: str
    dst: int


@dataclass
class QueryGraph:
    nodes: list[QgNode]
    edges: list[QgEdge]
    topic: int  # node index, must be grounded

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.nodes:
            raise QueryGraphError("empty graph")
        kinds = [n.kind for n in self.nodes]
        if kinds.count(LAMBDA) != 1:
            raise QueryGraphError("exactly one lambda node required")
        if GROUNDED not in kinds:
            raise QueryGraphError("at least one grounded node required")
        if self.nodes[self.topic].kind != GROUNDED:
            raise QueryGraphError("topic must be a grounded node")
        names = [n.label for n in self.nodes if n.kind != GROUNDED]
        if len(names) != len(set(names)):
            raise QueryGraphError("variable names must be unique")
        for e in self.edges:
            if not (0 <= e.src < len(self.nodes) and 0 <= e.dst < len(self.nodes)):
                raise QueryGraphError("edge endpoint out of range")
        reached = bfs_depths(len(self.nodes), ((e.src, e.dst) for e in self.edges), self.topic)
        if len(reached) != len(self.nodes):
            raise QueryGraphError("graph must be connected")

    @property
    def lambda_index(self) -> int:
        return next(i for i, n in enumerate(self.nodes) if n.kind == LAMBDA)


def build_chain(
    topic: str,
    hops: list[tuple[str, bool]],
    constraints: list[tuple[int, str, str]] = (),
) -> QueryGraph:
    """Chain query graph: topic -> hop edges -> lambda, plus constraint edges.

    Each hop is (relation symbol, reversed), a reversed hop i being stored as
    the triple (i + 1, relation, i); each constraint is (hop index, relation
    symbol, value symbol) with hop index 0 = topic node, i = i-th
    intermediate, len(hops) = lambda.
    """
    if not hops:
        raise QueryGraphError("hops must be non-empty")
    *names, lam = _path_names(len(hops))
    nodes = [QgNode(GROUNDED, topic)] + [QgNode(EXISTENTIAL, n) for n in names] + [QgNode(LAMBDA, lam)]
    edges = [QgEdge(i + 1, rel, i) if rev else QgEdge(i, rel, i + 1) for i, (rel, rev) in enumerate(hops)]
    for hop_idx, rel, value in constraints:
        if not 0 <= hop_idx <= len(hops):
            raise QueryGraphError(f"constraint hop index out of range: {hop_idx}")
        nodes.append(QgNode(GROUNDED, value))
        edges.append(QgEdge(hop_idx, rel, len(nodes) - 1))
    return QueryGraph(nodes=nodes, edges=edges, topic=0)


def _path_names(hops: int) -> list[str]:
    """Names of the variables a chain of `hops` hops reaches, in hop order:
    CHAIN_VAR_NAMES, then "x" for the lambda."""
    if hops - 1 > len(CHAIN_VAR_NAMES):
        raise QueryGraphError("too many hops")
    return [*CHAIN_VAR_NAMES[: hops - 1], "x"]


def bfs_depths(n: int, edges, start: int) -> dict[int, int]:
    """Hop distance from `start` to each node it reaches over the undirected
    (a, b) edges of a graph with nodes 0..n-1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in depth:
                    depth[nb] = depth[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return depth


def split_symbol(symbol: str) -> list[str]:
    """Fragment a symbol on whitespace, '.', '_' and '-'."""
    return [t for t in _SPLIT_RE.split(symbol) if t]


Step = tuple[int, QgEdge, bool]  # (node reached, edge, traversed dst -> src: against the KG)


def chain_of(g: QueryGraph) -> tuple[list[Step], list[list[Step]]]:
    """The chain g is: its topic -> lambda path, and per path node in path
    order (topic first) the constraint steps to its grounded values, in edge
    order.

    The edges touching no grounded node but the topic must form one simple
    path from the topic to lambda, and every other edge must join a path node
    to a grounded node; otherwise QueryGraphError.
    """
    other = {i for i, n in enumerate(g.nodes) if n.kind == GROUNDED and i != g.topic}
    left = [e for e in g.edges if e.src not in other and e.dst not in other]
    # Each step takes the one edge left at the node, so a node is left with no
    # edge once passed: a second edge there (a branch, a cycle, a parallel or
    # looping edge) shows as two steps, or stays left at the end.
    path: list[Step] = []
    node, lam = g.topic, g.lambda_index
    while node != lam:
        steps = [(e.dst, e, False) if e.src == node else (e.src, e, True)
                 for e in left if node in (e.src, e.dst)]
        if len(steps) != 1:
            raise QueryGraphError("chain edges are not one path from topic to lambda")
        path.append(steps[0])
        node, e, _ = steps[0]
        left.remove(e)
    if left:
        raise QueryGraphError("chain edges are not one path from topic to lambda")
    pos = {n: k for k, n in enumerate([g.topic] + [n for n, _, _ in path])}
    cons: list[list[Step]] = [[] for _ in pos]
    for e in g.edges:
        if e.src in other or e.dst in other:
            if e.src in pos and e.dst in other:
                cons[pos[e.src]].append((e.dst, e, False))
            elif e.dst in pos and e.src in other:
                cons[pos[e.dst]].append((e.src, e, True))
            else:
                raise QueryGraphError("constraint edge does not join a path node to a grounded node")
    return path, cons


def canonicalize(g: QueryGraph) -> str:
    """Key of the chain g, as JSON since labels may hold any character: the
    topic label, each hop's (relation, back) in path order, and per path node
    the sorted (relation, back, value label) of its constraints. Equal iff
    the chains are equal up to variable names, node order and constraint
    order. Raises QueryGraphError on a graph that is not a chain."""
    path, cons = chain_of(g)
    hops = [(e.relation, back) for _, e, back in path]
    values = [sorted((e.relation, back, g.nodes[v].label) for v, e, back in steps) for steps in cons]
    return json.dumps([g.nodes[g.topic].label, hops, values])


def _hop_tokens(e: QgEdge, back: bool) -> list[str]:
    """Relation fragments, plus 'reverse' when the traversal goes against the KG edge."""
    return split_symbol(e.relation) + (["reverse"] if back else [])


def serialize_tokens(g: QueryGraph) -> list[str]:
    """Linear walk topic -> hops -> constraints, split into fragments and
    wrapped in [CLS]/[SEP]. Traversal against KG direction adds 'reverse'.
    A path node is named by its place, as `build_chain` names it: the topic
    "c", the i-th intermediate CHAIN_VAR_NAMES[i - 1] and the lambda "x"."""
    path, cons = chain_of(g)
    names = ["c", *_path_names(len(path))]
    tokens = [CLS, *split_symbol(g.nodes[g.topic].label)]
    for (_, e, back), name in zip(path, names[1:]):
        tokens += _hop_tokens(e, back) + [name]
    for name, steps in zip(names, cons):
        for value, e, back in steps:
            tokens += [name, *_hop_tokens(e, back), *split_symbol(g.nodes[value].label)]
    tokens.append(SEP)
    return tokens


def execute(g: QueryGraph, kg: KnowledgeGraph) -> set[int]:
    """Answer set of the lambda variable: the topic's set of entities walks
    the chain path one frontier step per hop, and at each path node keeps
    only the entities with a KG triple to each of that node's constraint
    values. The triple test costs one lookup per frontier entity, however
    many edges the constraint value has."""
    path, cons = chain_of(g)
    frontier = {kg.entities.id_of(g.nodes[g.topic].label)}
    for hop, steps in zip([None, *path], cons):
        if hop is not None:
            _, e, back = hop
            frontier = step(kg, frontier, kg.relations.id_of(e.relation), back)
        for value, e, back in steps:
            v, rid = kg.entities.id_of(g.nodes[value].label), kg.relations.id_of(e.relation)
            frontier = {p for p in frontier if kg.has_triple(Triple(v, rid, p) if back else Triple(p, rid, v))}
    return frontier


def _encode_iri(symbol: str) -> str:
    out = []
    for ch in symbol:
        if ch.isspace() or ch in "%.:?{}()<>":
            out.append(f"%{ord(ch):02x}")
        else:
            out.append(ch)
    return "".join(out)


def decode_iri(name: str) -> str:
    return re.sub(r"%([0-9a-fA-F]{2})", lambda m: chr(int(m.group(1), 16)), name)


def to_sparql(g: QueryGraph) -> str:
    """Emit the graph in the supported subset, selecting the lambda's variable."""

    def term(idx: int) -> str:
        n = g.nodes[idx]
        return ":" + _encode_iri(n.label) if n.kind == GROUNDED else "?" + n.label

    patterns = " ".join(f"{term(e.src)} :{_encode_iri(e.relation)} {term(e.dst)} ." for e in g.edges)
    return f"SELECT DISTINCT {term(g.lambda_index)} WHERE {{ {patterns} }}"
