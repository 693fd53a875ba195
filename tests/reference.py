"""Reference implementations that property tests check the library against:
`Graph`, a query graph as a plain record of nodes, edge triples and topic,
with `reference_graph` (the graph of a `build_chain` call), `sparql_graph`
(the pattern graph of a parsed query) and `graph_chain` (its `chain_of`),
for the graph oracles below; a backtracking join for `execute`, a DFS
serializer for `serialize_tokens`, n! canonical forms for `canonicalize` and
`SemanticStructure.canonical`, a recursive enumerator with per-entity
feasibility for `enumerate_candidates`, numpy KG embedding scores for
`embeddings.score_nodes`, and the copying autodiff core the training
equivalence tests swap in: `reference_accumulate` (a copy on first write) for
`Node.accumulate` and `reference_rows` (np.add.at into zeros) for `ad.rows`.
KG reads go through `out_edges`/`in_edges` only:
`reference_step` scans them in place of the relation index."""

import itertools
from typing import NamedTuple

import numpy as np

from sskgqa import autodiff as ad
from sskgqa.annotation import Iri
from sskgqa.querygraph import (
    CHAIN_VAR_NAMES,
    CLS,
    SEP,
    QueryGraphError,
    build_chain,
    chain_of,
    split_symbol,
)

GROUNDED, EXISTENTIAL, LAMBDA = "grounded", "existential", "lambda"


class Graph(NamedTuple):
    """A query graph: nodes as (kind, label), edges as (head, relation,
    tail) node-index triples, and the topic's node index."""

    nodes: list
    edges: list
    topic: int


def lambda_of(g: Graph) -> int:
    return next(i for i, (kind, _) in enumerate(g.nodes) if kind == LAMBDA)


def graph_chain(g: Graph):
    """`chain_of` g: its edges over node indices, the grounded nodes labelled."""
    labels = {i: label for i, (kind, label) in enumerate(g.nodes) if kind == GROUNDED}
    return chain_of(g.edges, g.topic, lambda_of(g), labels)


def reference_graph(topic: str, hops, constraints=()) -> Graph:
    """The query graph of `build_chain(topic, hops, constraints)`: node 0 the
    topic, node i the i-th path node (lambda "x" last), a reversed hop i
    stored as the triple (i + 1, relation, i), then one grounded node per
    constraint, joined from its path node in the order given."""
    if not hops:
        raise QueryGraphError("hops must be non-empty")
    if len(hops) - 1 > len(CHAIN_VAR_NAMES):
        raise QueryGraphError("too many hops")
    names = [*CHAIN_VAR_NAMES[: len(hops) - 1], "x"]
    nodes = [(GROUNDED, topic)] + [(EXISTENTIAL, n) for n in names[:-1]] + [(LAMBDA, "x")]
    edges = [(i + 1, rel, i) if rev else (i, rel, i + 1) for i, (rel, rev) in enumerate(hops)]
    for hop_idx, rel, value in constraints:
        if not 0 <= hop_idx <= len(hops):
            raise QueryGraphError(f"constraint hop index out of range: {hop_idx}")
        nodes.append((GROUNDED, value))
        edges.append((hop_idx, rel, len(nodes) - 1))
    return Graph(nodes, edges, 0)


def sparql_graph(ast, topic: str) -> Graph:
    """The pattern graph of a parsed SPARQL query: one node per subject or
    object term in order of appearance (an Iri grounded, the selected
    variable the lambda), one edge per pattern, and the Iri `topic` as topic."""
    index: dict = {}
    for s, _, o in ast.patterns:
        for t in (s, o):
            index.setdefault(t, len(index))
    nodes = [
        (GROUNDED if isinstance(t, Iri) else LAMBDA if t.name == ast.select_var else EXISTENTIAL, t.name)
        for t in index
    ]
    return Graph(nodes, [(index[s], p.name, index[o]) for s, p, o in ast.patterns], index[Iri(topic)])


def reference_step(kg, frontier, rid: int, rev: bool) -> set[int]:
    """`kg.step` by a scan of every edge of each frontier entity."""
    return {other for e in frontier for r, other in (kg.in_edges(e) if rev else kg.out_edges(e)) if r == rid}


def reference_execute(g: Graph, kg) -> set[int]:
    """Answer set by a backtracking join over every edge."""
    ground = {i: kg.entities.id_of(label) for i, (kind, label) in enumerate(g.nodes) if kind == GROUNDED}
    edges = [(head, kg.relations.id_of(rel), tail) for head, rel, tail in g.edges]
    # each edge in turn has a bound endpoint; earlier edges are preferred
    ordered, bound, remaining = [], set(ground), list(edges)
    while remaining:
        k = next(k for k, (head, _, tail) in enumerate(remaining) if head in bound or tail in bound)
        e = remaining.pop(k)
        ordered.append(e)
        bound.update((e[0], e[2]))

    answers: set[int] = set()
    lam = lambda_of(g)
    binding = dict(ground)

    def satisfy(k: int) -> None:
        if k == len(ordered):
            answers.add(binding[lam])
            return
        head, rid, tail = ordered[k]
        hb, tb = binding.get(head), binding.get(tail)
        if hb is not None and tb is not None:
            if (rid, tb) in kg.out_edges(hb):
                satisfy(k + 1)
        elif hb is not None:
            for r, t in kg.out_edges(hb):
                if r == rid:
                    binding[tail] = t
                    satisfy(k + 1)
                    del binding[tail]
        else:
            for r, h in kg.in_edges(tb):
                if r == rid:
                    binding[head] = h
                    satisfy(k + 1)
                    del binding[head]

    satisfy(0)
    return answers


def reference_serialize(g: Graph) -> list[str]:
    """Tokens from a DFS over the non-constraint edges, then the constraint
    edges (those touching a grounded node other than the topic) per path
    node; the k-th path node after the topic is named CHAIN_VAR_NAMES[k - 1],
    or "x" if it is the lambda, and the topic "c"."""
    other = {i for i, (kind, _) in enumerate(g.nodes) if kind == GROUNDED and i != g.topic}
    lam = lambda_of(g)
    # edges are told apart by their place in g.edges, as two may be equal
    cons = [k for k, (head, _, tail) in enumerate(g.edges) if head in other or tail in other]
    adj: dict[int, list] = {}
    for k, (head, _, tail) in enumerate(g.edges):
        if k not in cons:
            adj.setdefault(head, []).append((tail, k, False))
            adj.setdefault(tail, []).append((head, k, True))
    path: list = []

    def dfs(node: int, used: set[int]) -> bool:
        if node == lam:
            return True
        for nxt, k, back in adj.get(node, []):
            if k in used:
                continue
            used.add(k)
            path.append((nxt, k, back))
            if dfs(nxt, used):
                return True
            path.pop()
            used.remove(k)
        return False

    if not dfs(g.topic, set()):
        raise QueryGraphError("no chain path from topic to lambda")
    names = {g.topic: "c"}
    for k, (node, _, _) in enumerate(path):
        names[node] = "x" if node == lam else CHAIN_VAR_NAMES[k]
    tokens = [CLS] + split_symbol(g.nodes[g.topic][1])
    for node, k, back in path:
        tokens += split_symbol(g.edges[k][1]) + (["reverse"] if back else [])
        tokens.append(names[node])
    for at in [g.topic] + [node for node, _, _ in path]:
        for k in cons:
            src, rel, dst = g.edges[k]
            back = False
            if dst == at and g.nodes[src][0] == GROUNDED and src != g.topic:
                src, dst, back = dst, src, True
            if src != at:
                continue
            tokens.append(names[src])
            tokens += split_symbol(rel) + (["reverse"] if back else [])
            tokens += split_symbol(g.nodes[dst][1])
    return tokens + [SEP]


def reference_canonicalize(g: Graph) -> tuple:
    """Smallest (node tags, labelled directed edges) over all n! node
    orders: equal iff the graphs are isomorphic up to variable names (the
    topic, other grounded nodes by label, lambda and variables tagged apart)."""
    n = len(g.nodes)
    tags = [
        ("T:" if i == g.topic else "G:") + label if kind == GROUNDED
        else "A" if kind == LAMBDA else "V"
        for i, (kind, label) in enumerate(g.nodes)
    ]
    return min(
        (
            tuple(tags[i] for i in sorted(range(n), key=lambda i: perm[i])),
            tuple(sorted((perm[head], rel, perm[tail]) for head, rel, tail in g.edges)),
        )
        for perm in itertools.permutations(range(n))
    )


def reference_structure_canonical(kinds, edges) -> tuple:
    """Smallest (kinds, undirected edges) over all n! node orders of the
    structure with these kinds and edges: equal iff they are isomorphic."""
    n = len(kinds)
    return min(
        (
            tuple(kinds[i] for i in sorted(range(n), key=lambda i: perm[i])),
            tuple(sorted(tuple(sorted((perm[s], perm[d]))) for s, d in edges)),
        )
        for perm in itertools.permutations(range(n))
    )


def reference_isomorphic(a, b) -> bool:
    """Kind-preserving isomorphism, edge direction aside, of two structures
    given as (kinds, edges), by brute force."""
    return reference_structure_canonical(*a) == reference_structure_canonical(*b)


def reference_chain(hops: int, at) -> tuple:
    """(kinds, edges) of the chain structure with `hops` hops and one
    constraint leaf on each path position in `at` (0 = topic)."""
    kinds = ("E",) + ("v",) * (hops - 1) + ("a",) + ("Ec",) * len(at)
    edges = [(i, i + 1) for i in range(hops)] + [(k, hops + 1 + j) for j, k in enumerate(at)]
    return kinds, edges


def reference_enumerate(kg, topic: str, cfg, ss=None) -> tuple[list, bool]:
    """(chains, truncated) from a recursive walk that builds each chain as it
    goes and stops at the first candidate past cfg.max_candidates; a
    constraint's feasible entities are found one entity at a time."""
    shapes = {(h, at) for h in range(1, cfg.max_hops + 1) for at in ((), *((k,) for k in range(1, h + 1)))}
    if ss is not None:
        shapes = {s for s in shapes if reference_isomorphic(reference_chain(*s), (ss.kinds, ss.edges))}
    else:
        shapes = {s for s in shapes if not s[1] or cfg.attach_constraints}
    depth = max((h for h, _ in shapes), default=0)
    graphs = []
    truncated = False

    def syms(hops):
        return [(kg.relations.symbol_of(r), rev) for r, rev in hops]

    def emit(g) -> bool:
        nonlocal truncated
        if len(graphs) >= cfg.max_candidates:
            truncated = True
            return False
        graphs.append(g)
        return True

    def feasible_at(frontiers, hops, hop_idx) -> set[int]:
        feas = set(frontiers[-1])
        for k in range(len(hops) - 1, hop_idx - 1, -1):
            rid, rev = hops[k]
            feas = {p for p in frontiers[k] if reference_step(kg, {p}, rid, rev) & feas}
        return feas

    def constraint_variants(hops, frontiers) -> bool:
        for hop_idx in range(1, len(hops) + 1):
            if (len(hops), (hop_idx,)) not in shapes:
                continue
            pairs = {edge for e in feasible_at(frontiers, hops, hop_idx) for edge in kg.out_edges(e)}
            for r, val in sorted(pairs):
                cons = [(hop_idx, kg.relations.symbol_of(r), kg.entities.symbol_of(val))]
                if not emit(build_chain(topic, syms(hops), cons)):
                    return False
        return True

    def recurse(hops, frontiers) -> bool:
        for rid in range(kg.num_relations):
            for rev in (False, True):
                nxt = reference_step(kg, frontiers[-1], rid, rev)
                if not nxt:
                    continue
                new_hops, new_frontiers = hops + [(rid, rev)], frontiers + [nxt]
                if (len(new_hops), ()) in shapes and not emit(build_chain(topic, syms(new_hops))):
                    return False
                if not constraint_variants(new_hops, new_frontiers):
                    return False
                if len(new_hops) < depth and not recurse(new_hops, new_frontiers):
                    return False
        return True

    if depth:
        recurse([], [{kg.entities.id_of(topic)}])
    return graphs, truncated


def reference_score_tails(table, h: int, r: int, tails) -> np.ndarray:
    """Scores of (h, r, t) for each t in `tails`, straight from the numpy
    formulas: TransE -||h + r - t||, ComplEx <h * r, t>, RotatE -||h o e^(i theta_r) - t||."""
    eh, et = table.ent[h : h + 1], table.ent[tails]
    if table.kind == "transe":
        return -np.linalg.norm(eh + table.rel[r : r + 1] - et, axis=1)
    if table.kind == "complex":
        return (ad.complex_mul_packed(eh, table.rel[r : r + 1]) * et).sum(axis=1)
    theta = table.rel[r, : table.d // 2]
    unit = np.concatenate([np.cos(theta), np.sin(theta)]).reshape(1, -1)
    return -np.linalg.norm(ad.complex_mul_packed(eh, unit) - et, axis=1)


def reference_accumulate(node, g: np.ndarray) -> None:
    """`Node.accumulate` with a copy on first write: the node's gradient is its
    own array from the start, and later gradients are added into it in place."""
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def reference_scatter(shape, indices, g: np.ndarray) -> np.ndarray:
    """The gradient of gathering `indices` from a `shape` matrix: np.add.at of
    g's rows into zeros."""
    full = np.zeros(shape)
    np.add.at(full, np.asarray(indices, dtype=np.int64), g)
    return full


def reference_rows(matrix, indices):
    """`ad.rows` with a reference_scatter backward."""
    idx = np.asarray(indices, dtype=np.int64)
    return ad.Node(
        matrix.value[idx],
        (matrix,),
        lambda g: matrix.accumulate(reference_scatter(matrix.shape, idx, g)),
    )
