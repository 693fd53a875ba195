"""Reference implementations that property tests check the library against:
`Graph`, a query graph as a plain record of nodes, edge triples and topic,
with `reference_graph` (the graph of a `build_chain` call), `sparql_graph`
(the pattern graph of a parsed query) and `graph_chain` (its `chain_of`),
for the graph oracles below; a backtracking join for `execute`, a DFS
serializer for `serialize_tokens`, n! canonical forms for `canonicalize` and
`SemanticStructure.canonical`, a recursive enumerator with per-entity
feasibility for `enumerate_candidates`; the tape engine the chains below
build on, as the package's engine was before each node handed its gradient
straight on: `TapeNode`, a node that keeps its parents, `reference_walk`,
the topological walk a gradient handed to one starts, and the ops
`reference_constant`, `reference_add`, `reference_scale`,
`reference_sum_all` and `reference_logsigmoid`, with
`reference_margin_loss`, the chain `embeddings.margin_loss` fuses; numpy KG
embedding scores for
`embeddings.score_nodes` and `reference_score_nodes`, the chain of row
gathers and elementwise nodes it fuses; `reference_accumulate`, the
aliasing rule `Node.accumulate` had before each parameter added into an
array of its own (a first gradient kept without a copy, later ones added out
of place), and `reference_scatter` (np.add.at into zeros), which the
equivalence tests swap in for `ad.scatter_rows`;
and the per-parameter optimizer step the packed-buffer tests swap in:
`UnpackedParams` for `optim.ParameterBuffer`, `reference_train_step`
(clipping by `global_norm`, then one optimizer step over the list of
parameter arrays) for `optim.train_step` and `ReferenceAdam` (Adam over a
list of arrays, with moments per list index) for `optim.AdamW`; and the
encoder block as a chain of nodes per head:
`reference_block_attention` and `reference_feed_forward` for the fused
`encoder.block_attention` and `encoder.feed_forward`, `reference_block_matmul` (the
per-block product those chains and the mean pool are built from), and
`reference_encoder_forward`, the chain of nodes whose arithmetic the one
node of `SequenceEncoder.forward` runs; and the token
path the models ran before the encoder read ids: `reference_token_forward` (a forward that maps tokens
itself), `reference_score_all` for `RankerModel.score_all`, and
`reference_train_ranker` and `reference_train_classifier`, which map tokens
at every step (the latter with the classifier's head and loss as
`reference_classifier_loss`, the chain of `reference_fuse`, matmul, add and
`reference_cross_entropy` nodes that `classifier.cross_entropy` fuses); and the ranker's
training before the triplet loss was one op and negatives were told from the
gold by `Chain` equality:
`reference_batch_triplet_loss`, the chain of nodes `ranker.triplet_hinge` fuses,
and `reference_build_training_triplets`, which drops the candidates whose
`canonicalize` key is the gold's; and SPARQL extraction as it was before
the record named the topic and the chain walk indexed its edges:
`reference_chain_of`, the walk that scans every edge left at each step, and
`reference_topic_guess`, the rule that picked the topic from the patterns;
and the SPARQL reader as it was before it walked its tokens in one pass and
read each term as an (is IRI, name) pair: `reference_parse_sparql`, with
`Iri` and `Var` terms, `reference_extract_query_graph` (those terms as the
nodes `chain_of` walks), `reference_pairs` (its AST with pair terms, to
compare with `querygraph.parse_sparql`'s) and `reference_decode_iri`, the
escape regex run on every name; `reference_encode_iri`, the SPARQL writer's
escape as a loop over every character;
and the nodes those chains build that no model runs: `reference_rows`,
`reference_matmul`, `reference_dropout`, `reference_relu`,
`reference_sub`, `reference_rownorm`, `reference_cos`, `reference_sin`,
`reference_split_halves`, `reference_concat_cols`, `reference_mul`,
`reference_softmax`, `reference_log`, `reference_rowsum` and
`reference_complex_mul`; and the whole answer path: `reference_answer`,
`pipeline.answer_question` composed from the enumerator, the join and the
model's scores, with `reference_key`, the chain key read off a reference
graph, as its tie-break.
KG reads go through `out_edges`/`in_edges` only:
`reference_step` scans them in place of the relation index, and
`reference_build_kg` builds that index by a lookup-then-insert intern and
a `groupby` per sorted (entity, relation) group."""

import itertools
import json
import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from sskgqa import autodiff as ad
from sskgqa import classifier, ranker
from sskgqa import encoder as encoder_module
from sskgqa.annotation import UNSUPPORTED, label_question
from sskgqa.candidates import EnumConfig, enumerate_candidates
from sskgqa.embeddings import complex_mul_packed, conj_mul_packed
from sskgqa.encoder import SequenceEncoder, Vocab
from sskgqa.kg import KnowledgeGraph, SymbolTable
from sskgqa.optim import BETA1, BETA2, EPS, MAX_NORM, AdamW, ParameterBuffer, train_step
from sskgqa.pipeline import tokenize_question
from sskgqa.querygraph import (
    _UNSUPPORTED_KEYWORDS,
    _UNSUPPORTED_OPS,
    CHAIN_VAR_NAMES,
    CLS,
    SEP,
    Chain,
    QueryGraphError,
    SparqlAst,
    SparqlError,
    build_chain,
    canonicalize,
    chain_of,
    serialize_tokens,
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
    object term in order of appearance (an IRI grounded, the selected
    variable the lambda), one edge per pattern, and the IRI `topic` as topic."""
    index: dict = {}
    for s, _, o in ast.patterns:
        for t in (s, o):
            index.setdefault(t, len(index))
    nodes = [
        (GROUNDED if is_iri else LAMBDA if name == ast.select_var else EXISTENTIAL, name) for is_iri, name in index
    ]
    return Graph(nodes, [(index[s], p[1], index[o]) for s, p, o in ast.patterns], index[(True, topic)])


def reference_chain_of(edges, topic, lam, labels: dict) -> Chain:
    """`querygraph.chain_of` by a scan of every edge left at each step, each
    taken edge removed from the list."""
    other = labels.keys() - {topic}
    left = [e for e in edges if e[0] not in other and e[2] not in other]
    hops, path = [], [topic]
    while path[-1] != lam:
        node = path[-1]
        steps = [(e[2], e, False) if e[0] == node else (e[0], e, True) for e in left if node in (e[0], e[2])]
        if len(steps) != 1:
            raise QueryGraphError("chain edges are not one path from topic to lambda")
        nxt, e, back = steps[0]
        hops.append((e[1], back))
        path.append(nxt)
        left.remove(e)
    if left:
        raise QueryGraphError("chain edges are not one path from topic to lambda")
    pos = {n: k for k, n in enumerate(path)}
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


def _bfs_depths(edges, start) -> dict:
    """Hop distance from `start` to each node it reaches over undirected edges."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj.get(node, ()):
                if nb not in depth:
                    depth[nb] = depth[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return depth


def reference_topic_guess(ast) -> str:
    """The topic label a parsed query's patterns were read from before the
    record named it: among the IRIs that reach the lambda through variables
    only, the one farthest from it; among ties, one that is the subject of
    some pattern, then the first to appear. QueryGraphError where that rule
    refused the query before it walked a chain: a variable predicate, no IRI,
    or patterns not all joined to the lambda. Terms are (is IRI, name) pairs."""
    if any(not p[0] for _, p, _ in ast.patterns):
        raise QueryGraphError("variable predicates are not supported")
    edges = [(s, p[1], o) for s, p, o in ast.patterns]
    nodes = list(dict.fromkeys(t for s, _, o in edges for t in (s, o)))
    grounded = [t for t in nodes if t[0]]
    if not grounded:
        raise QueryGraphError("no grounded entity in query")
    lam = (False, ast.select_var)
    dist = _bfs_depths([(s, o) for s, _, o in edges], lam)
    if dist.keys() != set(nodes):
        raise QueryGraphError("pattern graph is disconnected")
    via_vars = _bfs_depths([(s, o) for s, _, o in edges if not s[0] and not o[0]], lam)
    reach = {s for s, _, o in edges if o in via_vars} | {o for s, _, o in edges if s in via_vars}
    subjects = {s for s, _, _ in edges}
    return max((t for t in grounded if t in reach), key=lambda t: (dist[t], t in subjects))[1]


_TOKEN_RE = re.compile(r"<=|>=|!=|\|\||&&|[{}().<>=]|[^\s{}().<>=]+")


@dataclass(frozen=True)
class Iri:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


def reference_pairs(ast: SparqlAst) -> SparqlAst:
    """The AST of `reference_parse_sparql` with each term as the (is IRI,
    name) pair `querygraph.parse_sparql` gives."""
    return SparqlAst(ast.select_var, [tuple((isinstance(t, Iri), t.name) for t in pat) for pat in ast.patterns])


def reference_decode_iri(name: str) -> str:
    """`querygraph.decode_iri` as a `re.sub` of the escape pattern written out."""
    return re.sub(r"%(?:u([0-9a-fA-F]{4})|([0-9a-fA-F]{2}))", lambda m: chr(int(m.group(1) or m.group(2), 16)), name)


def reference_encode_iri(symbol: str) -> str:
    """`querygraph._encode_iri` as a test of every character by
    `str.isspace` and membership in its punctuation."""
    out = []
    for ch in symbol:
        if ch.isspace() or ch in "%.:?{}()<>=":
            out.append(f"%{ord(ch):02x}" if ord(ch) <= 0xFF else f"%u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def reference_parse_sparql(text: str) -> SparqlAst:
    """`querygraph.parse_sparql` by `peek`/`take` closures over the token
    list, one token at a time."""
    toks = _TOKEN_RE.findall(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            wanted = "" if expected is None else f" (wanted {expected})"
            raise SparqlError(f"unexpected end of input{wanted}", pos)
        tok = toks[pos]
        if expected is not None and tok.upper() != expected.upper():
            raise SparqlError(f"expected {expected!r}, got {tok!r}", pos)
        pos += 1
        return tok

    while peek() is not None and peek().upper() == "PREFIX":
        take("PREFIX")
        take()  # namespace declaration such as "ns:"
        take("<")
        while peek() is not None and peek() != ">":
            take()
        take(">")
    take("SELECT")
    if peek() is not None and peek().upper() == "DISTINCT":
        take("DISTINCT")
    var_tok = take()
    if not var_tok.startswith("?"):
        raise SparqlError(f"expected a ?variable, got {var_tok!r}", pos - 1)
    select_var = var_tok[1:]
    take("WHERE")
    take("{")

    def term(tok: str, at: int):
        if tok.startswith("?"):
            if len(tok) < 2:
                raise SparqlError("empty variable name", at)
            return Var(tok[1:])
        name = tok.split(":", 1)[1] if ":" in tok else tok
        if not name:
            raise SparqlError(f"empty iri name in {tok!r}", at)
        return Iri(reference_decode_iri(name))

    patterns = []
    while True:
        tok = peek()
        if tok is None:
            raise SparqlError("unterminated WHERE block", pos)
        if tok == "}":
            take("}")
            break
        if tok.upper() in _UNSUPPORTED_KEYWORDS or tok in _UNSUPPORTED_OPS:
            raise SparqlError(f"unsupported {tok!r}", pos)
        s = term(take(), pos - 1)
        p = term(take(), pos - 1)
        o = term(take(), pos - 1)
        take(".")
        patterns.append((s, p, o))
    if peek() is not None:
        raise SparqlError(f"unexpected {peek()!r} after the WHERE block", pos)
    if not patterns:
        raise SparqlError("empty WHERE block", pos)
    terms = [t for pat in patterns for t in pat]
    if Var(select_var) not in terms:
        raise SparqlError(f"selected variable ?{select_var} not used in any pattern", pos)
    return SparqlAst(select_var, patterns)


def reference_extract_query_graph(ast, topic: str) -> Chain:
    """`querygraph.extract_query_graph` with the `Iri` and `Var` terms
    themselves as the nodes `chain_of` walks."""
    if any(isinstance(p, Var) for _, p, _ in ast.patterns):
        raise QueryGraphError("variable predicates are not supported")
    edges = [(s, p.name, o) for s, p, o in ast.patterns]
    labels = {t: t.name for s, _, o in edges for t in (s, o) if isinstance(t, Iri)}
    if Iri(topic) not in labels:
        raise QueryGraphError(f"no pattern names the topic {topic!r}")
    return chain_of(edges, Iri(topic), Var(ast.select_var), labels)


def reference_build_kg(records) -> KnowledgeGraph:
    """`kg.build_kg` with each symbol of the sorted distinct records interned
    by a lookup and, when it is new, an insert, and each index filled by one
    `groupby` per sorted (entity, relation) group."""
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}

    def intern(table: dict[str, int], symbol: str) -> int:
        i = table.get(symbol)
        if i is None:
            i = table[symbol] = len(table)
        return i

    ids = {(intern(ents, h), intern(rels, r), intern(ents, t)) for h, r, t in sorted(set(records))}
    kg = KnowledgeGraph(SymbolTable(ents), SymbolTable(rels), num_triples=len(ids))
    kg.tails_of = [{} for _ in range(kg.num_entities)]
    kg.heads_of = [{} for _ in range(kg.num_entities)]
    for index, triples in ((kg.tails_of, ids), (kg.heads_of, [(t, r, h) for h, r, t in ids])):
        for (e, r), group in itertools.groupby(sorted(triples), key=lambda x: x[:2]):
            index[e][r] = tuple(x for _, _, x in group)
    return kg


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
    constraint's feasible entities are found one entity at a time. A
    structure `ss` is its drawing, (kinds, edges), and keeps the shapes
    whose chain is isomorphic to it."""
    shapes = {(h, at) for h in range(1, cfg.max_hops + 1) for at in ((), *((k,) for k in range(1, h + 1)))}
    if ss is not None:
        shapes = {s for s in shapes if reference_isomorphic(reference_chain(*s), ss)}
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


def reference_key(g: Graph) -> str:
    """The key `canonicalize` gives the chain of `g`, a `reference_graph`,
    whose node i is path node i: the topic label, each hop as (relation,
    back) in path order, and per path node the sorted (relation, back, value
    label) of its constraints, as JSON."""
    hops = lambda_of(g)
    path = [(rel, head > tail) for head, rel, tail in g.edges[:hops]]
    values = [
        sorted((rel, False, g.nodes[tail][1]) for head, rel, tail in g.edges[hops:] if head == k)
        for k in range(hops + 1)
    ]
    return json.dumps([g.nodes[g.topic][1], path, values])


class ReferenceAnswer(NamedTuple):
    status: str
    answers: list[str]  # sorted answer symbols
    top1: str | None  # reference_key of the top-ranked chain
    fallback: bool  # no chain had the mode's shape, so its hop count's chains were ranked


def reference_answer(cfg, q) -> ReferenceAnswer:
    """`pipeline.answer_question(cfg, q)` from the oracles: the mode's shape
    (the predicted label's, the gold label's, or none); `reference_enumerate`
    of the chains of that shape, or, when there is none, of every chain up
    to its hop count, constrained ones too if it has a constraint; the
    model's scores, sorted by (-score, reference_key); and
    `reference_execute` of the first. A question whose topic entity the KG
    lacks is not answered, nor in `oracle` mode an Unsupported one."""
    kg = cfg.kg
    if q.topic_entity not in kg.entities:
        return ReferenceAnswer("unknown_topic", [], None, False)
    tokens = tokenize_question(q.question)
    shape = None
    if cfg.mode == "predicted":
        shape = cfg.taxonomy.get(cfg.classifier.predict(tokens, kg.entities.id_of(q.topic_entity))).shape
    elif cfg.mode == "oracle":
        gold = label_question(q, cfg.taxonomy)
        if gold == UNSUPPORTED:
            return ReferenceAnswer("unsupported", [], None, False)
        shape = cfg.taxonomy.get(gold).shape
    chains, _ = reference_enumerate(kg, q.topic_entity, cfg.enum, None if shape is None else reference_chain(*shape))
    fallback = not chains and shape is not None
    if fallback:
        hops, at = shape
        enum = replace(cfg.enum, max_hops=min(cfg.enum.max_hops, hops), attach_constraints=bool(at))
        chains, _ = reference_enumerate(kg, q.topic_entity, enum)
    graphs = [reference_graph(c.topic, c.hops, [(k, rel, value) for k, rel, _, value in c.constraints]) for c in chains]
    scores = cfg.ranker.score_all(tokens, chains)
    best = min(range(len(graphs)), key=lambda i: (-scores[i], reference_key(graphs[i])))
    answers = sorted(kg.entities.symbol_of(a) for a in reference_execute(graphs[best], kg))
    return ReferenceAnswer("ok", answers, reference_key(graphs[best]), fallback)


class TapeNode(ad.Node):
    """A node of the tape engine the reference chains build on, as the
    package's nodes were before each handed its gradient straight on: it
    keeps its parents, and within a walk it only adds up what its consumers
    hand it; the walk calls its backward once, with the sum.

    A gradient handed to it from outside a walk that reached it, by
    `ad.backward` or by a package node's backward, starts `reference_walk`
    of its tape. A package node is a leaf of that walk."""

    __slots__ = ("parents", "walked")

    def __init__(self, value, parents=(), backward=None):
        super().__init__(value, backward)
        self.parents = tuple(parents)
        self.walked = False  # true while a walk that reached it runs

    def accumulate(self, g: np.ndarray) -> None:
        if not self.walked:
            reference_walk(self, g)
        elif self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


def reference_walk(top: TapeNode, g: np.ndarray) -> None:
    """Hand g to `top`, then call the backward of every node reachable from
    it through parents, in reverse topological order of a depth-first
    search, each once with the sum of what its consumers handed it. A
    package node with a backward, which would hand each share on as it
    comes, adds them up until its turn, as a tape node does, and keeps no
    gradient after the walk."""
    topo: list = []
    seen: set = set()
    stack: list = [(top, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in getattr(node, "parents", ()):
            if p not in seen:
                stack.append((p, False))
    backwards = {node: node._backward for node in topo}
    tape = [node for node in topo if isinstance(node, TapeNode)]
    held = [node for node in topo if not isinstance(node, TapeNode) and node._backward is not None]
    for node in tape:
        node.walked = True
    for node in held:
        node._backward = None
    try:
        top.accumulate(g)
        for node in reversed(topo):
            if backwards[node] is not None and node.grad is not None:
                backwards[node](node.grad)
    finally:
        for node in tape:
            node.walked = False
        for node in held:
            node._backward, node.grad = backwards[node], None


def reference_constant(x) -> TapeNode:
    return TapeNode(x)


def reference_add(a, b):
    """Elementwise sum; a (1, d) operand broadcasts over (n, d) rows."""
    if a.shape != b.shape:
        if not (a.shape[1] == b.shape[1] and 1 in (a.shape[0], b.shape[0])):
            raise ad.ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def row_grad(g):
        return g.sum(axis=0, keepdims=True) if g.shape[0] > 1 else g

    def backward(g):
        a.accumulate(row_grad(g) if a.shape[0] == 1 else g)
        b.accumulate(row_grad(g) if b.shape[0] == 1 else g)

    return TapeNode(a.value + b.value, (a, b), backward)


def reference_scale(a, c: float):
    return TapeNode(a.value * c, (a,), lambda g: a.accumulate(g * c))


def reference_sum_all(a):
    return TapeNode(a.value.sum(), (a,), lambda g: a.accumulate(np.full_like(a.value, g[0, 0])))


def reference_logsigmoid(a):
    """log(sigmoid(x)), computed stably as min(x, 0) - log1p(exp(-|x|))."""
    x = a.value
    y = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    return TapeNode(y, (a,), lambda g: a.accumulate(g / (1.0 + np.exp(x))))


def reference_margin_loss(s_pos, s_neg, margin: float):
    """`embeddings.margin_loss` as the chain of nodes it fuses: per side the
    margin added as a constant, the negatives' -1 scale, logsigmoid, the sum
    and the -1/n scale, then the add of the two sides."""
    pos = reference_add(s_pos, reference_constant(np.full(s_pos.shape, margin)))
    neg = reference_scale(reference_add(s_neg, reference_constant(np.full(s_neg.shape, margin))), -1.0)
    pos_term = reference_scale(reference_sum_all(reference_logsigmoid(pos)), -1.0 / s_pos.shape[0])
    neg_term = reference_scale(reference_sum_all(reference_logsigmoid(neg)), -1.0 / s_neg.shape[0])
    return reference_add(pos_term, neg_term)


def reference_score_tails(table, h: int, r: int, tails) -> np.ndarray:
    """Scores of (h, r, t) for each t in `tails`, straight from the numpy
    formulas: TransE -||h + r - t||, ComplEx <h * r, t>."""
    eh, et = table.ent[h : h + 1], table.ent[tails]
    if table.kind == "complex":
        return (complex_mul_packed(eh, table.rel[r : r + 1]) * et).sum(axis=1)
    return -np.linalg.norm(eh + table.rel[r : r + 1] - et, axis=1)


def reference_score_nodes(ent, rel, kind: str, h, r, t):
    """`embeddings.score_nodes` as the chain of nodes it fuses: row gathers
    of the heads, tails and relations, then TransE -||h + r - t|| as add,
    sub, rownorm and a -1 scale, ComplEx <h * r, t> as complex_mul, mul and
    rowsum."""
    eh = reference_rows(ent, h)
    et = reference_rows(ent, t)
    er = reference_rows(rel, r)
    if kind == "complex":
        return reference_rowsum(reference_mul(reference_complex_mul(eh, er), et))
    return reference_scale(reference_rownorm(reference_sub(reference_add(eh, er), et)), -1.0)


def reference_mul(a, b):
    if a.shape != b.shape:
        raise ad.ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        a.accumulate(g * b.value)
        b.accumulate(g * a.value)

    return TapeNode(a.value * b.value, (a, b), backward)


def reference_softmax(a):
    """Row-wise max-shifted softmax."""
    e = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return TapeNode(y, (a,), lambda g: a.accumulate(y * (g - (g * y).sum(axis=1, keepdims=True))))


def reference_log(a):
    return TapeNode(np.log(a.value), (a,), lambda g: a.accumulate(g / a.value))


def reference_rowsum(a):
    """(n, d) -> (n, 1) row sums."""

    def backward(g):
        a.accumulate(np.repeat(g, a.shape[1], axis=1))

    return TapeNode(a.value.sum(axis=1, keepdims=True), (a,), backward)


def reference_complex_mul(a, b):
    """Differentiable complex_mul_packed of two half-split nodes."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"complex_mul: shape mismatch {a.shape} vs {b.shape}")
    if a.shape[1] % 2 != 0:
        raise ad.ShapeError(f"complex_mul: column count must be even, got {a.shape[1]}")

    def backward(g):
        a.accumulate(conj_mul_packed(g, b.value))
        b.accumulate(conj_mul_packed(g, a.value))

    return TapeNode(complex_mul_packed(a.value, b.value), (a, b), backward)


def reference_sub(a, b):
    if a.shape != b.shape:
        raise ad.ShapeError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        a.accumulate(g)
        b.accumulate(-g)

    return TapeNode(a.value - b.value, (a, b), backward)


def reference_cos(a):
    return TapeNode(np.cos(a.value), (a,), lambda g: a.accumulate(-g * np.sin(a.value)))


def reference_sin(a):
    return TapeNode(np.sin(a.value), (a,), lambda g: a.accumulate(g * np.cos(a.value)))


def reference_rownorm(a):
    """(n, d) -> (n, 1) per-row Euclidean norms (zero rows get zero gradient)."""
    norms = np.sqrt((a.value**2).sum(axis=1, keepdims=True))

    def backward(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        a.accumulate(np.where(norms > 0.0, g / safe, 0.0) * a.value)

    return TapeNode(norms, (a,), backward)


def reference_split_halves(a):
    """x -> (lower-half columns, higher-half columns)."""
    if a.shape[1] % 2 != 0:
        raise ad.ShapeError(f"split_halves: column count must be even, got {a.shape[1]}")
    h = a.shape[1] // 2

    def half(cols: slice):
        def backward(g):
            full = np.zeros_like(a.value)
            full[:, cols] = g
            a.accumulate(full)

        return TapeNode(a.value[:, cols].copy(), (a,), backward)

    return half(slice(None, h)), half(slice(h, None))


def reference_concat_cols(a, b):
    if a.shape[0] != b.shape[0]:
        raise ad.ShapeError(f"concat_cols: row counts differ {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def backward(g):
        a.accumulate(g[:, :ca])
        b.accumulate(g[:, ca:])

    return TapeNode(np.concatenate([a.value, b.value], axis=1), (a, b), backward)


def reference_accumulate(node, g: np.ndarray) -> None:
    """`Node.accumulate` by the aliasing rule: a node with a backward hands g
    on, a leaf keeps its first gradient as it is, without a copy, and adds
    later ones out of place, so no array a backward handed out is written
    and one array may be the gradient of several leaves. For unpacked
    parameters only: it rebinds `grad`, which would detach a packed one from
    its buffer."""
    if node._backward is not None:
        node._backward(g)
    elif node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


def reference_scatter(shape, indices, g: np.ndarray) -> np.ndarray:
    """The gradient of gathering `indices` from a `shape` matrix: np.add.at of
    g's rows into zeros."""
    full = np.zeros(shape)
    np.add.at(full, np.asarray(indices, dtype=np.int64), g)
    return full


def reference_rows(matrix, indices):
    """Gather rows by index as a node; the gradient scatter-adds into the
    matrix with `ad.scatter_rows`."""
    idx = np.asarray(indices, dtype=np.int64)
    return TapeNode(
        matrix.value[idx], (matrix,), lambda g: matrix.accumulate(ad.scatter_rows(idx, g, matrix.shape[0]))
    )


def reference_matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ad.ShapeError(f"matmul: inner dims differ {a.shape} vs {b.shape}")

    def backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return TapeNode(a.value @ b.value, (a, b), backward)


def reference_dropout(a, p: float, rng: np.random.Generator, training: bool):
    """Inverted-scaling dropout as a node; `a` itself when not training or
    p == 0."""
    if not training or p <= 0.0:
        return a
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return TapeNode(a.value * mask, (a,), lambda g: a.accumulate(g * mask))


def global_norm(grads: list[np.ndarray]) -> float:
    """The L2 norm of a list of gradients: each one's sum of squares, added
    in order."""
    return float(np.sqrt(sum(float((g**2).sum()) for g in grads)))


def reference_clip(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale each gradient in place so the global L2 norm is at most max_norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return grads


class UnpackedParams:
    """Stands in for `optim.ParameterBuffer` in a trainer: it keeps the
    parameter list and packs nothing, so each value stays its own array."""

    def __init__(self, params):
        self.params = list(params)


class ReferenceAdam:
    """Bias-corrected Adam over a list of parameter arrays, with its moments
    kept per list index."""

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step_count += 1
        for i, (p, g) in enumerate(zip(params, grads, strict=True)):
            if i not in self._m:
                self._m[i] = np.zeros_like(p)
                self._v[i] = np.zeros_like(p)
            m, v = self._m[i], self._v[i]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            mhat = m / (1.0 - BETA1**self.step_count)
            vhat = v / (1.0 - BETA2**self.step_count)
            p -= self.lr * (mhat / (np.sqrt(vhat) + EPS))


def reference_train_step(opt: ReferenceAdam, unpacked: UnpackedParams, loss) -> None:
    """`train_step` one parameter array at a time: each parameter's gradient
    reset to None, so a backward leaves it the exact copy of the first
    gradient it is handed, sign of zero included, and zeros for a parameter
    the loss does not reach; then reference_clip to MAX_NORM and opt.step
    over the per-parameter lists."""
    params = unpacked.params
    for p in params:
        p.grad = None
    ad.backward(loss)
    grads = [np.zeros_like(p.value) if p.grad is None else p.grad for p in params]
    reference_clip(grads, MAX_NORM)
    opt.step([p.value for p in params], grads)


def reference_block_matmul(a, b, blocks: int):
    """a_i @ b_i for each of `blocks` row blocks, stacked, as a node:
    (blocks*m, l) and (blocks*l, k) -> (blocks*m, k)."""
    if blocks < 1 or a.shape[0] % blocks or b.shape[0] % blocks:
        raise ad.ShapeError(f"block_matmul: {a.shape} and {b.shape} do not split into {blocks} row blocks")
    a3 = a.value.reshape(blocks, -1, a.shape[1])
    b3 = b.value.reshape(blocks, -1, b.shape[1])
    if a3.shape[2] != b3.shape[1]:
        raise ad.ShapeError(f"block_matmul: inner dims differ {a3.shape[1:]} vs {b3.shape[1:]}")

    def backward(g):
        g3 = g.reshape(blocks, a3.shape[1], b3.shape[2])
        a.accumulate(np.matmul(g3, b3.transpose(0, 2, 1)).reshape(a.shape))
        b.accumulate(np.matmul(a3.transpose(0, 2, 1), g3).reshape(b.shape))

    return TapeNode(np.matmul(a3, b3).reshape(a.shape[0], -1), (a, b), backward)


def reference_block_matmul_t(a, b, blocks: int):
    """a_i @ b_i.T for each of `blocks` row blocks, stacked, as a node:
    (blocks*m, k) and (blocks*l, k) -> (blocks*m, l)."""
    a3 = a.value.reshape(blocks, -1, a.shape[1])
    b3 = b.value.reshape(blocks, -1, b.shape[1])

    def backward(g):
        g3 = g.reshape(blocks, a3.shape[1], b3.shape[1])
        a.accumulate(np.matmul(g3, b3).reshape(a.shape))
        b.accumulate(np.matmul(g3.transpose(0, 2, 1), a3).reshape(b.shape))

    return TapeNode(np.matmul(a3, b3.transpose(0, 2, 1)).reshape(a.shape[0], -1), (a, b), backward)


def reference_block_attention(x, weights, mask: np.ndarray, blocks: int):
    """`encoder.block_attention` as a chain of nodes per head: three matmuls, the
    block scores, the scale, the add of the mask as a constant node (row j of
    block i is mask row i), the row softmax and the block product, then the
    heads joined by concat_cols."""
    dh = weights[0].shape[1]
    width = mask.shape[1]
    mask_rows = reference_constant(np.repeat(mask, width, axis=0))
    heads = []
    for i in range(0, len(weights), 3):
        q, k, v = (reference_matmul(x, w) for w in weights[i : i + 3])
        scores = reference_scale(reference_block_matmul_t(q, k, blocks), 1.0 / math.sqrt(dh))
        att = reference_softmax(reference_add(scores, mask_rows))
        heads.append(reference_block_matmul(att, v, blocks))
    merged = heads[0]
    for h in heads[1:]:
        merged = reference_concat_cols(merged, h)
    return merged


def reference_relu(a):
    """max(x, 0) as a node; its gradient is 0 at 0."""
    mask = a.value > 0
    return TapeNode(a.value * mask, (a,), lambda g: a.accumulate(g * mask))


def reference_feed_forward(x, w1, b1, w2, b2):
    """`encoder.feed_forward` as a chain of matmul, add, relu, matmul and add nodes."""
    hidden = reference_relu(reference_add(reference_matmul(x, w1), b1))
    return reference_add(reference_matmul(hidden, w2), b2)


def reference_encoder_forward(self, *sequences, training: bool = False, rng=None, layout=None):
    """`SequenceEncoder.forward` as a chain of nodes over the parameter
    nodes: the token row gather, the attention block built from
    reference_block_attention, matmul, add and reference_feed_forward, the
    mean pool as reference_block_matmul of the pooling weights as a constant
    node, dropout and the projection; the value alone when not training.
    Patched over the method, it stands in for the encoder's one node in a
    trainer. It reads everything off `sequences` and ignores a precomputed
    `layout`."""
    if not sequences:
        raise ValueError("forward needs at least one token sequence")
    if not all(sequences):
        raise ValueError("token sequences must be non-empty")
    cfg, p = self.cfg, self.params
    n = len(sequences)
    lens = np.array([len(s) for s in sequences])
    width = int(lens.max())
    real = np.arange(width) < lens[:, None]
    ids = np.zeros((n, width), dtype=np.int64)
    ids[real] = [i for s in sequences for i in s]
    x = reference_rows(p["tok_emb"], ids.ravel())
    if cfg.use_attention:
        weights = [p[f"{w}{h}"] for h in range(cfg.heads) for w in ("wq", "wk", "wv")]
        attended = reference_block_attention(x, weights, np.where(real, 0.0, -np.inf), n)
        x = reference_add(x, reference_matmul(attended, p["wo"]))
        x = reference_add(x, reference_feed_forward(x, p["ff_w1"], p["ff_b1"], p["ff_w2"], p["ff_b2"]))
    pooled = reference_block_matmul(reference_constant(real / lens[:, None]), x, n)
    pooled = reference_dropout(pooled, cfg.dropout, rng, training)
    out = reference_matmul(pooled, p["proj"])
    return out if training else out.value


def reference_token_forward(encoder, *token_sequences, training: bool = False, rng=None):
    """The encoder forward of token sequences, each mapped to ids inside the
    call, as every forward did before the encoder read ids."""
    return encoder.forward(
        *(encoder.vocab.encode(s) for s in token_sequences), training=training, rng=rng
    )


def reference_score_all(model, question_tokens, cands) -> list[float]:
    """`RankerModel.score_all` on the token path: every candidate serialized
    with the default split, and each chunk of `encoder.ENCODE_CHUNK` token
    sequences mapped to ids inside its own forward."""
    seqs = [question_tokens] + [serialize_tokens(c) for c in cands]
    vecs = np.concatenate(
        [
            reference_token_forward(model.encoder, *seqs[i : i + encoder_module.ENCODE_CHUNK])
            for i in range(0, len(seqs), encoder_module.ENCODE_CHUNK)
        ]
    )
    return (-np.linalg.norm(vecs[1:] - vecs[0], axis=1)).tolist()


def reference_batch_triplet_loss(f, alpha: float):
    """The ranker's triplet loss as the chain of nodes `ranker.triplet_hinge`
    fuses: row gathers of the anchor and the other rows, their difference,
    the row norms, gathers of the positive's and the negatives' distances,
    their difference, the margin added as a constant, relu, the sum and the
    1/k scale."""
    k = f.shape[0] - 2
    # dist row 0 is ||f_q - f_p||, row j is ||f_q - f_n_j||
    dist = reference_rownorm(reference_sub(reference_rows(f, [0] * (k + 1)), reference_rows(f, range(1, k + 2))))
    raw = reference_sub(reference_rows(dist, [0] * k), reference_rows(dist, range(1, k + 1)))
    hinge = reference_relu(reference_add(raw, reference_constant([[alpha]])))
    return reference_scale(reference_sum_all(hinge), 1.0 / k)


def reference_build_training_triplets(dataset, kg, cfg, rng):
    """`ranker.build_training_triplets` with negatives kept by their
    `canonicalize` key, unequal to the gold's."""
    out = []
    base = EnumConfig()
    for q_tokens, gold in dataset:
        if gold.topic not in kg.entities:
            continue
        gold_key = canonicalize(gold)
        cands = enumerate_candidates(kg, gold.topic, base, gold.shape).graphs
        negs = [c for c in cands if canonicalize(c) != gold_key]
        if not negs:
            continue
        picked = rng.choice(len(negs), size=min(cfg.negatives, len(negs)), replace=False)
        out.append((q_tokens, serialize_tokens(gold), [serialize_tokens(negs[i]) for i in picked]))
    return out


def reference_train_ranker(dataset, kg, cfg):
    """`train_ranker` mapping each triplet's tokens to ids at every step."""
    rng = np.random.default_rng(cfg.seed)
    triplets = ranker.build_training_triplets(dataset, kg, cfg, rng)
    vocab = Vocab.from_sequences(
        [t[0] for t in triplets] + [t[1] for t in triplets] + [n for t in triplets for n in t[2]]
    )
    model = ranker.RankerModel(SequenceEncoder(vocab, cfg.encoder, rng), trained_on=len(triplets))
    buffer = ParameterBuffer(model.encoder.parameters())
    opt = AdamW(lr=cfg.lr)
    order = np.arange(len(triplets))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            q_toks, pos_toks, neg_toks = triplets[i]
            f = reference_token_forward(model.encoder, q_toks, pos_toks, *neg_toks, training=True, rng=rng)
            train_step(opt, buffer, ranker.triplet_hinge(f, cfg.margin))
    return model


def reference_fuse(eh: np.ndarray, eq):
    """`classifier.fuse` as the chain of nodes it fuses: eh as a constant
    node, then add, add and complex_mul."""
    head = reference_constant(eh)
    return reference_add(reference_add(head, eq), reference_complex_mul(head, eq))


def reference_cross_entropy(logits, targets):
    """The loss half of `classifier.cross_entropy` as the chain of nodes it
    fuses: softmax, a product with the one-hot targets as a constant node,
    row sums, log, sum and the -1/n scale."""
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(targets)), targets] = 1.0
    picked = reference_rowsum(reference_mul(reference_softmax(logits), reference_constant(onehot)))
    return reference_scale(reference_sum_all(reference_log(picked)), -1.0 / len(targets))


def reference_classifier_loss(eq, eh: np.ndarray, w, b, targets):
    """`classifier.cross_entropy` as the chain of nodes it fuses:
    reference_fuse, matmul, the bias add and reference_cross_entropy."""
    return reference_cross_entropy(reference_add(reference_matmul(reference_fuse(eh, eq), w), b), targets)


def reference_train_classifier(dataset, table, taxonomy, cfg):
    """`train_classifier` mapping each minibatch's tokens to ids at every
    step, with the head and the loss built as reference_classifier_loss."""
    labels = taxonomy.labels()
    targets = [labels.index(label) for _, _, label in dataset]
    rng = np.random.default_rng(cfg.seed)
    vocab = Vocab.from_sequences([toks for toks, _, _ in dataset])
    enc_cfg = replace(cfg.encoder, out_dim=table.d)
    model = classifier.ClassifierModel(SequenceEncoder(vocab, enc_cfg, rng), table, taxonomy, rng)
    buffer = ParameterBuffer(model.parameters())
    opt = AdamW(lr=cfg.lr)
    order = np.arange(len(dataset))
    for _epoch in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), classifier.BATCH_SIZE):
            batch = order[start : start + classifier.BATCH_SIZE]
            eq = reference_token_forward(model.encoder, *(dataset[i][0] for i in batch), training=True, rng=rng)
            eh = table.lookup_entities([dataset[i][1] for i in batch])
            train_step(opt, buffer, reference_classifier_loss(eq, eh, model.w, model.b, [targets[i] for i in batch]))
    return model
