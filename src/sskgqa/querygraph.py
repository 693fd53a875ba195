"""Query graphs: the `Chain` every candidate and gold is, with its key,
serialization and execution; `chain_of`, which reads a `Chain` off the
triple patterns of a SPARQL query or a structure; and the SPARQL subset,
written by `to_sparql` and read back by `parse_sparql` and `sparql_chain`."""

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


class QueryGraphError(ValueError):
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


# the punctuation a SPARQL token ends at
_DELIMITERS = "{}().<>="
# each character the tokenizer splits on, or that `parse_sparql` reads in a term
_NEEDS_ESCAPE = re.compile(rf"[\s%:?{_DELIMITERS}]")


def _escape(m: re.Match) -> str:
    c = ord(m[0])
    return f"%{c:02x}" if c <= 0xFF else f"%u{c:04x}"


def _encode_iri(symbol: str) -> str:
    """`symbol` with each `_NEEDS_ESCAPE` character escaped: `%xx` up to
    U+00FF and `%uXXXX` above it (every whitespace character lies below
    U+10000)."""
    return _NEEDS_ESCAPE.sub(_escape, symbol)


_ESCAPE_RE = re.compile(r"%(?:u([0-9a-fA-F]{4})|([0-9a-fA-F]{2}))")


def decode_iri(name: str) -> str:
    """The symbol `_encode_iri` wrote as `name`: each `%uXXXX` and `%xx`
    escape read back."""
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


_TOKEN_RE = re.compile(rf"<=|>=|!=|\|\||&&|[{_DELIMITERS}]|[^\s{_DELIMITERS}]+")
_UNSUPPORTED_OPS = ("<=", ">=", "!=", "||", "&&", "<", ">", "=")
_UNSUPPORTED_KEYWORDS = {"FILTER", "OPTIONAL", "UNION", "MINUS", "OR", "EXISTS"}


class SparqlError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at token {position})")
        self.position = position


@dataclass
class SparqlAst:
    """The selected variable's name and the (subject, predicate, object)
    patterns, each term the node (is IRI, name): an IRI by its decoded name,
    a ?variable by what follows the `?`."""

    select_var: str
    patterns: list[tuple[tuple[bool, str], tuple[bool, str], tuple[bool, str]]]


def _take(toks: list[str], pos: int, expected: str | None = None) -> str:
    """toks[pos], which must equal `expected` up to case when one is given."""
    if pos >= len(toks):
        wanted = "" if expected is None else f" (wanted {expected})"
        raise SparqlError(f"unexpected end of input{wanted}", pos)
    tok = toks[pos]
    if expected is not None and tok.upper() != expected.upper():
        raise SparqlError(f"expected {expected!r}, got {tok!r}", pos)
    return tok


def _term(tok: str, at: int) -> tuple[bool, str]:
    """The node of pattern token `tok`, found at token `at`: a ?variable, or
    an IRI named by what follows its prefix's `:`."""
    if tok[0] == "?":
        if len(tok) < 2:
            raise SparqlError("empty variable name", at)
        return False, tok[1:]
    _, colon, name = tok.partition(":")
    if not colon:
        name = tok
    if not name:
        raise SparqlError(f"empty iri name in {tok!r}", at)
    return True, decode_iri(name)


def parse_sparql(text: str) -> SparqlAst:
    """Parse the supported subset: SELECT of one variable over triple
    patterns. SparqlError at the first FILTER-style keyword or comparison
    operator where a pattern would start, and at the first token after the
    `}` that closes WHERE (a solution modifier such as ORDER BY or LIMIT)."""
    toks = _TOKEN_RE.findall(text)
    n = len(toks)
    pos = 0
    while pos < n and toks[pos].upper() == "PREFIX":
        _take(toks, pos + 1)  # namespace declaration such as "ns:"
        _take(toks, pos + 2, "<")
        pos += 3
        while pos < n and toks[pos] != ">":
            pos += 1
        _take(toks, pos, ">")
        pos += 1
    _take(toks, pos, "SELECT")
    pos += 1
    if pos < n and toks[pos].upper() == "DISTINCT":
        pos += 1
    var_tok = _take(toks, pos)
    if not var_tok.startswith("?"):
        raise SparqlError(f"expected a ?variable, got {var_tok!r}", pos)
    select_var = var_tok[1:]
    _take(toks, pos + 1, "WHERE")
    _take(toks, pos + 2, "{")
    pos += 3

    patterns = []
    while True:
        if pos >= n:
            raise SparqlError("unterminated WHERE block", pos)
        tok = toks[pos]
        if tok == "}":
            pos += 1
            break
        if tok.upper() in _UNSUPPORTED_KEYWORDS or tok in _UNSUPPORTED_OPS:
            raise SparqlError(f"unsupported {tok!r}", pos)
        s = _term(tok, pos)
        p = _term(_take(toks, pos + 1), pos + 1)
        o = _term(_take(toks, pos + 2), pos + 2)
        _take(toks, pos + 3, ".")
        patterns.append((s, p, o))
        pos += 4
    if pos < n:
        raise SparqlError(f"unexpected {toks[pos]!r} after the WHERE block", pos)
    if not patterns:
        raise SparqlError("empty WHERE block", pos)
    if not any((False, select_var) in pat for pat in patterns):
        raise SparqlError(f"selected variable ?{select_var} not used in any pattern", pos)
    return SparqlAst(select_var, patterns)


def extract_query_graph(ast: SparqlAst, topic: str) -> Chain:
    """The chain of a parsed SPARQL command from the IRI named `topic`:
    `chain_of` its patterns, each IRI a grounded node labelled by its name
    and the selected variable the lambda. QueryGraphError when a predicate
    is a variable, no pattern names the topic or the patterns do not form a
    chain from it.
    """
    if not all(p[0] for _, p, _ in ast.patterns):
        raise QueryGraphError("variable predicates are not supported")
    edges = [(s, p[1], o) for s, p, o in ast.patterns]
    labels = {t: t[1] for s, _, o in ast.patterns for t in (s, o) if t[0]}
    if (True, topic) not in labels:
        raise QueryGraphError(f"no pattern names the topic {topic!r}")
    return chain_of(edges, (True, topic), (False, ast.select_var), labels)


def sparql_chain(text: str, topic: str) -> Chain | None:
    """The chain of a SPARQL command from the IRI named `topic`, or None when
    the command is outside the subset or its patterns do not form a chain
    from that IRI."""
    try:
        return extract_query_graph(parse_sparql(text), topic)
    except (SparqlError, QueryGraphError):
        return None
