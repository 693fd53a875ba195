"""SPARQL-subset parsing, query-graph extraction and structure annotation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .kg import not_utf8
from .querygraph import Chain, QueryGraphError, chain_of, decode_iri
from .structures import UNSUPPORTED, Taxonomy

_UNSUPPORTED_OPS = ("<=", ">=", "!=", "||", "&&", "<", ">", "=")
_UNSUPPORTED_KEYWORDS = {"FILTER", "OPTIONAL", "UNION", "MINUS", "OR", "EXISTS"}


class SparqlError(Exception):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at token {position})")
        self.position = position


class ExtractionError(Exception):
    pass


class LabelingError(Exception):
    pass


@dataclass
class SparqlAst:
    """The selected variable's name and the (subject, predicate, object)
    patterns, each term the node (is IRI, name): an IRI by its decoded name,
    a ?variable by what follows the `?`."""

    select_var: str
    patterns: list[tuple[tuple[bool, str], tuple[bool, str], tuple[bool, str]]]


@dataclass
class LabeledQuestion:
    id: str
    question: str
    topic_entity: str
    answers: list[str]
    hops: int | None = None
    sparql: str | None = None


_TOKEN_RE = re.compile(r"<=|>=|!=|\|\||&&|[{}().<>=]|[^\s{}().<>=]+")


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
        raise SparqlError(
            f"selected variable ?{select_var} not used in any pattern", pos
        )
    return SparqlAst(select_var, patterns)


def extract_query_graph(ast: SparqlAst, topic: str) -> Chain:
    """The chain of a parsed SPARQL command from the IRI named `topic`:
    `chain_of` its patterns, each IRI a grounded node labelled by its name
    and the selected variable the lambda. ExtractionError when a predicate
    is a variable, no pattern names the topic or the patterns do not form a
    chain from it.
    """
    if not all(p[0] for _, p, _ in ast.patterns):
        raise ExtractionError("variable predicates are not supported")
    edges = [(s, p[1], o) for s, p, o in ast.patterns]
    labels = {t: t[1] for s, _, o in ast.patterns for t in (s, o) if t[0]}
    if (True, topic) not in labels:
        raise ExtractionError(f"no pattern names the topic {topic!r}")
    try:
        return chain_of(edges, (True, topic), (False, ast.select_var), labels)
    except QueryGraphError as exc:
        raise ExtractionError(str(exc)) from exc


def sparql_chain(text: str, topic: str) -> Chain | None:
    """The chain of a SPARQL command from the IRI named `topic`, or None when
    the command is outside the subset or its patterns do not form a chain
    from that IRI."""
    try:
        return extract_query_graph(parse_sparql(text), topic)
    except (SparqlError, ExtractionError):
        return None


def label_question(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """The label of the taxonomy structure with the shape of q: the plain
    chain of q.hops hops when hops are given, else the chain of q's SPARQL
    from its topic entity. UNSUPPORTED when q has neither, its SPARQL has no
    such chain, or no structure has that shape."""
    if q.hops is not None:
        label = taxonomy.find_match((q.hops, ()))
    else:
        c = None if q.sparql is None else sparql_chain(q.sparql, q.topic_entity)
        label = None if c is None else taxonomy.find_match(c.shape)
    return UNSUPPORTED if label is None else label


def coverage(labels: list[str]) -> float | None:
    """Percentage of `labels` that are not UNSUPPORTED; None for no labels."""
    if not labels:
        return None
    return 100.0 * sum(1 for label in labels if label != UNSUPPORTED) / len(labels)


_REQUIRED = ("id", "question", "topic_entity", "answers")
# an optional key may be absent or null; bool is not an integer here
_FIELD_TYPES = (
    ("question", str, "a string"),
    ("topic_entity", str, "a string"),
    ("answers", list, "a list"),
    ("hops", int, "an integer"),
    ("sparql", str, "a string"),
)


def load_dataset(path: str) -> list[LabeledQuestion]:
    """JSON Lines dataset: id, question, topic_entity, answers[], hops?, sparql?.
    LabelingError naming the file and line of a record that is not an object,
    lacks a required key or holds a value of the wrong type, or of the first
    line that is not UTF-8. A leading byte-order mark is skipped."""
    out = []
    with open(path, encoding="utf-8-sig") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if line.strip():
                    out.append(_record(f"{path}:{lineno}", line))
        except UnicodeDecodeError:
            raise LabelingError(not_utf8(path)) from None
    return out


def _record(where: str, line: str) -> LabeledQuestion:
    """The question of one dataset line; errors start with `where`."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LabelingError(f"{where}: bad JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise LabelingError(f"{where}: expected a JSON object")
    missing = [k for k in _REQUIRED if k not in rec]
    if missing:
        raise LabelingError(f"{where}: missing key(s): {', '.join(missing)}")
    for key, typ, name in _FIELD_TYPES:
        value = rec.get(key)
        if type(value) is not typ and (key in _REQUIRED or value is not None):
            raise LabelingError(f"{where}: {key} must be {name}")
    if not all(type(a) is str for a in rec["answers"]):
        raise LabelingError(f"{where}: answers must be a list of strings")
    return LabeledQuestion(
        id=str(rec["id"]),
        question=rec["question"],
        topic_entity=rec["topic_entity"],
        answers=list(rec["answers"]),
        hops=rec.get("hops"),
        sparql=rec.get("sparql"),
    )


def save_dataset(questions: list[LabeledQuestion], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for q in questions:
            rec = {
                "id": q.id,
                "question": q.question,
                "topic_entity": q.topic_entity,
                "answers": q.answers,
            }
            if q.hops is not None:
                rec["hops"] = q.hops
            if q.sparql is not None:
                rec["sparql"] = q.sparql
            f.write(json.dumps(rec) + "\n")
