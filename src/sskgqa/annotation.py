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


@dataclass(frozen=True)
class Iri:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


Term = Iri | Var


@dataclass
class SparqlAst:
    select_var: str
    patterns: list[tuple[Term, Term, Term]]


@dataclass
class LabeledQuestion:
    id: str
    question: str
    topic_entity: str
    answers: list[str]
    hops: int | None = None
    sparql: str | None = None


_TOKEN_RE = re.compile(r"<=|>=|!=|\|\||&&|[{}().<>=]|[^\s{}().<>=]+")


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def parse_sparql(text: str) -> SparqlAst:
    """Parse the supported subset: SELECT of one variable over triple
    patterns. SparqlError at the first FILTER-style keyword or comparison
    operator where a pattern would start, and at the first token after the
    `}` that closes WHERE (a solution modifier such as ORDER BY or LIMIT)."""
    toks = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise SparqlError(f"unexpected end of input (wanted {expected})", pos)
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

    def term(tok: str, at: int) -> Term:
        if tok.startswith("?"):
            if len(tok) < 2:
                raise SparqlError("empty variable name", at)
            return Var(tok[1:])
        name = tok.split(":", 1)[1] if ":" in tok else tok
        if not name:
            raise SparqlError(f"empty iri name in {tok!r}", at)
        return Iri(decode_iri(name))

    patterns: list[tuple[Term, Term, Term]] = []
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
        raise SparqlError(
            f"selected variable ?{select_var} not used in any pattern", pos
        )
    return SparqlAst(select_var, patterns)


def extract_query_graph(ast: SparqlAst, topic: str) -> Chain:
    """The chain of a parsed SPARQL command from the Iri named `topic`:
    `chain_of` its patterns, with the Iri and Var terms as nodes, each Iri a
    grounded node labelled by its name and the selected variable the lambda.
    ExtractionError when no pattern names the topic or the patterns do not
    form a chain from it.
    """
    if any(isinstance(p, Var) for _, p, _ in ast.patterns):
        raise ExtractionError("variable predicates are not supported")
    edges = [(s, p.name, o) for s, p, o in ast.patterns]
    labels = {t: t.name for s, _, o in edges for t in (s, o) if isinstance(t, Iri)}
    if Iri(topic) not in labels:
        raise ExtractionError(f"no pattern names the topic {topic!r}")
    try:
        return chain_of(edges, Iri(topic), Var(ast.select_var), labels)
    except QueryGraphError as exc:
        raise ExtractionError(str(exc)) from exc


def sparql_chain(text: str, topic: str) -> Chain | None:
    """The chain of a SPARQL command from the Iri named `topic`, or None when
    the command is outside the subset or its patterns do not form a chain
    from that Iri."""
    try:
        return extract_query_graph(parse_sparql(text), topic)
    except (SparqlError, ExtractionError):
        return None


def label_metaqa(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """Hop-count labeling: the label of the plain chain of q.hops hops, or
    UNSUPPORTED when no taxonomy structure has that shape."""
    label = taxonomy.find_match((q.hops, ()))
    return label if label is not None else UNSUPPORTED


def label_wsp(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """Structure label of the chain of q's SPARQL from q's topic entity;
    UNSUPPORTED when it has no such chain or no taxonomy structure has its
    shape."""
    if q.sparql is None:
        raise LabelingError(f"question {q.id}: no sparql command")
    c = sparql_chain(q.sparql, q.topic_entity)
    label = None if c is None else taxonomy.find_match(c.shape)
    return label if label is not None else UNSUPPORTED


def label_question(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """Hop-based labeling when hops are present, else SPARQL-based."""
    if q.hops is not None:
        return label_metaqa(q, taxonomy)
    if q.sparql is not None:
        return label_wsp(q, taxonomy)
    return UNSUPPORTED


def coverage_report(
    splits: dict[str, list[LabeledQuestion]], taxonomy: Taxonomy
) -> dict[str, float | None]:
    """Percentage of labelable questions per split; empty splits report None."""
    report: dict[str, float | None] = {}
    for name, questions in splits.items():
        if not questions:
            report[name] = None
            continue
        labeled = sum(
            1 for q in questions if label_question(q, taxonomy) != UNSUPPORTED
        )
        report[name] = 100.0 * labeled / len(questions)
    return report


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
