"""SPARQL-subset parsing, query-graph extraction and structure annotation."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .querygraph import Chain, QueryGraphError, bfs_depths, chain_of, decode_iri
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


def extract_query_graph(ast: SparqlAst) -> Chain:
    """The chain of a parsed SPARQL command: `chain_of` its patterns, with
    the Iri and Var terms as nodes, each Iri a grounded node labelled by its
    name and the selected variable the lambda. The topic is, among the Iris
    that reach the lambda through variables only, the one farthest from it;
    among ties, one that is the subject of some pattern, then the first to
    appear. ExtractionError when the patterns do not form a chain.
    """
    if any(isinstance(p, Var) for _, p, _ in ast.patterns):
        raise ExtractionError("variable predicates are not supported")
    edges = [(s, p.name, o) for s, p, o in ast.patterns]
    nodes = list(dict.fromkeys(t for s, _, o in edges for t in (s, o)))
    grounded = [t for t in nodes if isinstance(t, Iri)]
    if not grounded:
        raise ExtractionError("no grounded entity in query")
    lam = Var(ast.select_var)
    dist = bfs_depths([(s, o) for s, _, o in edges], lam)
    if dist.keys() != set(nodes):
        raise ExtractionError("pattern graph is disconnected")
    # the topic reaches lambda through variables only; a constraint value
    # hangs off a variable and may lie farther from lambda than the topic
    via_vars = bfs_depths([(s, o) for s, _, o in edges if isinstance(s, Var) and isinstance(o, Var)], lam)
    reach = {s for s, _, o in edges if o in via_vars} | {o for s, _, o in edges if s in via_vars}
    subjects = {s for s, _, _ in edges}
    topic = max((t for t in grounded if t in reach), key=lambda t: (dist[t], t in subjects))
    try:
        return chain_of(edges, topic, lam, {t: t.name for t in grounded})
    except QueryGraphError as exc:
        raise ExtractionError(str(exc)) from exc


def sparql_chain(text: str) -> Chain | None:
    """The chain of a SPARQL command, or None when it is outside the subset
    or its patterns do not form a chain."""
    try:
        return extract_query_graph(parse_sparql(text))
    except (SparqlError, ExtractionError):
        return None


def label_metaqa(q: LabeledQuestion) -> str:
    """Hop-count labeling: 1 -> SS1, 2 -> SS2, 3 -> SS3."""
    if q.hops not in (1, 2, 3):
        raise LabelingError(f"question {q.id}: hop count must be 1, 2 or 3")
    return f"SS{q.hops}"


def label_wsp(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """Structure label of the chain of q's SPARQL; UNSUPPORTED when it has
    no chain or no taxonomy structure has its shape."""
    if q.sparql is None:
        raise LabelingError(f"question {q.id}: no sparql command")
    c = sparql_chain(q.sparql)
    label = None if c is None else taxonomy.find_match(c)
    return label if label is not None else UNSUPPORTED


def label_question(q: LabeledQuestion, taxonomy: Taxonomy) -> str:
    """Hop-based labeling when hops are present, else SPARQL-based."""
    if q.hops is not None:
        try:
            return label_metaqa(q)
        except LabelingError:
            return UNSUPPORTED
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
    lacks a required key or holds a value of the wrong type."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LabelingError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise LabelingError(f"{path}:{lineno}: expected a JSON object")
            missing = [k for k in _REQUIRED if k not in rec]
            if missing:
                raise LabelingError(f"{path}:{lineno}: missing key(s): {', '.join(missing)}")
            for key, typ, name in _FIELD_TYPES:
                value = rec.get(key)
                if type(value) is not typ and (key in _REQUIRED or value is not None):
                    raise LabelingError(f"{path}:{lineno}: {key} must be {name}")
            out.append(
                LabeledQuestion(
                    id=str(rec["id"]),
                    question=rec["question"],
                    topic_entity=rec["topic_entity"],
                    answers=list(rec["answers"]),
                    hops=rec.get("hops"),
                    sparql=rec.get("sparql"),
                )
            )
    return out


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
