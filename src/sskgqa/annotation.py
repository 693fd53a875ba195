"""Datasets of questions and their structure labels."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .kg import not_utf8
from .querygraph import sparql_chain
from .structures import UNSUPPORTED, Taxonomy


class LabelingError(Exception):
    pass


@dataclass
class LabeledQuestion:
    id: str
    question: str
    topic_entity: str
    answers: list[str]
    hops: int | None = None
    sparql: str | None = None


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
    except (json.JSONDecodeError, RecursionError) as exc:
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
