"""End-to-end flow: classify structure, enumerate its chains, rank, execute."""

from __future__ import annotations

from dataclasses import dataclass, field

from .annotation import UNSUPPORTED, LabeledQuestion, label_question
from .candidates import EnumConfig, derived_enum, enumerate_candidates
from .classifier import ClassifierModel
from .kg import KnowledgeGraph
from .querygraph import CLS, SEP, Chain, canonicalize, execute, sparql_chain, split_symbol
from .ranker import rank_candidates
from .structures import Taxonomy

MODES = ("predicted", "oracle", "off")


class PipelineError(Exception):
    pass


def tokenize_question(text: str) -> list[str]:
    """Question word sequence wrapped in the boundary tokens."""
    return [CLS] + split_symbol(text) + [SEP]


def gold_graph_of(q: LabeledQuestion) -> Chain | None:
    """The question's gold chain, read off its SPARQL from its topic entity;
    None when it has none or its SPARQL is not a chain from that entity."""
    return None if q.sparql is None else sparql_chain(q.sparql, q.topic_entity)


@dataclass
class PipelineConfig:
    kg: KnowledgeGraph
    taxonomy: Taxonomy
    ranker: object  # anything with score_all(question_tokens, chains)
    classifier: ClassifierModel | None = None
    enum: EnumConfig = field(default_factory=EnumConfig)
    mode: str = "predicted"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PipelineError(f"unknown filtering mode: {self.mode}")
        if self.mode == "predicted" and self.classifier is None:
            raise PipelineError("predicted mode requires a classifier")


@dataclass
class AnswerResult:
    answers: set[str]
    predicted_structure: str | None
    status: str  # "ok" | "unsupported" | "unknown_topic"


@dataclass
class QuestionRecord:
    id: str
    status: str
    predicted_structure: str | None
    gold_structure: str | None
    structure_correct: bool | None
    top1: str | None  # canonical key of the ranked top-1 chain
    answers: list[str]
    correct: bool


@dataclass
class EvalReport:
    hits_at_1: float
    total: int
    correct: int
    unsupported: int
    unknown_topic: int
    records: list[QuestionRecord]


def answer_question(
    cfg: PipelineConfig, q: LabeledQuestion
) -> tuple[AnswerResult, QuestionRecord]:
    """q's answer and record; a topic entity the KG lacks gets "unknown_topic"."""
    kg = cfg.kg
    gold_label = label_question(q, cfg.taxonomy)
    if q.topic_entity not in kg.entities:
        result = AnswerResult(set(), None, "unknown_topic")
        return result, _record(q, result, gold_label, None)
    topic_id = kg.entities.id_of(q.topic_entity)
    tokens = tokenize_question(q.question)

    predicted = None
    shape = None
    if cfg.mode == "predicted":
        predicted = cfg.classifier.predict(tokens, topic_id)
        shape = cfg.taxonomy.get(predicted).shape
    elif cfg.mode == "oracle":
        if gold_label == UNSUPPORTED:
            result = AnswerResult(set(), None, "unsupported")
            return result, _record(q, result, gold_label, None)
        shape = cfg.taxonomy.get(gold_label).shape

    cands = enumerate_candidates(kg, q.topic_entity, cfg.enum, shape).graphs
    if not cands and shape is not None:  # no chain has the shape: rank every chain up to its hop count
        cands = enumerate_candidates(kg, q.topic_entity, derived_enum(cfg.enum, shape)).graphs

    ranked = rank_candidates(cfg.ranker, tokens, cands)
    best = ranked[0]
    answers = {kg.entities.symbol_of(a) for a in execute(best, kg)}
    result = AnswerResult(answers, predicted, "ok")
    return result, _record(q, result, gold_label, canonicalize(best))


def _record(q, result, gold_label, top1_key) -> QuestionRecord:
    gold = gold_label if gold_label != UNSUPPORTED else None
    return QuestionRecord(
        id=q.id,
        status=result.status,
        predicted_structure=result.predicted_structure,
        gold_structure=gold,
        structure_correct=(
            None
            if result.predicted_structure is None or gold is None
            else result.predicted_structure == gold
        ),
        top1=top1_key,
        answers=sorted(result.answers),
        correct=bool(result.answers & set(q.answers)),
    )


def evaluate(cfg: PipelineConfig, dataset: list[LabeledQuestion]) -> EvalReport:
    """Hits@1 over the dataset's `answer_question` records; a question is correct
    iff its executed answer set intersects the gold answers, so an unknown topic's is wrong."""
    if not dataset:
        raise PipelineError("dataset must be non-empty")
    records = [answer_question(cfg, q)[1] for q in dataset]
    correct = sum(1 for r in records if r.correct)
    return EvalReport(
        hits_at_1=100.0 * correct / len(records),
        total=len(records),
        correct=correct,
        unsupported=sum(1 for r in records if r.status == "unsupported"),
        unknown_topic=sum(1 for r in records if r.status == "unknown_topic"),
        records=records,
    )
