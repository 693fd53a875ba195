"""Command-line surface: ingest, annotate, training, answering, evaluation
and the ablation grids. All reports are emitted as JSON Lines on stdout."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import annotation as ann
from . import classifier as clf
from . import embeddings as emb
from . import kg as kgmod
from . import pipeline as pl
from . import ranker as rk
from . import structures as st
from . import synth
from .candidates import EnumConfig


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _taxonomy(args) -> st.Taxonomy:
    if args.taxonomy:
        return st.load_taxonomy(args.taxonomy)
    return st.builtin_taxonomy()


def cmd_ingest(args) -> int:
    kg = kgmod.load_kg_file(args.kg)
    _emit(
        {
            "entities": kg.num_entities,
            "relations": kg.num_relations,
            "triples": kg.num_triples,
        }
    )
    return 0


def cmd_annotate(args) -> int:
    tax = _taxonomy(args)
    questions = ann.load_dataset(args.dataset)
    labels = []
    for q in questions:
        labels.append(ann.label_question(q, tax))
        _emit({"id": q.id, "label": labels[-1]})
    _emit({"split": "all", "coverage": ann.coverage(labels)})
    return 0


def cmd_train_embeddings(args) -> int:
    cfg = emb.EmbedTrainConfig(
        d=args.dim,
        epochs=args.epochs,
        lr=args.lr,
        negatives=args.negatives,
        margin=args.margin,
        seed=args.seed,
    )
    kg = kgmod.load_kg_file(args.kg)
    table, history = emb.train(kg, cfg, kind=args.kind)
    emb.save_table(table, args.out)
    _emit(
        {
            "kind": args.kind,
            "entities": kg.num_entities,
            "dim": args.dim,
            "final_loss": history[-1] if history else None,
            "out": args.out,
        }
    )
    return 0


def _embeddings(path: str, kg: kgmod.KnowledgeGraph) -> emb.EmbeddingTable:
    """The table at `path`, refused unless it has a row for every entity and
    every relation of `kg` and no more, and was trained on `kg`'s ids."""
    table = emb.load_table(path)
    have, need = (len(table.ent), len(table.rel)), (kg.num_entities, kg.num_relations)
    if have != need:
        raise emb.EmbeddingError(
            f"{path}: a table of {have[0]} entities and {have[1]} relations, "
            f"but the --kg has {need[0]} and {need[1]}"
        )
    if table.kg != kg.fingerprint():
        raise emb.EmbeddingError(f"{path}: a table of KG {table.kg}, but the --kg is {kg.fingerprint()}")
    return table


def _classifier_dataset(kg, questions, tax):
    dataset = []
    for q in questions:
        label = ann.label_question(q, tax)
        if label == ann.UNSUPPORTED or q.topic_entity not in kg.entities:
            continue
        dataset.append(
            (pl.tokenize_question(q.question), kg.entities.id_of(q.topic_entity), label)
        )
    return dataset


def cmd_train_classifier(args) -> int:
    cfg = clf.ClassifierTrainConfig(
        lr=args.lr, epochs=args.epochs, seed=args.seed, d_model=args.d_model
    )
    kg = kgmod.load_kg_file(args.kg)
    tax = _taxonomy(args)
    table = _embeddings(args.embeddings, kg)
    questions = ann.load_dataset(args.dataset)
    dataset = _classifier_dataset(kg, questions, tax)
    model = clf.train_classifier(dataset, table, tax, cfg)
    clf.save_classifier(model, args.out)
    _emit({"trained_on": len(dataset), "train_accuracy": model.accuracy(dataset), "out": args.out})
    return 0


def _ranker_dataset(questions):
    dataset = []
    for q in questions:
        gold = pl.gold_graph_of(q)
        if gold is not None:
            dataset.append((pl.tokenize_question(q.question), gold))
    return dataset


def _rank_cfg(args, **setting) -> rk.RankTrainConfig:
    """The ranker config of the options `train-ranker` and `ablate` share,
    plus the settings the command picks."""
    return rk.RankTrainConfig(
        margin=args.margin,
        lr=args.lr,
        dropout=args.dropout,
        epochs=args.epochs,
        seed=args.seed,
        **setting,
    )


def cmd_train_ranker(args) -> int:
    cfg = _rank_cfg(args, negatives=args.negatives, heads=args.heads)
    kg = kgmod.load_kg_file(args.kg)
    tax = _taxonomy(args)
    questions = ann.load_dataset(args.dataset)
    dataset = _ranker_dataset(questions)
    model = rk.train_ranker(dataset, kg, tax, cfg)
    rk.save_ranker(model, args.out)
    _emit({"trained_on": model.trained_on, "out": args.out})
    return 0


def _pipeline_config(args, modes=pl.MODES) -> pl.PipelineConfig:
    """The pipeline of an `answer` or `evaluate` call; a bad --max-hops, a
    mode outside `modes` or a missing option is refused before any file is
    read."""
    enum = EnumConfig(max_hops=args.max_hops, attach_constraints=args.constraints)
    if args.mode not in modes:
        raise pl.PipelineError(f"{args.command} takes --mode {' or '.join(modes)}, not {args.mode}")
    if args.mode == "predicted" and not (args.classifier and args.embeddings):
        raise pl.PipelineError("predicted mode needs --classifier and --embeddings")
    kg = kgmod.load_kg_file(args.kg)
    tax = _taxonomy(args)
    ranker = rk.load_ranker(args.ranker)
    classifier = None
    if args.mode == "predicted":
        classifier = clf.load_classifier(args.classifier, _embeddings(args.embeddings, kg), tax)
    return pl.PipelineConfig(
        kg=kg,
        taxonomy=tax,
        ranker=ranker,
        classifier=classifier,
        enum=enum,
        mode=args.mode,
    )


def cmd_answer(args) -> int:
    # a question given on the command line has no SPARQL, so no gold structure
    cfg = _pipeline_config(args, ("predicted", "off"))
    q = ann.LabeledQuestion(
        id="cli", question=args.question, topic_entity=args.topic, answers=[]
    )
    result, record = pl.answer_question(cfg, q)
    if result.status == "unknown_topic":
        raise pl.PipelineError(f"question {q.id}: topic entity not in KG: {q.topic_entity!r}")
    _emit(
        {
            "question": args.question,
            "topic": args.topic,
            "predicted_structure": result.predicted_structure,
            "status": result.status,
            "top1": record.top1,
            "answers": sorted(result.answers),
        }
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _pipeline_config(args)
    questions = ann.load_dataset(args.dataset)
    report = pl.evaluate(cfg, questions)
    for rec in report.records:
        _emit(dataclasses.asdict(rec))
    _emit(
        {
            "hits_at_1": report.hits_at_1,
            "total": report.total,
            "correct": report.correct,
            "unsupported": report.unsupported,
            "unknown_topic": report.unknown_topic,
            "mode": args.mode,
        }
    )
    return 0


NEGATIVE_GRID = (1, 5, 10, 50, 100, 200, 300, 500)
HEAD_GRID = (1, 3, 6)


def cmd_ablate(args) -> int:
    if args.grid == "negatives":
        settings = [("negatives", n) for n in NEGATIVE_GRID]
    else:
        settings = [("heads", h) for h in HEAD_GRID]
    grid = [(name, value, _rank_cfg(args, **{name: value})) for name, value in settings]
    enum = EnumConfig(max_hops=args.max_hops)
    kg = kgmod.load_kg_file(args.kg)
    tax = _taxonomy(args)
    questions = ann.load_dataset(args.dataset)
    dataset = _ranker_dataset(questions)
    for name, value, rank_cfg in grid:
        model = rk.train_ranker(dataset, kg, tax, rank_cfg)
        cfg = pl.PipelineConfig(kg=kg, taxonomy=tax, ranker=model, mode="oracle", enum=enum)
        report = pl.evaluate(cfg, questions)
        _emit({name: value, "hits_at_1": report.hits_at_1})
    return 0


def cmd_make_toy(args) -> int:
    if args.benchmark == "ranker":
        kg, questions = synth.ranker_fixture()
    elif args.benchmark == "three-hop":
        kg, questions = synth.three_hop_benchmark(args.questions, seed=args.seed)
    else:
        kg = synth.norshteyn_kg()
        questions = synth.norshteyn_questions() + [synth.norshteyn_test_question()]
    os.makedirs(args.out, exist_ok=True)
    kg_path = os.path.join(args.out, "kg.tsv")
    with open(kg_path, "w", encoding="utf-8") as f:
        f.write("# toy knowledge graph\n")
        kgmod.write_triples(kg, f)
    data_path = os.path.join(args.out, "questions.jsonl")
    ann.save_dataset(questions, data_path)
    _emit({"kg": kg_path, "dataset": data_path, "questions": len(questions)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sskgqa", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="load and intern a TSV knowledge graph")
    sp.add_argument("--kg", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("annotate", help="label questions with semantic structures")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--taxonomy")
    sp.set_defaults(func=cmd_annotate)

    sp = sub.add_parser("train-embeddings", help="train entity/relation embeddings")
    sp.add_argument("--kg", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--kind", choices=emb.KINDS, default="transe")
    sp.add_argument("--dim", type=int, default=emb.EmbedTrainConfig.d)
    sp.add_argument("--epochs", type=int, default=emb.EmbedTrainConfig.epochs)
    sp.add_argument("--lr", type=float, default=emb.EmbedTrainConfig.lr)
    sp.add_argument("--negatives", type=int, default=emb.EmbedTrainConfig.negatives)
    sp.add_argument("--margin", type=float, default=emb.EmbedTrainConfig.margin)
    sp.add_argument("--seed", type=int, default=emb.EmbedTrainConfig.seed)
    sp.set_defaults(func=cmd_train_embeddings)

    sp = sub.add_parser("train-classifier", help="train the structure classifier")
    sp.add_argument("--kg", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--taxonomy")
    sp.add_argument("--epochs", type=int, default=clf.ClassifierTrainConfig.epochs)
    sp.add_argument("--lr", type=float, default=clf.ClassifierTrainConfig.lr)
    sp.add_argument("--d-model", type=int, default=clf.ClassifierTrainConfig.d_model)
    sp.add_argument("--seed", type=int, default=clf.ClassifierTrainConfig.seed)
    sp.set_defaults(func=cmd_train_classifier)

    def ranker_args(sp):
        """The ranker flags `train-ranker` and `ablate` share."""
        sp.add_argument("--margin", type=float, default=rk.RankTrainConfig.margin)
        sp.add_argument("--lr", type=float, default=rk.RankTrainConfig.lr)
        sp.add_argument("--dropout", type=float, default=rk.RankTrainConfig.dropout)
        sp.add_argument("--epochs", type=int, default=rk.RankTrainConfig.epochs)
        sp.add_argument("--seed", type=int, default=rk.RankTrainConfig.seed)

    sp = sub.add_parser("train-ranker", help="train the query graph ranker")
    sp.add_argument("--kg", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--taxonomy")
    sp.add_argument("--negatives", type=int, default=rk.RankTrainConfig.negatives)
    sp.add_argument("--heads", type=int, default=rk.RankTrainConfig.heads)
    ranker_args(sp)
    sp.set_defaults(func=cmd_train_ranker)

    def eval_args(sp):
        sp.add_argument("--kg", required=True)
        sp.add_argument("--ranker", required=True)
        sp.add_argument("--classifier")
        sp.add_argument("--embeddings")
        sp.add_argument("--taxonomy")
        sp.add_argument("--mode", choices=pl.MODES, default="predicted")
        sp.add_argument("--max-hops", type=int, default=EnumConfig.max_hops)
        sp.add_argument("--constraints", action="store_true")

    sp = sub.add_parser("answer", help="answer a single question")
    sp.add_argument("--question", required=True)
    sp.add_argument("--topic", required=True)
    eval_args(sp)
    sp.set_defaults(func=cmd_answer)

    sp = sub.add_parser("evaluate", help="hits@1 evaluation over a dataset")
    sp.add_argument("--dataset", required=True)
    eval_args(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("ablate", help="negatives/heads ablation grids")
    sp.add_argument("--kg", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--taxonomy")
    sp.add_argument("--max-hops", type=int, default=EnumConfig.max_hops)
    grid = sp.add_mutually_exclusive_group(required=True)
    grid.add_argument("--negatives", dest="grid", action="store_const", const="negatives")
    grid.add_argument("--heads", dest="grid", action="store_const", const="heads")
    ranker_args(sp)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("make-toy", help="materialize a bundled toy benchmark")
    sp.add_argument("--out", required=True)
    sp.add_argument(
        "--benchmark", choices=("norshteyn", "ranker", "three-hop"), default="norshteyn"
    )
    sp.add_argument("--questions", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_make_toy)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        kgmod.KgError,
        ann.LabelingError,
        st.StructureError,
        emb.EmbeddingError,
        clf.ClassifierError,
        rk.RankerError,
        pl.PipelineError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
