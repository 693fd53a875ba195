import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sskgqa
from fixtures import HEADER_NUMBERS, header_numbers, mutations, set_number, taxonomy_entries
from sskgqa import candidates, cli, classifier, embeddings, ranker
from sskgqa.kg import load_kg_file

# the directory holding the package under test, so the subprocess runs it
# whether or not the package is installed
SRC = str(Path(sskgqa.__file__).resolve().parents[1])


def run_cli(*args, expect_fail=False, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sskgqa.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if expect_fail:
        assert proc.returncode != 0, proc.stdout + proc.stderr
    else:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def json_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    run_cli("make-toy", "--out", str(out), "--benchmark", "ranker")
    return out


def test_make_toy_outputs(toy):
    assert (toy / "kg.tsv").exists()
    assert (toy / "questions.jsonl").exists()


def test_seed_flag_sets_the_toy(tmp_path):
    files = {}
    for name, seed in [("flag", ["--seed", "3"]), ("plain", [])]:
        out = tmp_path / name
        run_cli("make-toy", "--out", str(out), "--benchmark", "three-hop", "--questions", "5", *seed)
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files["flag"] != files["plain"]


def test_toy_seed_does_not_follow_the_embedding_seed(monkeypatch):
    # a new default seed for the embedding trainer must not rewrite the toys
    monkeypatch.setattr(embeddings.EmbedTrainConfig, "seed", 7)
    args = cli.build_parser().parse_args(["make-toy", "--out", "toy"])
    assert args.seed == 0


@pytest.mark.parametrize("count", ["0", "-3"], ids=["zero", "negative"])
def test_three_hop_toy_of_fewer_than_one_question_is_one_error_line(tmp_path, count):
    # the toy would be an empty KG that train-embeddings then refuses
    out = tmp_path / "toy"
    proc = run_cli("make-toy", "--out", str(out), "--benchmark", "three-hop", "--questions", count, expect_fail=True)
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: needs at least 1 question, got {count}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["train-embeddings", "--kg", "kg.tsv", "--out", "emb.ckpt"], [embeddings.EmbedTrainConfig()]),
        (["train-classifier", "--kg", "kg.tsv", "--dataset", "q.jsonl", "--embeddings", "emb.ckpt",
          "--out", "clf.ckpt"], [classifier.ClassifierTrainConfig()]),
        (["train-ranker", "--kg", "kg.tsv", "--dataset", "q.jsonl", "--out", "rank.ckpt"],
         [ranker.RankTrainConfig()]),
        (["ablate", "--negatives", "--kg", "kg.tsv", "--dataset", "q.jsonl"],
         [ranker.RankTrainConfig(negatives=n) for n in cli.NEGATIVE_GRID] + [candidates.EnumConfig()]),
        (["ablate", "--heads", "--kg", "kg.tsv", "--dataset", "q.jsonl"],
         [ranker.RankTrainConfig(heads=h) for h in cli.HEAD_GRID] + [candidates.EnumConfig()]),
    ],
    ids=["train_embeddings", "train_classifier", "train_ranker", "ablate_negatives", "ablate_heads"],
)
def test_cli_defaults_are_the_config_defaults(tmp_path, monkeypatch, argv, expected):
    # with only the required flags, each command builds the bare configs; the
    # input files do not exist, so the command stops at its first read
    args = cli.build_parser().parse_args(argv)
    built = []

    def record(cls):
        def make(**settings):
            built.append(cls(**settings))
            return built[-1]

        return make

    for module, name in [(embeddings, "EmbedTrainConfig"), (classifier, "ClassifierTrainConfig"),
                         (ranker, "RankTrainConfig"), (cli, "EnumConfig")]:
        monkeypatch.setattr(module, name, record(getattr(module, name)))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        args.func(args)
    assert built == expected


def test_ingest(toy):
    recs = json_lines(run_cli("ingest", "--kg", str(toy / "kg.tsv")))
    assert recs[-1]["entities"] == 20
    assert recs[-1]["triples"] == 25


def test_ingest_missing_file():
    proc = run_cli("ingest", "--kg", "/nonexistent/kg.tsv", expect_fail=True)
    assert_one_error_line(proc)


def test_annotate(toy):
    recs = json_lines(run_cli("annotate", "--dataset", str(toy / "questions.jsonl")))
    labels = [r["label"] for r in recs if "label" in r]
    assert labels == ["SS1"] * 5
    coverage = [r for r in recs if "coverage" in r]
    assert coverage and coverage[0]["coverage"] == 100.0


@pytest.mark.parametrize("records", [0, 1, 6])
def test_annotate_labels_each_record_once(toy, tmp_path, monkeypatch, records):
    # the toy's records, then one with neither hops nor SPARQL (Unsupported):
    # one label_question call per record, and the coverage line is that of
    # the labels printed
    lines = (toy / "questions.jsonl").read_text().splitlines()[:5]
    lines.append(json.dumps({"id": "u", "question": "?", "topic_entity": "x", "answers": []}))
    data = tmp_path / "q.jsonl"
    data.write_text("".join(line + "\n" for line in lines[:records]))
    calls, label_question = [], sskgqa.annotation.label_question

    def counted(q, tax):
        calls.append(q.id)
        return label_question(q, tax)

    monkeypatch.setattr(sskgqa.annotation, "label_question", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["annotate", "--dataset", str(data)]) == 0
    recs = [json.loads(line) for line in out.getvalue().splitlines()]
    labels = [r["label"] for r in recs[:-1]]
    assert calls == [r["id"] for r in recs[:-1]] and len(calls) == records
    expected = 100.0 * sum(label != "Unsupported" for label in labels) / records if records else None
    assert recs[-1] == {"split": "all", "coverage": expected}


@pytest.fixture(scope="module")
def trained(toy, tmp_path_factory):
    work = tmp_path_factory.mktemp("ckpt")
    emb = str(work / "emb.ckpt")
    clf = str(work / "clf.ckpt")
    rank = str(work / "rank.ckpt")
    run_cli(
        "train-embeddings", "--kg", str(toy / "kg.tsv"), "--out", emb,
        "--dim", "16", "--epochs", "20",
    )
    run_cli(
        "train-classifier", "--kg", str(toy / "kg.tsv"),
        "--dataset", str(toy / "questions.jsonl"),
        "--embeddings", emb, "--out", clf, "--epochs", "40",
    )
    run_cli(
        "train-ranker", "--kg", str(toy / "kg.tsv"),
        "--dataset", str(toy / "questions.jsonl"),
        "--out", rank, "--epochs", "20",
    )
    return {"emb": emb, "clf": clf, "rank": rank}


def test_train_commands_emit_summaries(toy, trained):
    recs = json_lines(
        run_cli(
            "train-embeddings", "--kg", str(toy / "kg.tsv"),
            "--out", trained["emb"] + ".again", "--dim", "8", "--epochs", "3",
        )
    )
    assert recs[-1]["kind"] == "transe"
    assert "final_loss" in recs[-1]


def test_evaluate_predicted_mode(toy, trained):
    recs = json_lines(
        run_cli(
            "evaluate", "--dataset", str(toy / "questions.jsonl"),
            "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
            "--classifier", trained["clf"], "--embeddings", trained["emb"],
            "--mode", "predicted",
        )
    )
    summary = recs[-1]
    assert summary["total"] == 5
    assert summary["hits_at_1"] == 100.0


def test_evaluate_oracle_and_off(toy, trained):
    for mode in ("oracle", "off"):
        recs = json_lines(
            run_cli(
                "evaluate", "--dataset", str(toy / "questions.jsonl"),
                "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
                "--mode", mode,
            )
        )
        assert recs[-1]["mode"] == mode
        assert 0.0 <= recs[-1]["hits_at_1"] <= 100.0


def test_answer_single_question(toy, trained):
    recs = json_lines(
        run_cli(
            "answer", "--question", "what color is thing0", "--topic", "thing0",
            "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
            "--mode", "off",
        )
    )
    assert recs[-1]["status"] == "ok"
    assert recs[-1]["answers"]


def test_answer_refuses_a_topic_the_kg_lacks(toy, trained):
    proc = run_cli(
        "answer", "--question", "what color is nobody", "--topic", "nobody",
        "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
        "--mode", "off",
        expect_fail=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: question cli: topic entity not in KG: 'nobody'\n"


def test_predicted_mode_requires_classifier(toy, trained):
    run_cli(
        "evaluate", "--dataset", str(toy / "questions.jsonl"),
        "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
        "--mode", "predicted",
        expect_fail=True,
    )


def test_ablate_heads_grid(toy):
    recs = json_lines(
        run_cli(
            "ablate", "--heads", "--dataset", str(toy / "questions.jsonl"),
            "--kg", str(toy / "kg.tsv"), "--epochs", "2", "--max-hops", "1",
        )
    )
    rows = [r for r in recs if "heads" in r]
    assert [r["heads"] for r in rows] == [1, 3, 6]
    for r in rows:
        assert "hits_at_1" in r


def test_ablate_requires_grid_choice(toy):
    run_cli(
        "ablate", "--dataset", str(toy / "questions.jsonl"),
        "--kg", str(toy / "kg.tsv"),
        expect_fail=True,
    )


def test_evaluate_records_unknown_topic(toy, trained, tmp_path):
    data = tmp_path / "questions.jsonl"
    stray = {"id": "stray", "question": "who is nobody", "topic_entity": "nobody", "answers": []}
    data.write_text((toy / "questions.jsonl").read_text() + json.dumps(stray) + "\n")
    recs = json_lines(
        run_cli(
            "evaluate", "--dataset", str(data), "--kg", str(toy / "kg.tsv"),
            "--ranker", trained["rank"], "--mode", "off",
        )
    )
    assert [r["status"] for r in recs if r.get("id") == "stray"] == ["unknown_topic"]
    assert recs[-1]["total"] == 6
    assert recs[-1]["unknown_topic"] == 1


def test_relabelled_taxonomy_labels_by_shape(tmp_path):
    # the built-in structures under other labels: hop labelling and oracle
    # filtering go by shape, so only the labels change
    from sskgqa.structures import builtin_taxonomy

    toy = tmp_path / "toy"
    run_cli("make-toy", "--out", str(toy), "--benchmark", "three-hop", "--questions", "12")
    data, kg = str(toy / "questions.jsonl"), str(toy / "kg.tsv")
    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps(taxonomy_entries(builtin_taxonomy())).replace('"SS', '"H'))
    rank = str(tmp_path / "rank.ckpt")
    run_cli("train-ranker", "--kg", kg, "--dataset", data, "--out", rank, "--epochs", "2")
    out = {}
    for name, extra in (("builtin", []), ("relabelled", ["--taxonomy", str(tax)])):
        labels = json_lines(run_cli("annotate", "--dataset", data, *extra))
        recs = json_lines(
            run_cli("evaluate", "--dataset", data, "--kg", kg, "--ranker", rank, "--mode", "oracle", *extra)
        )
        out[name] = ([r.get("label") for r in labels], recs)
    builtin, relabelled = out["builtin"], out["relabelled"]
    assert builtin[0] == ["SS3"] * 12 + [None] and relabelled[0] == ["H3"] * 12 + [None]
    assert [r["top1"] for r in builtin[1][:-1]] == [r["top1"] for r in relabelled[1][:-1]]
    assert {r["gold_structure"] for r in relabelled[1][:-1]} == {"H3"}
    assert builtin[1][-1]["hits_at_1"] == relabelled[1][-1]["hits_at_1"] == 100.0


def _cut(data: bytes, case: str) -> bytes:
    """A checkpoint damaged in one header part or in its payload."""

    def after(tag: bytes) -> int:  # offset just past the line starting with tag
        return data.index(b"\n", data.index(b"\n" + tag) + 1) + 1

    if case == "dims":
        return data[: data.index(b"\ndims ") + 6]
    if case in ("vocab", "labels"):
        return data[: after(case.encode() + b" ") + 3]
    if case == "payload":
        return data[: after(b"floats ") + 40]
    if case == "odd":
        return data + b"\0"
    if case in ("nan", "inf"):  # the payload ends the file
        return data[:-8] + np.full(2, float(case), dtype="<f4").tobytes()
    if case == "rotate":  # a RotatE table, a kind earlier builds trained
        return data.replace(b"\nkind transe\n", b"\nkind rotate\n", 1)
    # "count": header and payload agree on one float fewer than the model needs
    start = data.index(b"\nfloats ") + 8
    end = data.index(b"\n", start)
    return data[:start] + str(int(data[start:end]) - 1).encode() + data[end:-4]


@pytest.mark.parametrize(
    "model,case",
    [("rank", c) for c in ("dims", "vocab", "payload", "odd", "count", "nan", "inf")]
    + [("clf", c) for c in ("dims", "vocab", "labels", "payload", "odd", "count", "nan", "inf")]
    + [("emb", c) for c in ("nan", "inf", "rotate")],
)
def test_damaged_checkpoint_is_one_error_line(toy, trained, tmp_path, model, case):
    bad = tmp_path / f"{model}.ckpt"
    with open(trained[model], "rb") as f:
        bad.write_bytes(_cut(f.read(), case))
    ckpts = dict(trained, **{model: str(bad)})
    proc = run_cli(
        "answer", "--question", "what color is thing0", "--topic", "thing0",
        "--kg", str(toy / "kg.tsv"), "--ranker", ckpts["rank"],
        "--classifier", ckpts["clf"], "--embeddings", ckpts["emb"],
        "--mode", "off" if model == "rank" else "predicted",
        expect_fail=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_diverging_embedding_training_is_one_error_line_and_no_file(toy, tmp_path):
    # at lr 1e300 the first step takes the entity norms past float64's
    # range, and training stops there, with no numpy warning
    out = tmp_path / "emb.ckpt"
    proc = run_cli(
        "train-embeddings", "--kg", str(toy / "kg.tsv"), "--out", str(out),
        "--lr", "1e300", "--dim", "8", "--epochs", "5", expect_fail=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: training diverged: an entity norm of epoch 1 is not finite"]
    assert not out.exists()


def test_train_embeddings_kind_rotate_is_a_usage_error(toy, tmp_path):
    # --kind follows embeddings.KINDS, which no longer holds RotatE
    out = tmp_path / "emb.ckpt"
    proc = run_cli(
        "train-embeddings", "--kg", str(toy / "kg.tsv"), "--out", str(out), "--kind", "rotate",
        expect_fail=True,
    )
    assert proc.returncode == 2
    assert "[--kind {transe,complex}]" in proc.stderr
    assert "argument --kind: invalid choice: 'rotate'" in proc.stderr
    assert not out.exists()


FOUR_HOPS = {"kinds": ["E", "v", "v", "v", "a"], "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}


@pytest.mark.parametrize(
    "entry, error",
    [
        ({"label": "X", "kinds": ["E", "Ec", "a"], "edges": [[0, 1], [1, 2]]}, "error: {tax}: entry 6 (X): "),
        ({"label": "X", "kinds": ["E", "v", "v", "a"], "edges": [[0, 1], [0, 2], [1, 3]]},
         "error: {tax}: entry 6 (X): "),
        ({"label": "X", "kinds": ["a", "E"], "edges": [[1, 0]]}, "error: X:"),
        ({"label": 5, **FOUR_HOPS}, "error: {tax}: entry 6 (5): "),
        ({"label": "X\nY", **FOUR_HOPS}, "error: {tax}: entry 6 ('X\\nY'): "),
        ({"label": "Unsupported", **FOUR_HOPS}, "error: Unsupported: reserved"),
        ({"label": "TC", "kinds": ["E", "a", "Ec"], "edges": [[0, 1], [0, 2]]},
         "error: TC: candidate enumeration emits no chain of shape (1, (0,))"),
        ({"label": "C2", "kinds": ["E", "a", "Ec", "Ec"], "edges": [[0, 1], [1, 2], [1, 3]]},
         "error: C2: candidate enumeration emits no chain of shape (1, (1, 1))"),
        ({"label": "H4", **FOUR_HOPS}, "error: H4: candidate enumeration emits no chain of shape (4, ())"),
    ],
    ids=["through_constraint", "branch", "duplicate_shape", "int_label", "newline_label",
         "unsupported_label", "topic_constraint", "second_constraint", "four_hops"],
)
def test_bad_taxonomy_is_one_error_line(toy, trained, tmp_path, entry, error):
    # the built-in structures plus one that is not a chain (its answer meets
    # the topic only through a constraint node, or its path branches), that
    # has the shape of SS1, whose label is not a string or holds a line
    # break (a checkpoint stores one label per line), whose label is the
    # one a question no structure matches gets, or whose shape candidate
    # enumeration never emits (a constraint on the topic, a second
    # constraint, four hops); no toy question has these structures
    from sskgqa.structures import builtin_taxonomy

    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps(taxonomy_entries(builtin_taxonomy()) + [entry]))
    out = tmp_path / "clf.ckpt"
    for args in (
        ["annotate", "--dataset", str(toy / "questions.jsonl")],
        ["evaluate", "--dataset", str(toy / "questions.jsonl"), "--kg", str(toy / "kg.tsv"),
         "--ranker", trained["rank"], "--mode", "oracle"],
        ["train-classifier", "--dataset", str(toy / "questions.jsonl"), "--kg", str(toy / "kg.tsv"),
         "--embeddings", trained["emb"], "--out", str(out), "--epochs", "1"],
    ):
        proc = run_cli(*args, "--taxonomy", str(tax), expect_fail=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error.format(tax=tax)), proc.stderr
    assert not out.exists()


def test_train_ranker_skips_unknown_topic(toy, tmp_path):
    data = tmp_path / "questions.jsonl"
    stray = {"id": "stray", "question": "what does zz r", "topic_entity": "zz",
             "answers": [], "sparql": "SELECT ?x WHERE { :zz :r ?x . }"}
    data.write_text((toy / "questions.jsonl").read_text() + json.dumps(stray) + "\n")
    out = tmp_path / "rank.ckpt"
    proc = run_cli(
        "train-ranker", "--kg", str(toy / "kg.tsv"), "--dataset", str(data),
        "--out", str(out), "--epochs", "1",
    )
    assert out.exists()
    assert json_lines(proc)[0]["trained_on"] == 5  # the five toy questions, not the stray


def test_train_ranker_leaves_non_chain_gold_out_of_trained_on(toy, tmp_path):
    data = tmp_path / "questions.jsonl"
    branch = {"id": "branch", "question": "what color is thing0", "topic_entity": "thing0",
              "answers": [], "sparql": "SELECT ?x WHERE { :thing0 :color ?x . ?x :s ?y . }"}
    data.write_text((toy / "questions.jsonl").read_text() + json.dumps(branch) + "\n")
    labels = json_lines(run_cli("annotate", "--dataset", str(data)))
    assert {"id": "branch", "label": "Unsupported"} in labels
    proc = run_cli(
        "train-ranker", "--kg", str(toy / "kg.tsv"), "--dataset", str(data),
        "--out", str(tmp_path / "rank.ckpt"), "--epochs", "1",
    )
    assert json_lines(proc)[0]["trained_on"] == 5  # the five toy questions


def test_record_whose_sparql_does_not_name_its_topic_is_left_out(toy, trained, tmp_path):
    # the same record with a SPARQL read from thing0, its topic, and from
    # thing1: the second has no chain from its topic, so it is Unsupported,
    # not a classifier example and not a ranker gold
    runs = {}
    for name, pattern in (("named", ":thing0 :size ?x ."), ("other", ":thing1 :size ?x .")):
        rec = {"id": "extra", "question": "what size is thing0", "topic_entity": "thing0",
               "answers": ["val0_2"], "sparql": f"SELECT ?x WHERE {{ {pattern} }}"}
        data = tmp_path / f"{name}.jsonl"
        data.write_text((toy / "questions.jsonl").read_text() + json.dumps(rec) + "\n")
        labels = json_lines(run_cli("annotate", "--dataset", str(data)))
        clf = run_cli(
            "train-classifier", "--kg", str(toy / "kg.tsv"), "--dataset", str(data),
            "--embeddings", trained["emb"], "--out", str(tmp_path / f"{name}.clf"), "--epochs", "1",
        )
        rank = run_cli(
            "train-ranker", "--kg", str(toy / "kg.tsv"), "--dataset", str(data),
            "--out", str(tmp_path / f"{name}.rank"), "--epochs", "1",
        )
        runs[name] = (labels[-2], json_lines(clf)[0]["trained_on"], json_lines(rank)[0]["trained_on"])
    assert runs == {
        "named": ({"id": "extra", "label": "SS1"}, 6, 6),
        "other": ({"id": "extra", "label": "Unsupported"}, 5, 5),
    }


def test_train_classifier_without_examples_is_one_error_line(toy, trained, tmp_path):
    # every record's topic is outside the KG, so no example is left to train on
    data = tmp_path / "questions.jsonl"
    stray = {"id": "stray", "question": "what does zz r", "topic_entity": "zz",
             "answers": [], "sparql": "SELECT ?x WHERE { :zz :r ?x . }"}
    data.write_text(json.dumps(stray) + "\n")
    out = tmp_path / "clf.ckpt"
    proc = run_cli(
        "train-classifier", "--kg", str(toy / "kg.tsv"), "--dataset", str(data),
        "--embeddings", trained["emb"], "--out", str(out), "--epochs", "1",
        expect_fail=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not out.exists()


def test_train_classifier_on_odd_embedding_dim_is_one_error_line(toy, tmp_path):
    # the fusion's complex product needs an even dimension; TransE trains
    # at any
    emb = tmp_path / "emb.ckpt"
    run_cli("train-embeddings", "--kg", str(toy / "kg.tsv"), "--out", str(emb), "--dim", "7", "--epochs", "1")
    out = tmp_path / "clf.ckpt"
    proc = run_cli(
        "train-classifier", "--kg", str(toy / "kg.tsv"), "--dataset", str(toy / "questions.jsonl"),
        "--embeddings", str(emb), "--out", str(out), "--epochs", "1",
        expect_fail=True,
    )
    assert_one_error_line(proc)
    assert "even" in proc.stderr
    assert not out.exists()


def assert_one_error_line(proc, start="error:"):
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), proc.stderr


def run_main(argv, out=None) -> tuple[int, str]:
    """cli.main(argv) in process: its return code and what it wrote to
    stderr. Its stdout goes to `out` when one is given."""
    err = io.StringIO()
    with contextlib.redirect_stdout(out or io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_read_or_one_error_line(code: int, err: str) -> None:
    assert code in (0, 1)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize(
    "line",
    [
        "a\tr",
        "a\tr\tb\tc",
        "a\t\tb",
        '{"entities": ["a", "b"], "relations": ["r"], "triples": [[0, 0, 1]]}',
    ],
    ids=["two_fields", "four_fields", "empty_field", "json_dump"],
)
def test_corrupt_kg_is_one_error_line(tmp_path, line):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tr\tb\n" + line + "\n")
    proc = run_cli(
        "train-embeddings", "--kg", str(kg), "--out", str(tmp_path / "emb.ckpt"),
        expect_fail=True,
    )
    assert_one_error_line(proc, f"error: {kg}:2: expected 3")


@pytest.mark.parametrize(
    "line",
    [
        '{"id": "q", "question": "what", "topic_entity": "a"}',
        "[1, 2]",
        '{"id": "q", "question": "what", "topic_entity": "a", "answers": "ab"}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": [], "hops": true}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": [], "hops": 2.0}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": [], "sparql": 5}',
        '{"id": "q", "question": 5, "topic_entity": "thing0", "answers": []}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": [{"a": 1}]}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": [["x"]]}',
        '{"id": "q", "question": "what", "topic_entity": "thing0", "answers": ["thing1", 1990]}',
    ],
    ids=["missing_answers", "not_object", "answers_not_list", "hops_bool", "hops_float",
         "sparql_not_string", "question_not_string", "answers_not_strings_dict",
         "answers_not_strings_list", "answers_not_strings_int"],
)
def test_bad_dataset_record_is_one_error_line(toy, tmp_path, line):
    data = tmp_path / "questions.jsonl"
    data.write_text((toy / "questions.jsonl").read_text() + line + "\n")
    n = len(data.read_text().splitlines())
    proc = run_cli("annotate", "--dataset", str(data), expect_fail=True)
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {data}:{n}:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(["id", "question", "topic_entity", "answers", "hops", "sparql"]), value=JSON_VALUES)
def test_dataset_field_of_any_type_is_read_or_one_error_line(toy, trained, tmp_path_factory, key, value):
    # one toy record with one field replaced by a JSON value of any type:
    # annotate and evaluate either take it or refuse it with one error line
    rec = json.loads((toy / "questions.jsonl").read_text().splitlines()[0])
    rec[key] = value
    data = tmp_path_factory.getbasetemp() / "one_record.jsonl"
    data.write_text(json.dumps(rec) + "\n")
    for argv in (
        ["annotate", "--dataset", str(data)],
        ["evaluate", "--dataset", str(data), "--kg", str(toy / "kg.tsv"), "--ranker", trained["rank"],
         "--mode", "oracle"],
    ):
        assert_read_or_one_error_line(*run_main(argv))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_taxonomy_field_of_any_value_is_read_or_one_error_line(toy, tmp_path_factory, data):
    # the builtin taxonomy with one field of one entry, or one item inside
    # its kinds or edges, replaced by a JSON value of any type: annotate
    # either takes it or refuses it with one error line
    from sskgqa.structures import builtin_taxonomy

    entries = taxonomy_entries(builtin_taxonomy())
    parent = entries[data.draw(st.integers(0, len(entries) - 1))]
    key = data.draw(st.sampled_from(["label", "kinds", "edges"]))
    while isinstance(parent[key], list) and parent[key] and data.draw(st.booleans()):
        parent, key = parent[key], data.draw(st.integers(0, len(parent[key]) - 1))
    parent[key] = data.draw(JSON_VALUES)
    tax = tmp_path_factory.getbasetemp() / "one_field.json"
    tax.write_text(json.dumps(entries))
    assert_read_or_one_error_line(*run_main(["annotate", "--dataset", str(toy / "questions.jsonl"), "--taxonomy", str(tax)]))


@pytest.mark.parametrize(
    "brk", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r\n"],
    ids=["u2028", "u2029", "nel", "vt", "ff", "fs", "gs", "rs", "crlf"],
)
def test_taxonomy_label_with_a_line_break_is_one_error_line(toy, tmp_path, brk):
    # every character str.splitlines breaks on, in a label whose drawing
    # branches too: the label is refused first, so its break never reaches
    # a message
    from sskgqa.structures import builtin_taxonomy

    branch = {"kinds": ["E", "v", "v", "a"], "edges": [[0, 1], [0, 2], [1, 3]]}
    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps(taxonomy_entries(builtin_taxonomy()) + [{"label": f"X{brk}Y", **branch}]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["annotate", "--dataset", str(toy / "questions.jsonl"), "--taxonomy", str(tax)])
    assert code == 1
    assert err.getvalue().splitlines() == [
        f"error: {tax}: entry 6 ({f'X{brk}Y'!r}): label must be a string without line breaks"
    ]


@pytest.mark.parametrize(
    "entry",
    [{"label": "X", "kinds": ["E", "a"]}, {"label": "X", "kinds": ["E", "zz", "a"], "edges": [[0, 1], [1, 2]]}],
    ids=["missing_edges", "unknown_kind"],
)
def test_bad_taxonomy_entry_is_one_error_line(toy, tmp_path, entry):
    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps([{"label": "SS1", "kinds": ["E", "a"], "edges": [[0, 1]]}, entry]))
    proc = run_cli(
        "annotate", "--dataset", str(toy / "questions.jsonl"), "--taxonomy", str(tax),
        expect_fail=True,
    )
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {tax}: entry 1")


@pytest.mark.parametrize("which", ["kg", "dataset", "taxonomy"])
def test_non_utf8_input_is_one_error_line(toy, tmp_path, which):
    from sskgqa.structures import builtin_taxonomy

    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps(taxonomy_entries(builtin_taxonomy()), indent=1))
    inputs = {"kg": toy / "kg.tsv", "dataset": toy / "questions.jsonl", "taxonomy": tax}
    # line 2 starts with bytes 0xff 0xfe, inside the first chunk text mode decodes
    path = tmp_path / f"bad_{which}"
    first, rest = inputs[which].read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff\xfe" + rest)
    inputs[which] = path
    args = {
        "kg": ["ingest", "--kg", str(inputs["kg"])],
        "dataset": ["annotate", "--dataset", str(inputs["dataset"])],
        "taxonomy": ["annotate", "--dataset", str(inputs["dataset"]), "--taxonomy", str(inputs["taxonomy"])],
    }[which]
    proc = run_cli(*args, expect_fail=True)
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {path}:2: not UTF-8: byte 0xff")


@pytest.mark.parametrize("which", ["kg", "dataset", "taxonomy"])
def test_byte_order_mark_is_skipped(toy, trained, tmp_path, which):
    from sskgqa.structures import builtin_taxonomy

    tax = tmp_path / "tax.json"
    tax.write_text(json.dumps(taxonomy_entries(builtin_taxonomy())))
    inputs = {"kg": toy / "kg.tsv", "dataset": toy / "questions.jsonl", "taxonomy": tax}

    def evaluate():
        return run_cli(
            "evaluate", "--kg", str(inputs["kg"]), "--dataset", str(inputs["dataset"]),
            "--taxonomy", str(inputs["taxonomy"]), "--ranker", trained["rank"], "--mode", "oracle",
        ).stdout

    plain = evaluate()
    path = tmp_path / f"bom_{which}"
    path.write_bytes(b"\xef\xbb\xbf" + inputs[which].read_bytes())
    inputs[which] = path
    assert evaluate() == plain


def test_taxonomy_that_is_not_json_is_one_error_line(toy, tmp_path):
    tax = tmp_path / "tax.json"
    tax.write_text('[\n{"label": "SS1",')
    proc = run_cli(
        "annotate", "--dataset", str(toy / "questions.jsonl"), "--taxonomy", str(tax),
        expect_fail=True,
    )
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {tax}:2: bad JSON: ")


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_dataset_line_is_one_error_line(tmp_path, depth):
    # json gives up on nesting this deep with a RecursionError, not a
    # JSONDecodeError; the record is still bad JSON at its line
    data = tmp_path / "questions.jsonl"
    data.write_text('{"id": "q", "question": "what", "topic_entity": "a", "answers": ' + "[" * depth + "\n")
    out = io.StringIO()
    code, err = run_main(["annotate", "--dataset", str(data)], out)
    assert (code, out.getvalue()) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {data}:1: bad JSON: "), err


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_taxonomy_is_one_error_line(toy, tmp_path, depth):
    tax = tmp_path / "tax.json"
    tax.write_text("[" * depth)
    out = io.StringIO()
    code, err = run_main(["annotate", "--dataset", str(toy / "questions.jsonl"), "--taxonomy", str(tax)], out)
    assert (code, out.getvalue()) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {tax}: bad JSON: "), err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--heads", "0"], "heads"),
        (["--heads", "-3"], "heads"),
        (["--dropout", "1.0"], "dropout"),
        (["--dropout", "1.5"], "dropout"),
        (["--dropout", "-0.1"], "dropout"),
    ],
    ids=["heads_0", "heads_negative", "dropout_1", "dropout_1_5", "dropout_negative"],
)
def test_bad_encoder_setting_is_one_error_line(toy, tmp_path, flags, name):
    out = tmp_path / "rank.ckpt"
    proc = run_cli(
        "train-ranker", "--kg", str(toy / "kg.tsv"), "--dataset", str(toy / "questions.jsonl"),
        "--out", str(out), "--epochs", "1", *flags, expect_fail=True,
    )
    assert_one_error_line(proc, f"error: {name} must be")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, name",
    [
        ("train-ranker", ["--lr", "-1", "--epochs", "2"], "lr"),
        ("train-ranker", ["--lr", "nan"], "lr"),
        ("train-ranker", ["--epochs", "-3"], "epochs"),
        ("train-ranker", ["--epochs", "0"], "epochs"),
        ("train-ranker", ["--margin", "nan"], "margin"),
        ("train-classifier", ["--lr", "nan"], "config values"),
        ("train-classifier", ["--epochs", "0"], "config values"),
    ],
    ids=["ranker_lr_negative", "ranker_lr_nan", "ranker_epochs_negative", "ranker_epochs_0",
         "ranker_margin_nan", "classifier_lr_nan", "classifier_epochs_0"],
)
def test_bad_training_setting_is_one_error_line(toy, trained, tmp_path, command, flags, name):
    out = tmp_path / "model.ckpt"
    extra = ["--embeddings", trained["emb"]] if command == "train-classifier" else []
    proc = run_cli(
        command, "--kg", str(toy / "kg.tsv"), "--dataset", str(toy / "questions.jsonl"),
        "--out", str(out), *extra, *flags, expect_fail=True,
    )
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {name}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, error",
    [
        ("train-ranker", ["--heads", "5"], "heads must divide d_model"),
        ("train-ranker", ["--dropout", "1.5"], "dropout must be"),
        ("train-classifier", ["--d-model", "0"], "d_model must be"),
        ("train-embeddings", ["--lr", "-1"], "config values must be positive"),
        ("train-embeddings", ["--lr", "nan"], "config values must be positive"),
        ("train-embeddings", ["--margin", "nan"], "config values must be positive"),
        ("ablate", ["--negatives", "--dropout", "1.5"], "dropout must be"),
        ("ablate", ["--heads", "--lr", "nan"], "lr must be"),
        ("ablate", ["--negatives", "--max-hops", "0"], "max_hops must be in 1..3"),
        ("evaluate", ["--mode", "oracle", "--max-hops", "0"], "max_hops must be in 1..3"),
        ("answer", ["--mode", "oracle", "--max-hops", "4"], "max_hops must be in 1..3"),
        ("answer", ["--mode", "oracle"], "answer takes --mode predicted or off, not oracle"),
    ],
    ids=["ranker_heads_5", "ranker_dropout_1_5", "classifier_d_model_0", "embeddings_lr_negative",
         "embeddings_lr_nan", "embeddings_margin_nan", "ablate_dropout_1_5", "ablate_lr_nan",
         "ablate_max_hops_0", "evaluate_max_hops_0", "answer_max_hops_4",
         "answer_oracle_mode"],
)
def test_bad_setting_is_refused_before_any_file_is_read(tmp_path, command, flags, error):
    # none of the input files exists: the setting is reported, not a file
    inputs = {
        "--kg": tmp_path / "kg.tsv",
        "--dataset": tmp_path / "questions.jsonl",
        "--embeddings": tmp_path / "emb.ckpt",
        "--ranker": tmp_path / "rank.ckpt",
        "--topic": "thing0",
    }
    wanted = {
        "train-ranker": ["--kg", "--dataset"],
        "train-classifier": ["--kg", "--dataset", "--embeddings"],
        "train-embeddings": ["--kg"],
        "ablate": ["--kg", "--dataset"],
        "evaluate": ["--kg", "--dataset", "--ranker"],
        "answer": ["--kg", "--ranker", "--topic"],
    }[command]
    args = [a for flag in wanted for a in (flag, str(inputs[flag]))]
    out = tmp_path / "model.ckpt"
    if command == "answer":
        args += ["--question", "what color is thing0"]
    elif command.startswith("train"):
        args += ["--out", str(out)]
    proc = run_cli(command, *args, *flags, expect_fail=True)
    assert proc.stdout == ""
    assert_one_error_line(proc, f"error: {error}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["answer", "evaluate"])
@pytest.mark.parametrize("given", [[], ["--classifier"], ["--embeddings"]])
def test_predicted_mode_without_models_is_one_error_line(toy, trained, tmp_path, command, given):
    # the ranker file does not exist: the missing option is reported first
    models = {"--classifier": trained["clf"], "--embeddings": trained["emb"]}
    args = [a for flag in given for a in (flag, models[flag])]
    if command == "answer":
        args += ["--question", "what color is thing0", "--topic", "thing0"]
    else:
        args += ["--dataset", str(toy / "questions.jsonl")]
    proc = run_cli(
        command, "--kg", str(toy / "kg.tsv"), "--ranker", str(tmp_path / "missing.ckpt"),
        "--mode", "predicted", *args, expect_fail=True,
    )
    assert proc.stdout == ""
    assert_one_error_line(proc, "error: predicted mode needs --classifier and --embeddings")


def test_embeddings_of_another_kg_are_one_error_line_and_no_file(toy, trained, tmp_path):
    # the ranker toy's table has 20 entities and 5 relations, the norshteyn
    # KG 10 and 2: a classifier trained or run on that pair would fuse the
    # rows of unrelated entities
    other = tmp_path / "norshteyn"
    run_cli("make-toy", "--out", str(other))
    kg, data, out = str(other / "kg.tsv"), str(other / "questions.jsonl"), tmp_path / "clf.ckpt"
    models = ["--ranker", trained["rank"], "--classifier", trained["clf"], "--embeddings", trained["emb"]]
    for argv in (
        ["train-classifier", "--kg", kg, "--dataset", data, "--embeddings", trained["emb"], "--out", str(out)],
        ["evaluate", "--kg", kg, "--dataset", data, *models],
        ["answer", "--kg", kg, "--question", "who is it", "--topic", "Norshteyn", *models],
    ):
        code, err = run_main(argv)
        want = f"error: {trained['emb']}: a table of 20 entities and 5 relations, but the --kg has 10 and 2"
        assert (code, err.splitlines()) == (1, [want]), argv[0]
    assert not out.exists()


def test_embeddings_of_another_kg_with_equal_counts_are_one_error_line_and_no_file(tmp_path):
    # the norshteyn KG with each entity's edges moved to the next entity
    # name: as many entities, relations and triples, but a table trained on
    # it gives each entity of the original another entity's row
    toy = tmp_path / "norshteyn"
    run_cli("make-toy", "--out", str(toy))
    lines = [line.split("\t") for line in (toy / "kg.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    names = sorted({e for h, _, t in lines for e in (h, t)})
    after = dict(zip(names, names[1:] + names[:1]))
    shifted = tmp_path / "shifted.tsv"
    shifted.write_text("".join(f"{after[h]}\t{r}\t{after[t]}\n" for h, r, t in lines), encoding="utf-8")
    kg, data, out = str(toy / "kg.tsv"), str(toy / "questions.jsonl"), tmp_path / "out.ckpt"
    emb, clf, rank = (str(tmp_path / f"{name}.ckpt") for name in ("emb", "clf", "rank"))
    for argv in (
        ["train-embeddings", "--kg", str(shifted), "--out", emb, "--dim", "4", "--epochs", "2"],
        ["train-embeddings", "--kg", kg, "--out", str(tmp_path / "own.ckpt"), "--dim", "4", "--epochs", "2"],
        ["train-classifier", "--kg", kg, "--dataset", data, "--embeddings", str(tmp_path / "own.ckpt"),
         "--out", clf, "--epochs", "1"],
        ["train-ranker", "--kg", kg, "--dataset", data, "--out", rank, "--epochs", "1"],
    ):
        assert run_main(argv) == (0, ""), argv
    fingerprints = [load_kg_file(path).fingerprint() for path in (str(shifted), kg)]
    want = f"error: {emb}: a table of KG {fingerprints[0]}, but the --kg is {fingerprints[1]}"
    models = ["--ranker", rank, "--classifier", clf, "--embeddings", emb]
    for argv in (
        ["train-classifier", "--kg", kg, "--dataset", data, "--embeddings", emb, "--out", str(out)],
        ["evaluate", "--kg", kg, "--dataset", data, *models],
        ["answer", "--kg", kg, "--question", "who is it", "--topic", "Norshteyn", *models],
    ):
        assert run_main(argv) == (1, want + "\n"), argv[0]
    assert not out.exists()


def test_classifier_over_another_table_is_one_error_line(toy, trained, tmp_path):
    # the same KG, TransE of another seed: the classifier's entity term
    # would read rows it was not trained on
    other = str(tmp_path / "seed1.ckpt")
    kg = str(toy / "kg.tsv")
    assert run_main(["train-embeddings", "--kg", kg, "--out", other, "--dim", "16", "--epochs", "20", "--seed", "1"])[0] == 0
    models = ["--ranker", trained["rank"], "--classifier", trained["clf"], "--embeddings", other]
    want = f"error: {trained['clf']}: trained over another embedding table than the one given\n"
    for argv in (
        ["evaluate", "--kg", kg, "--dataset", str(toy / "questions.jsonl"), *models],
        ["answer", "--kg", kg, "--question", "what color is thing0", "--topic", "thing0", *models],
    ):
        assert run_main(argv) == (1, want), argv[0]


def test_model_files_of_the_first_version_are_one_error_line_and_no_file(toy, trained, tmp_path):
    # an `ssk-emb v1` table (one header line, no kg section) and an
    # `ssk-clf v1` classifier (no table section), written from the v2 files
    table = Path(trained["emb"]).read_bytes()
    head, payload = table[: table.index(b"\nfloats ")], table[table.index(b"\n", table.index(b"\nfloats ") + 1) + 1 :]
    kind, sizes = (line.split(b" ", 1)[1] for line in head.split(b"\n")[1:3])
    emb_v1 = tmp_path / "emb_v1.ckpt"
    emb_v1.write_bytes(b"ssk-emb v1 " + kind + b" " + sizes + b"\n" + payload)
    lines = Path(trained["clf"]).read_bytes().split(b"\n")
    at = lines.index(b"table 1")
    clf_v1 = tmp_path / "clf_v1.ckpt"
    clf_v1.write_bytes(b"\n".join([b"ssk-clf v1", *lines[1:at], *lines[at + 2 :]]))
    kg, data, out = str(toy / "kg.tsv"), str(toy / "questions.jsonl"), tmp_path / "clf.ckpt"
    question = ["answer", "--kg", kg, "--question", "what color is thing0", "--topic", "thing0", "--ranker", trained["rank"]]
    for argv, path, first in (
        (["train-classifier", "--kg", kg, "--dataset", data, "--embeddings", str(emb_v1), "--out", str(out)],
         emb_v1, f"ssk-emb v1 {kind.decode()} {sizes.decode()}"),
        ([*question, "--classifier", trained["clf"], "--embeddings", str(emb_v1)], emb_v1,
         f"ssk-emb v1 {kind.decode()} {sizes.decode()}"),
        ([*question, "--classifier", str(clf_v1), "--embeddings", trained["emb"]], clf_v1, "ssk-clf v1"),
        (["evaluate", "--kg", kg, "--dataset", data, "--ranker", trained["rank"], "--classifier", str(clf_v1),
          "--embeddings", trained["emb"]], clf_v1, "ssk-clf v1"),
    ):
        magic = "ssk-emb v2" if path == emb_v1 else "ssk-clf v2"
        want = f"error: {path}: not a {magic} checkpoint, it starts {first!r}\n"
        assert run_main(argv) == (1, want), argv[0]
    assert not out.exists()


def damaged_input_commands(toy, trained, bad: str, out: str) -> dict[str, list[str]]:
    """Per input kind, a command that reads the damaged file `bad` in its
    place: the KG trains embeddings, the table a classifier (both to `out`),
    and each model checkpoint answers a question."""
    kg, data = str(toy / "kg.tsv"), str(toy / "questions.jsonl")
    question = ["answer", "--question", "what color is thing0", "--topic", "thing0", "--kg", kg]
    return {
        "kg": ["train-embeddings", "--kg", bad, "--out", out, "--dim", "4", "--epochs", "2"],
        "emb": ["train-classifier", "--kg", kg, "--dataset", data, "--embeddings", bad, "--out", out, "--epochs", "1"],
        "clf": [*question, "--ranker", trained["rank"], "--classifier", bad, "--embeddings", trained["emb"]],
        "rank": [*question, "--ranker", bad, "--mode", "off"],
    }


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["kg", "emb", "clf", "rank"]), data=st.data())
def test_damaged_input_file_is_read_or_one_error_line_and_no_file(toy, trained, tmp_path_factory, kind, data):
    # one mutation of the toy's KG TSV or of one of its three checkpoints:
    # the command that reads it either runs or refuses it with one error
    # line, and then writes no --out file
    original = (toy / "kg.tsv" if kind == "kg" else Path(trained[kind])).read_bytes()
    bad = tmp_path_factory.getbasetemp() / f"damaged_{kind}"
    bad.write_bytes(data.draw(mutations(original)))
    out = tmp_path_factory.getbasetemp() / "damaged.out"
    out.unlink(missing_ok=True)
    code, err = run_main(damaged_input_commands(toy, trained, str(bad), str(out))[kind])
    assert_read_or_one_error_line(code, err)
    assert code == 0 or not out.exists()


@pytest.mark.parametrize("kind", ["emb", "clf", "rank"])
def test_huge_header_size_is_refused_without_a_large_allocation(toy, trained, tmp_path, kind):
    # each whole number of the header set to 999999999 in turn, among them
    # every size the file declares: the command refuses it before it
    # allocates anything of that size. Only a setting no array depends on
    # reads, as the heads and feed-forward width of the classifier's
    # encoder, which has no attention block.
    original = Path(trained[kind]).read_bytes()
    bad, out = tmp_path / "bad", tmp_path / "out"
    argv = damaged_input_commands(toy, trained, str(bad), str(out))[kind]
    assert HEADER_NUMBERS[2] == b"999999999" and header_numbers(original)
    for span in header_numbers(original):
        bad.write_bytes(set_number(original, span, b"999999999"))
        tracemalloc.start()
        try:
            code, err = run_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_read_or_one_error_line(code, err)
        assert peak < 16 * 2**20, (span, peak)
        assert code == 0 or not out.exists()
