"""Golden outputs: the SHA-256 prefix of every output of the README round
trip on the three toys and of the benchmark's trained models, held against
`tests/golden.json`.

The round trip runs `cli.main` in process, in a scratch directory, on the
`norshteyn`, `ranker` and `three-hop` (30 questions) toys: make-toy, ingest,
annotate, the three trainers, `evaluate` in the three modes, `answer` on the
first question and `ablate --heads --epochs 2`. Each command's stdout and each
file it writes (the toy files and the three checkpoints) is one output. A
fourth round trip runs on a six-structure toy (`mixed`) that the benchmark's
input generator writes: SS1-SS6 questions, constraints among them, so the
trained models' answers to constrained questions are pinned too. So are the
`evaluate` records of `TokenOverlapRanker`, whose scores tie often, on ten
random KGs in `oracle` and `off` mode, so the tie-break shows; and
`Trained.digest()` of the benchmark's `train_all` on `TINY` seed 5 and on run
seed 777's three full-size problems.

Rewrite the file after a change that is meant to move an output, and say in
CHANGES.md which outputs moved and why:

    PYTHONPATH=src python tests/test_golden.py

Trained weights depend on the last bits of float products, so on the numpy
version, BLAS library and machine. The file records the build it was written
on; on another build the test of every output is skipped, naming both, since
a moved digest there would not tell a changed program from a changed build.
The outputs no trained model feeds (per toy the make-toy, ingest and annotate
stdout and the two toy files, and the token-overlap records) depend only on
numpy's random streams, which are tied to its version, so they are checked on
every build with the file's numpy version. Rewrite the file on the new build
from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fixtures import random_fixture
from sskgqa import cli
from sskgqa import pipeline as pl
from sskgqa.annotation import label_question, save_dataset
from sskgqa.candidates import EnumConfig
from sskgqa.ranker import TokenOverlapRanker
from sskgqa.structures import builtin_taxonomy

GOLDEN = Path(__file__).with_name("golden.json")
PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"
TOYS = ("norshteyn", "ranker", "three-hop")
MODES = ("predicted", "oracle", "off")
CHECKPOINTS = ("emb.ckpt", "clf.ckpt", "rank.ckpt")
TOY_FILES = ("kg.tsv", "questions.jsonl")
# the round-trip outputs of a toy that no trained model feeds
UNTRAINED = ("make-toy", "ingest", "annotate", *TOY_FILES)


def build() -> dict[str, str]:
    """What the bits of a trained model depend on, beside the program."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@contextlib.contextmanager
def scratch_dir():
    """Run the body in a new temporary directory, then return to the old one."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(here)


def run(*argv: str) -> bytes:
    """One CLI command's stdout; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError(f"sskgqa {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def toy_outputs(toy: str, trained: bool = True) -> dict[str, str]:
    """The round trip on one toy, run from the current directory; without
    `trained`, only its outputs that no trained model feeds."""
    d = toy
    kg, data = f"{d}/kg.tsv", f"{d}/questions.jsonl"
    make = ["make-toy", "--out", d, "--benchmark", toy]
    if toy == "three-hop":
        make += ["--questions", "30"]
    stdout = {"make-toy": run(*make)}
    stdout["ingest"] = run("ingest", "--kg", kg)
    stdout["annotate"] = run("annotate", "--dataset", data)
    if not trained:
        return toy_digests(toy, stdout, TOY_FILES)
    stdout["train-embeddings"] = run(
        "train-embeddings", "--kg", kg, "--out", f"{d}/emb.ckpt", "--dim", "16", "--epochs", "30"
    )
    stdout["train-classifier"] = run(
        "train-classifier", "--kg", kg, "--dataset", data, "--embeddings", f"{d}/emb.ckpt",
        "--out", f"{d}/clf.ckpt",
    )
    stdout["train-ranker"] = run("train-ranker", "--kg", kg, "--dataset", data, "--out", f"{d}/rank.ckpt")
    models = ["--kg", kg, "--ranker", f"{d}/rank.ckpt", "--classifier", f"{d}/clf.ckpt",
              "--embeddings", f"{d}/emb.ckpt"]
    for mode in MODES:
        stdout[f"evaluate-{mode}"] = run("evaluate", "--dataset", data, *models, "--mode", mode)
    first = json.loads(Path(data).read_text(encoding="utf-8").splitlines()[0])
    stdout["answer"] = run("answer", "--question", first["question"], "--topic", first["topic_entity"], *models)
    stdout["ablate-heads"] = run("ablate", "--kg", kg, "--dataset", data, "--heads", "--epochs", "2")
    return toy_digests(toy, stdout, (*TOY_FILES, *CHECKPOINTS))


def toy_digests(toy: str, stdout: dict[str, bytes], files: tuple[str, ...]) -> dict[str, str]:
    """The outputs of a toy's round trip: each command's stdout and each of
    `files` in the toy's directory."""
    outputs = {f"{toy}/{cmd}": prefix(out) for cmd, out in stdout.items()}
    return outputs | {f"{toy}/{name}": prefix(Path(toy, name).read_bytes()) for name in files}


def overlap_outputs() -> dict[str, str]:
    """`evaluate` records of the token-overlap ranker on random KGs, with
    constraints."""
    outputs = {}
    for seed in range(10):
        kg, questions = random_fixture(np.random.default_rng(seed))
        for mode in ("oracle", "off"):
            cfg = pl.PipelineConfig(
                kg, builtin_taxonomy(), TokenOverlapRanker(), mode=mode, enum=EnumConfig(attach_constraints=True)
            )
            records = [dataclasses.asdict(r) for r in pl.evaluate(cfg, questions).records]
            outputs[f"overlap/{seed}-{mode}"] = prefix(json.dumps(records, sort_keys=True).encode())
    return outputs


def pipebench_modules():
    """The benchmark's `inputs` and `workloads` modules."""
    sys.path.insert(0, str(PIPEBENCH))
    try:
        import inputs
        import workloads
    finally:
        sys.path.remove(str(PIPEBENCH))
    return inputs, workloads


@functools.cache
def mixed_run() -> dict[str, bytes]:
    """The round trip on the six-structure toy, run once per process: the
    toy files, the three trainers, `evaluate --constraints` in the three
    modes and `answer --constraints` on the first SS6 test question. Each
    command's stdout and each file, by name."""
    inputs, _ = pipebench_modules()
    tax = builtin_taxonomy()
    # 54 questions: 6 training questions per label, 2 test questions per unit
    # of test weight
    size = inputs.MixedSize(entities=100, train_per_label=6, test_unit=2)
    kg, train, test = inputs.mixed_inputs(5, tax, size)
    q = next(q for q in test if label_question(q, tax) == "SS6")
    ent, rel = kg.entities.symbol_of, kg.relations.symbol_of
    with scratch_dir():
        Path("kg.tsv").write_text(
            "".join(f"{ent(h)}\t{rel(r)}\t{ent(t)}\n" for h, r, t in sorted(kg.iter_triples())), encoding="utf-8"
        )
        save_dataset(train + test, "questions.jsonl")
        kg_data = ["--kg", "kg.tsv", "--dataset", "questions.jsonl"]
        out = {
            "train-embeddings": run(
                "train-embeddings", "--kg", "kg.tsv", "--out", "emb.ckpt", "--dim", "16", "--epochs", "30"
            ),
            "train-classifier": run("train-classifier", *kg_data, "--embeddings", "emb.ckpt", "--out", "clf.ckpt"),
            # 5 epochs, not the CLI's 20, keep the round trip to a few seconds
            "train-ranker": run("train-ranker", *kg_data, "--out", "rank.ckpt", "--epochs", "5"),
        }
        models = ["--kg", "kg.tsv", "--ranker", "rank.ckpt", "--classifier", "clf.ckpt", "--embeddings", "emb.ckpt",
                  "--constraints"]
        for mode in MODES:
            out[f"evaluate-{mode}"] = run("evaluate", "--dataset", "questions.jsonl", *models, "--mode", mode)
        out["answer"] = run("answer", "--question", q.question, "--topic", q.topic_entity, *models)
        return out | {name: Path(name).read_bytes() for name in (*TOY_FILES, *CHECKPOINTS)}


def trained_outputs() -> dict[str, str]:
    """`Trained.digest()` of the benchmark's models: `TINY` seed 5, and each
    of run seed 777's problems at full size."""
    inputs, workloads = pipebench_modules()
    tax = builtin_taxonomy()
    runs = [("tiny-5", 5, workloads.TINY)]
    runs += [(f"777-{i}", s, workloads.Sizes()) for i, s in enumerate(inputs.problem_seeds(777, 3))]
    outputs = {}
    for name, seed, sizes in runs:
        kg, train_qs, _ = inputs.mixed_inputs(seed, tax, sizes.mixed)
        outputs[f"trained/{name}"] = workloads.train_all(kg, train_qs, tax, sizes, seed).digest()
    return outputs


def outputs(trained: bool = True) -> dict[str, str]:
    """Every output, or without `trained` the 35 that no trained model feeds."""
    with scratch_dir():
        found = {k: v for toy in TOYS for k, v in toy_outputs(toy, trained).items()}
    found |= overlap_outputs()
    if trained:
        found |= trained_outputs() | {f"mixed/{name}": prefix(data) for name, data in mixed_run().items()}
    return found


def untrained(name: str) -> bool:
    """Whether no trained model feeds the output `name`."""
    group, _, output = name.partition("/")
    return group == "overlap" or (group in TOYS and output in UNTRAINED)


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per output that differs, is new or is gone."""
    return [
        f"{name}: {want.get(name, 'absent')} -> {got.get(name, 'absent')}"
        for name in sorted(want.keys() | got.keys())
        if want.get(name) != got.get(name)
    ]


def test_untrained_outputs_equal_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["build"]["numpy"] != np.__version__:
        pytest.skip(f"golden outputs were written with numpy {golden['build']['numpy']}, this is {np.__version__}")
    want = {name: digest for name, digest in golden["outputs"].items() if untrained(name)}
    assert len(want) == 35
    lines = moved(want, outputs(trained=False))
    assert not lines, "outputs moved:\n" + "\n".join(lines)


def test_outputs_equal_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["build"] != build():
        pytest.skip(f"golden outputs were written on {golden['build']}, this is {build()}")
    lines = moved(golden["outputs"], outputs())
    assert not lines, "outputs moved:\n" + "\n".join(lines)


def test_predicted_beats_off_on_the_six_structure_toy():
    # the paper's claim on the learned pipeline: filtering the candidates by
    # the classifier's structure answers more questions than no filter
    hits = {mode: json.loads(mixed_run()[f"evaluate-{mode}"].splitlines()[-1])["hits_at_1"] for mode in MODES}
    assert hits["predicted"] > hits["off"], hits


def test_moved_names_every_output_that_differs():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "b": "x", "d": "4"}
    assert moved(want, got) == ["b: 2 -> x", "c: 3 -> absent", "d: absent -> 4"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"build": build(), "outputs": outputs()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
