"""The benchmark's workloads: set-up, warm-up, timed closed loop and checks.

Every workload runs in this one process as a single closed-loop client: the
next question is asked only after the previous answer returned. Untraced
timings are in reference seconds (hostspeed.py): wall time scaled by the
host's speed at that moment.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from sskgqa import classifier as clf
from sskgqa import embeddings as emb
from sskgqa import optim
from sskgqa import pipeline as pl
from sskgqa import ranker as rk
from sskgqa import structures as st
from sskgqa.annotation import label_question
from sskgqa.ranker import RankTrainConfig, TokenOverlapRanker

import inputs
from hostspeed import HostClock
from layertrace import Tracer, present


@dataclass(frozen=True)
class Sizes:
    chain3_questions: int = inputs.CHAIN3_QUESTIONS
    mixed: inputs.MixedSize = inputs.MixedSize()
    # set-ups per run (setup_s is their median); more where set-up is short
    chain3_setups: int = 15
    # mixed_learned and train_models set up, train on and answer this many
    # independent problems per run. A trained ranker's hits@1 swings by tens
    # of points from problem to problem; pooling steadies the run's figure.
    problems: int = 3
    train_answer_unit: int = 10  # train_models answers 10 per unit of test weight
    warmup_s: float = 2.0  # untimed work before timing; the first seconds run slow
    emb_dim: int = 16
    emb_epochs: int = 20
    clf_epochs: int = 12
    ranker_per_label: int = 20  # the ranker trains on this many per label
    ranker_epochs: int = 6
    ranker_negatives: int = 8


TINY = Sizes(
    chain3_questions=12,
    mixed=replace(inputs.MixedSize(), entities=100, train_per_label=4, test_unit=2),
    chain3_setups=2,
    problems=2,
    train_answer_unit=1,
    warmup_s=0.0,
    emb_epochs=2,
    clf_epochs=2,
    ranker_per_label=2,
    ranker_epochs=1,
    ranker_negatives=2,
)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed output checks


# ---------------------------------------------------------------- helpers


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _steal_ticks() -> int | None:
    """Host steal ticks of this VM, from the aggregate cpu line (read only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one answered question produced."""

    key: tuple  # (id, status, predicted structure, sorted answers)
    ok: bool
    correct: bool
    structure_ok: bool


def _answer(cfg: pl.PipelineConfig, q) -> Outcome:
    try:
        _, rec = pl.answer_question(cfg, q)
    except Exception as exc:  # recorded as a failed question, not fatal
        return Outcome((q.id, "error:" + type(exc).__name__, None, []), False, False, False)
    used = rec.predicted_structure if cfg.mode == "predicted" else rec.gold_structure
    return Outcome(
        (q.id, rec.status, rec.predicted_structure, sorted(rec.answers)),
        rec.status == "ok",
        bool(rec.correct),
        used is not None and used == rec.gold_structure,
    )


def answer_pass(items, spans: list, on_answer=None, clock: HostClock | None = None) -> list[Outcome]:
    """Answer every (config, question) item once, appending each answer's
    (start, end). With a clock, the calibration kernel runs between answers."""
    out = []
    for cfg, q in items:
        if clock is not None:
            clock.maybe_tick()
        t0 = perf_counter()
        o = _answer(cfg, q)
        spans.append((t0, perf_counter()))
        out.append(o)
        if on_answer is not None:
            on_answer(o)
    return out


def warm_up(items, seconds: float) -> None:
    """Answer (config, question) items, untimed, for at least `seconds` (at
    least one)."""
    t0 = perf_counter()
    while True:
        for cfg, q in items:
            _answer(cfg, q)
            if perf_counter() - t0 >= seconds:
                return


def timed_passes(items, seconds: float, on_answer=None, clock: HostClock | None = None):
    """Whole passes over the (config, question) items until `seconds` have
    elapsed.

    Returns each answer's (start, end), each pass's outcomes and (start, end),
    and the host steal ticks over the passes."""
    spans: list[tuple[float, float]] = []
    passes: list[list[Outcome]] = []
    pass_spans: list[tuple[float, float]] = []
    steal0 = _steal_ticks()
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or not passes:
        t_pass = perf_counter()
        passes.append(answer_pass(items, spans, on_answer, clock))
        pass_spans.append((t_pass, perf_counter()))
    if clock is not None:
        clock.tick()
    steal1 = _steal_ticks()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    return spans, passes, pass_spans, steal


def _quality(outcomes: list[Outcome]) -> dict[str, float]:
    n = len(outcomes)
    return {
        "hits_at_1": 100.0 * sum(o.correct for o in outcomes) / n,
        "structure_acc": 100.0 * sum(o.structure_ok for o in outcomes) / n,
    }


def _pass_digests(passes) -> list[str]:
    return [_digest([o.key for o in p]) for p in passes]


def per_question(samples: list[float], n_questions: int) -> list[float]:
    """Median time of each question over the passes that answered it.

    samples holds whole passes over the same n_questions questions, in order.
    """
    return [statistics.median(samples[i::n_questions]) for i in range(n_questions)]


def _latency_metrics(res: Result, spans, n_questions, pass_spans, clock: HostClock, repeated=True) -> None:
    """p50/p95 over the questions' costs and the median pass's throughput
    (n_questions per pass), all in reference time; the wall-time figures are
    diagnostics. With `repeated`, spans hold whole passes over the same
    questions and a question's cost is its median; else each answer is a cost."""
    group = n_questions if repeated else len(spans)
    ref = [clock.ref_seconds(a, b) for a, b in spans]
    per_q = per_question(ref, group)
    res.metrics["answer_ms_p50"] = (statistics.median(per_q) * 1e3, "ms")
    res.metrics["answer_ms_p95"] = (_quantile(per_q, 95) * 1e3, "ms")
    res.metrics["questions_per_s"] = (
        n_questions / statistics.median(clock.ref_seconds(a, b) for a, b in pass_spans),
        "1/s",
    )
    wall_q = per_question([b - a for a, b in spans], group)
    d = res.diagnostics
    d["answer_samples"] = len(spans)
    d["answer_questions"] = n_questions
    d["wall_answer_ms_p50"] = statistics.median(wall_q) * 1e3
    d["wall_answer_ms_p95"] = _quantile(wall_q, 95) * 1e3
    d["wall_pass_s"] = [b - a for a, b in pass_spans]
    d["host_speed"] = clock.summary()


def _common_metrics(res: Result, quality, setup_times) -> None:
    res.metrics["hits_at_1"] = (quality["hits_at_1"], "%")
    res.metrics["structure_acc"] = (quality["structure_acc"], "%")
    res.metrics["setup_s"] = (statistics.median(setup_times), "s")
    res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    res.diagnostics["setup_samples"] = len(setup_times)
    res.diagnostics["setup_s_all"] = setup_times  # reference seconds


# ---------------------------------------------------------------- training


@dataclass
class Trained:
    table: emb.EmbeddingTable
    classifier: clf.ClassifierModel
    ranker: rk.RankerModel
    clf_data: list
    rank_questions: list
    spans: dict[str, tuple[float, float]]  # trainer -> (start, end)

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.table.ent, self.table.rel):
            h.update(np.ascontiguousarray(arr).tobytes())
        for p in self.classifier.parameters() + self.ranker.encoder.parameters():
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()[:16]


def classifier_dataset(kg, questions, tax):
    return [
        (pl.tokenize_question(q.question), kg.entities.id_of(q.topic_entity), label_question(q, tax))
        for q in questions
    ]


def rank_config(sizes: Sizes, seed: int) -> RankTrainConfig:
    return RankTrainConfig(
        epochs=sizes.ranker_epochs,
        negatives=sizes.ranker_negatives,
        lr=1e-2,
        dropout=0.0,
        out_dim=16,
        ff_width=48,
        seed=seed,
    )


def train_all(kg, train_qs, tax, sizes: Sizes, seed: int) -> Trained:
    """TransE table, structure classifier and triplet ranker, in that order."""
    clf_data = classifier_dataset(kg, train_qs, tax)
    t0 = perf_counter()
    table, _ = emb.train(kg, emb.EmbedTrainConfig(d=sizes.emb_dim, epochs=sizes.emb_epochs, seed=seed), "transe")
    t1 = perf_counter()
    classifier = clf.train_classifier(
        clf_data,
        table,
        tax,
        clf.ClassifierTrainConfig(
            epochs=sizes.clf_epochs, lr=1e-2, d_model=sizes.emb_dim, use_attention=False, seed=seed
        ),
    )
    t2 = perf_counter()
    rank_qs = inputs.first_per_label(train_qs, sizes.mixed, sizes.ranker_per_label)
    rank_data = [(pl.tokenize_question(q.question), pl.gold_graph_of(q)) for q in rank_qs]
    ranker = rk.train_ranker(rank_data, kg, tax, rank_config(sizes, seed))
    t3 = perf_counter()
    spans = {"embeddings": (t0, t1), "classifier": (t1, t2), "ranker": (t2, t3)}
    return Trained(table, classifier, ranker, clf_data, rank_qs, spans)


class StepClock:
    """End time of every optimizer step and of each ranker triplet build.

    Two perf_counter reads per optimizer step; installed only around training
    in untraced runs, to split ranker training into per-question steps. With
    a HostClock, the calibration kernel runs between optimizer steps. Where
    AdamW.step or build_training_triplets is gone from the code under test,
    nothing is recorded for it.
    """

    def __init__(self, host: HostClock | None = None) -> None:
        self.host = host
        self.step_ends: list[float] = []
        self.triplets: list[tuple[float, float, int]] = []  # start, end, pairs

    def __enter__(self) -> "StepClock":
        self._step = getattr(getattr(optim, "AdamW", None), "step", None)
        self._build = getattr(rk, "build_training_triplets", None)
        clock, step, build, host = self, self._step, self._build, self.host

        def timed_step(self_, *args, **kwargs):
            out = step(self_, *args, **kwargs)
            clock.step_ends.append(perf_counter())
            if host is not None:
                host.maybe_tick()
            return out

        def timed_build(*args, **kwargs):
            t0 = perf_counter()
            out = build(*args, **kwargs)
            clock.triplets.append((t0, perf_counter(), sum(len(t[2]) for t in out)))
            return out

        if step is not None:
            optim.AdamW.step = timed_step
        if build is not None:
            rk.build_training_triplets = timed_build
        return self

    def __exit__(self, *exc) -> None:
        if self._step is not None:
            optim.AdamW.step = self._step
        if self._build is not None:
            rk.build_training_triplets = self._build


def training_throughput(trained: Trained, clock: StepClock, kg, sizes: Sizes) -> dict:
    """Throughput of the last train_all run recorded by `clock`, in reference
    time when the clock has a HostClock."""
    dur = clock.host.ref_seconds if clock.host is not None else (lambda a, b: b - a)
    out = {
        "classifier_examples_per_s": len(trained.clf_data) * sizes.clf_epochs / dur(*trained.spans["classifier"]),
        "embedding_triples_per_s": kg.num_triples * sizes.emb_epochs / dur(*trained.spans["embeddings"]),
    }
    if clock.triplets:
        t_start, t_end, pairs = clock.triplets[-1]
        # the ranker trains last, so every step after its triplet build is its
        # own; the first step also pays for vocabulary and model construction
        steps = [t for t in clock.step_ends if t > t_end]
        out["ranker_step_ms"] = [dur(a, b) * 1e3 for a, b in zip(steps, steps[1:])]
        r0, r1 = trained.spans["ranker"]
        out["ranker_pairs_per_s"] = pairs * sizes.ranker_epochs / (dur(r0, r1) - dur(t_start, t_end))
    return out


def _throughput_diagnostics(res: Result, rounds: list[dict]) -> None:
    """Training-side end-to-end figures; medians over training runs."""
    step_ms = [s for r in rounds for s in r.get("ranker_step_ms", ())]
    d = res.diagnostics
    for key, unit in (
        ("ranker_pairs_per_s", "1/s"),
        ("classifier_examples_per_s", "1/s"),
        ("embedding_triples_per_s", "1/s"),
    ):
        if all(key in r for r in rounds):
            d[key] = {"value": statistics.median(r[key] for r in rounds), "unit": unit, "n": len(rounds)}
    if len(step_ms) > 1:
        d["ranker_step_ms_p50"] = {"value": statistics.median(step_ms), "unit": "ms", "n": len(step_ms)}
        d["ranker_step_ms_p95"] = {"value": _quantile(step_ms, 95), "unit": "ms", "n": len(step_ms)}


# ---------------------------------------------------------------- tracing


def layer_metrics(tr: Tracer, n_answered: int, traced_p50: float, untraced_p50: float) -> dict:
    """Per-question self times and counts of the answer phase."""
    a = "answer"
    n = max(n_answered, 1)

    def ms(layer):
        return tr.self_s(a, layer) * 1e3 / n

    enc_calls = tr.counted(a, "encoder.calls")
    cands = tr.counted(a, "candidates.count")
    enum_calls = tr.counted(a, "candidates.calls")
    return {
        "pipeline.answer_ms": (traced_p50 * 1e3, "ms"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
        "annotation.label_ms": (ms("annotation.label"), "ms"),
        "candidates.enumerate_ms": (ms("candidates.enumerate"), "ms"),
        "candidates.count": (cands / n, "count"),
        "candidates.truncated_frac": (tr.counted(a, "candidates.truncated") / max(enum_calls, 1), "ratio"),
        "kg.adjacency_calls": (tr.counted(a, "kg.adjacency_calls") / n, "count"),
        "kg.edges_returned": (tr.counted(a, "kg.edges_returned") / n, "count"),
        "querygraph.canonicalize_calls": (tr.counted(a, "canonicalize") / n, "count"),
        "querygraph.canonicalize_ms": (ms("querygraph.canonicalize"), "ms"),
        "querygraph.serialize_ms": (ms("querygraph.serialize"), "ms"),
        "querygraph.execute_ms": (ms("querygraph.execute"), "ms"),
        "structures.filter_ms": (ms("structures.filter"), "ms"),
        "structures.kept_ratio": (tr.counted(a, "ranker.ranked") / max(cands, 1), "ratio"),
        "ranker.rank_ms": (ms("ranker.rank"), "ms"),
        "encoder.encode_calls": (enc_calls / n, "count"),
        "encoder.tokens_per_call": (tr.counted(a, "encoder.tokens") / max(enc_calls, 1), "count"),
        "autodiff.nodes_per_encode": (tr.counted(a, "node") / max(enc_calls, 1), "count"),
    }


def layer_diagnostics(tr: Tracer, n_answered: int, sizes: Sizes, train_runs: int, n_clf: int, n_rank: int) -> dict:
    """Per-layer figures that exist only where the layer runs: the learned
    layers while answering, and the training side when `train_runs` calls of
    train_all (n_clf classifier examples, n_rank ranker questions each) ran
    traced."""
    a, r = "answer", "train.ranker"
    n = max(n_answered, 1)
    out = {}
    if tr.calls(a, "classifier.predict"):
        out["classifier.predict_ms"] = (tr.self_s(a, "classifier.predict") * 1e3 / n, "ms")
    if tr.calls(a, "encoder.forward"):
        out["encoder.encode_ms"] = (tr.self_s(a, "encoder.forward") * 1e3 / n, "ms")
    if tr.counted(a, "kernels.calls"):
        out["kernels.calls_per_question"] = (tr.counted(a, "kernels.calls") / n, "count")
        out["kernels.bytes_per_question"] = (tr.counted(a, "kernels.bytes") / n, "B")
    steps = tr.counted(r, "step")
    if train_runs and steps:
        out["classifier.train_ms_per_example"] = (
            tr.incl_s("train.classifier", "classifier.train") * 1e3 / (train_runs * n_clf * sizes.clf_epochs),
            "ms",
        )
        out["embeddings.epoch_ms"] = (
            tr.incl_s("train.embeddings", "embeddings.train") * 1e3 / (train_runs * sizes.emb_epochs),
            "ms",
        )
        out["ranker.triplet_build_ms"] = (tr.incl_s(r, "ranker.triplet_build") * 1e3 / (train_runs * n_rank), "ms")
        out["encoder.forward_ms_train"] = (tr.self_s(r, "encoder.forward") * 1e3 / steps, "ms")
        out["autodiff.nodes_per_step"] = (tr.counted(r, "node") / steps, "count")
        out["autodiff.backward_ms"] = (tr.self_s(r, "autodiff.backward") * 1e3 / steps, "ms")
        out["optim.adamw_ms"] = (tr.self_s(r, "optim.adamw") * 1e3 / steps, "ms")
        out["optim.clip_ms"] = (tr.self_s(r, "optim.clip") * 1e3 / steps, "ms")
        if tr.counted(r, "kernels.calls"):
            out["kernels.calls_per_step"] = (tr.counted(r, "kernels.calls") / steps, "count")
            out["kernels.bytes_per_step"] = (tr.counted(r, "kernels.bytes") / steps, "B")
    return out


def _traced_answering(res, items, seconds, tr: Tracer, clock: HostClock):
    """Traced whole passes; per-question candidate counts from the tracer."""
    counts: list[float] = []
    last = [0.0]

    def on_answer(_o):
        now = tr.counted("answer", "candidates.count")
        counts.append(now - last[0])
        last[0] = now

    tr.phase = "answer"
    spans, passes, _, _ = timed_passes(items, seconds, on_answer, clock)
    tr.phase = "setup"
    res.diagnostics["candidate_count_distribution"] = _distribution(counts[: len(items)])
    return spans, passes


def _distribution(values) -> dict:
    if not values:
        return {}
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"min": min(values), "q1": qs[0], "median": qs[1], "q3": qs[2], "max": max(values), "n": len(values)}


def _check_digests(res: Result, name: str, digests: list[str]) -> None:
    if len(set(digests)) != 1:
        res.problems.append(f"{name} digests differ: {sorted(set(digests))}")


def _ref_p50(clock: HostClock, spans) -> float:
    return statistics.median(clock.ref_seconds(a, b) for a, b in spans)


def _finish_trace(res, tr, n_answered, traced_p50, untraced_p50, diag):
    """traced_p50 and untraced_p50 are answer times in reference seconds."""
    res.metrics.update(present(layer_metrics(tr, n_answered, traced_p50, untraced_p50), tr.absent))
    res.diagnostics["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in present(diag, tr.absent).items()}
    res.diagnostics["absent"] = sorted(set(tr.absent))
    res.diagnostics["kernels.bytes_note"] = "computed from array sizes (nbytes of arguments and results)"
    res.diagnostics["traced_answers"] = n_answered


# ---------------------------------------------------------------- workloads


def _inference(seed, seconds, trace, sizes, setups, setup, require_all_hits, distinct):
    """Shared body of chain3_overlap and mixed_learned.

    setup(seed, sizes, host, i) builds set-up i. With `distinct`, set-up i is
    problem i and every problem is answered; otherwise every set-up builds the
    same problem, which the digests check, and the last one is answered."""
    res = Result()
    tr = Tracer() if trace else None
    host = HostClock()
    setup_times, digests, throughput = [], [], []

    def set_up(i: int, traced: bool):
        gc.collect()
        host.tick()
        t0 = perf_counter()
        if traced:
            with tr:
                state = setup(seed, sizes, None, i)
        else:
            state = setup(seed, sizes, host, i)
        t1 = perf_counter()
        host.tick()
        setup_times.append(host.ref_seconds(t0, t1))
        digests.append(state["digest"])
        if "throughput" in state:
            throughput.append(state["throughput"])
        return state

    states = [set_up(0, False)]
    warm_up(states[0]["items"], sizes.warmup_s)
    for i in range(1, setups):
        if not distinct:
            states = []  # free the previous copy first: peak_rss_mb counts one
        states.append(set_up(i, trace and i == setups - 1))
    if throughput and not trace:
        _throughput_diagnostics(res, throughput)
    if not distinct:
        _check_digests(res, "set-up model", digests)
    items = [item for s in states for item in s["items"]]
    res.diagnostics["inputs"] = [s["diag"] for s in states]

    gc.collect()
    if not trace:
        spans, passes, pass_spans, steal = timed_passes(items, seconds, clock=host)
        _latency_metrics(res, spans, len(items), pass_spans, host)
        quality = _quality(passes[0])
        _common_metrics(res, quality, setup_times)
        res.diagnostics["steal_ticks"] = steal
        res.diagnostics["passes"] = len(passes)
    else:
        untraced: list[tuple[float, float]] = []
        reference = answer_pass(items, untraced, clock=host)
        with tr:
            spans, passes = _traced_answering(res, items, seconds, tr, host)
        traced_p50 = _ref_p50(host, spans[: len(items)])
        passes = [reference] + passes
        quality = _quality(reference)
        n = len(spans)
        last = states[-1]  # the traced set-up
        diag = layer_diagnostics(tr, n, sizes, int(last.get("trained", False)), last.get("n_clf", 0), last.get("n_rank", 0))
        _finish_trace(res, tr, n, traced_p50, _ref_p50(host, untraced), diag)
    _check_digests(res, "answer", _pass_digests(passes))
    res.attempted = sum(len(p) for p in passes)
    res.failed = sum(not o.ok for p in passes for o in p)
    res.diagnostics["failed_frac"] = res.failed / res.attempted
    res.diagnostics["answer_digest"] = _pass_digests(passes)[0]
    res.diagnostics["hits_at_1"] = quality["hits_at_1"]
    if require_all_hits and quality["hits_at_1"] != 100.0:
        # filtering must remove the 1-hop shortcut decoy from every question
        res.problems.append(f"hits_at_1 is {quality['hits_at_1']}, not 100")
    return res


def _chain3_setup(seed, sizes, host, i):
    kg, questions = inputs.chain3_inputs(seed, sizes.chain3_questions)
    tax = st.builtin_taxonomy()
    cfg = pl.PipelineConfig(kg=kg, taxonomy=tax, ranker=TokenOverlapRanker(), mode="oracle")
    return {
        "items": [(cfg, q) for q in questions],
        "digest": _digest([kg.num_triples, kg.num_relations, [q.question for q in questions]]),
        "diag": {
            "kg": {"entities": kg.num_entities, "relations": kg.num_relations, "triples": kg.num_triples},
            "questions": len(questions),
            "label_histogram": inputs.label_histogram(questions, tax),
        },
    }


def _mixed_setup(seed, sizes, host, i):
    """Problem i of the run: its inputs and models, trained from its own seed."""
    seed = inputs.problem_seeds(seed, sizes.problems)[i]
    tax = st.builtin_taxonomy()
    kg, train_qs, test_qs = inputs.mixed_inputs(seed, tax, sizes.mixed)
    with StepClock(host) as clock:
        trained = train_all(kg, train_qs, tax, sizes, seed)
    cfg = pl.PipelineConfig(
        kg=kg, taxonomy=tax, ranker=trained.ranker, classifier=trained.classifier, mode="predicted"
    )
    return {
        "items": [(cfg, q) for q in test_qs],
        "digest": trained.digest(),
        "trained": True,
        "n_clf": len(trained.clf_data),
        "n_rank": len(trained.rank_questions),
        "throughput": training_throughput(trained, clock, kg, sizes),
        "diag": {
            "kg": {"entities": kg.num_entities, "relations": kg.num_relations, "triples": kg.num_triples},
            "questions": len(test_qs),
            "train_questions": len(train_qs),
            "ranker_train_questions": len(trained.rank_questions),
            "label_histogram": inputs.label_histogram(test_qs, tax),
            "train_label_histogram": inputs.label_histogram(train_qs, tax),
            "training_wall_s": {k: b - a for k, (a, b) in trained.spans.items()},
        },
    }


def run_chain3_overlap(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    return _inference(seed, seconds, trace, sizes, sizes.chain3_setups, _chain3_setup, True, False)


def run_mixed_learned(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    return _inference(seed, seconds, trace, sizes, sizes.problems, _mixed_setup, False, True)


def run_train_models(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    """Round r trains embeddings, classifier and ranker on the mixed_learned
    training split of problem r mod `sizes.problems`, then answers a
    label-weighted part of that split in oracle mode. Rounds repeat for
    `seconds`, and at least once per problem. questions_per_s counts answered
    questions over a round's full time, training included."""
    res = Result()
    tax = st.builtin_taxonomy()
    host = HostClock()
    setup_times = []
    problems = []  # (seed, kg, training questions, answered questions)

    def set_up(pseed: int) -> None:
        gc.collect()
        host.tick()
        t0 = perf_counter()
        kg, train_qs, _ = inputs.mixed_inputs(pseed, tax, sizes.mixed)
        t1 = perf_counter()
        host.tick()
        setup_times.append(host.ref_seconds(t0, t1))
        answer_qs = inputs.weighted_per_label(train_qs, sizes.mixed, sizes.train_answer_unit)
        problems.append((pseed, kg, train_qs, answer_qs))

    pseeds = inputs.problem_seeds(seed, sizes.problems)
    set_up(pseeds[0])
    _, kg, train_qs, answer_qs = problems[0]
    warm_sizes = replace(sizes, emb_epochs=1, clf_epochs=1, ranker_epochs=1, ranker_per_label=1)
    t0 = perf_counter()
    while True:
        warm = train_all(kg, train_qs, tax, warm_sizes, pseeds[0])
        cfg = pl.PipelineConfig(kg=kg, taxonomy=tax, ranker=warm.ranker, mode="oracle")
        warm_up([(cfg, q) for q in answer_qs], 0.5)
        if perf_counter() - t0 >= sizes.warmup_s:
            break
    for pseed in pseeds[1:]:
        set_up(pseed)
    res.diagnostics["inputs"] = [
        {
            "kg": {"entities": kg.num_entities, "relations": kg.num_relations, "triples": kg.num_triples},
            "train_questions": len(train_qs),
            "answered_questions": len(answer_qs),
            "label_histogram": inputs.label_histogram(answer_qs, tax),
        }
        for _, kg, train_qs, answer_qs in problems
    ]
    per_round = len(problems[0][3])  # every problem answers as many per label
    gc.collect()

    def round_(r: int, tracer=None):
        pseed, kg, train_qs, answer_qs = problems[r % len(problems)]
        trained = train_all(kg, train_qs, tax, sizes, pseed)
        acc = trained.classifier.accuracy(trained.clf_data)
        cfg = pl.PipelineConfig(kg=kg, taxonomy=tax, ranker=trained.ranker, mode="oracle")
        spans: list[tuple[float, float]] = []
        if tracer:
            tracer.phase = "answer"
        outcomes = answer_pass([(cfg, q) for q in answer_qs], spans, clock=host)
        if tracer:
            tracer.phase = "setup"
        return trained, acc, spans, outcomes

    rounds, spans = [], []  # (problem, classifier accuracy, outcomes, model digest)
    if not trace:
        steal0 = _steal_ticks()
        t0 = perf_counter()
        throughput, round_spans = [], []
        while perf_counter() - t0 < seconds or len(rounds) < len(problems):
            k = len(rounds) % len(problems)
            host.tick()
            t_round = perf_counter()
            with StepClock(host) as clock:
                trained, acc, s, outcomes = round_(k)
            round_spans.append((t_round, perf_counter()))
            throughput.append(training_throughput(trained, clock, problems[k][1], sizes))
            rounds.append((k, acc, outcomes, trained.digest()))
            spans += s
        host.tick()
        steal1 = _steal_ticks()
        _latency_metrics(res, spans, per_round, round_spans, host, repeated=False)
        _throughput_diagnostics(res, throughput)
        res.diagnostics["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    else:
        trained, acc, untraced, outcomes = round_(0)
        rounds.append((0, acc, outcomes, trained.digest()))
        tr = Tracer()
        t0 = perf_counter()
        with tr:
            while True:  # traced rounds start again at problem 0 and cover all
                k = (len(rounds) - 1) % len(problems)
                trained, acc, s, outcomes = round_(k, tr)
                rounds.append((k, acc, outcomes, trained.digest()))
                spans += s
                if perf_counter() - t0 >= seconds and len(rounds) > len(problems):
                    break
        n = len(spans)
        diag = layer_diagnostics(tr, n, sizes, len(rounds) - 1, len(trained.clf_data), len(trained.rank_questions))
        host.tick()
        traced_p50 = _ref_p50(host, spans[:per_round])
        _finish_trace(res, tr, n, traced_p50, _ref_p50(host, untraced), diag)
    first = {}
    for k, acc, outcomes, digest in rounds:
        first.setdefault(k, (acc, outcomes))
        same = [r for r in rounds if r[0] == k]
        _check_digests(res, f"problem {k} trained model", [r[3] for r in same])
        _check_digests(res, f"problem {k} answer", [_digest([o.key for o in r[2]]) for r in same])
    pooled = [o for _, outcomes in first.values() for o in outcomes]
    quality = _quality(pooled)
    quality["structure_acc"] = 100.0 * statistics.mean(acc for acc, _ in first.values())
    if not trace:
        _common_metrics(res, quality, setup_times)
    res.attempted = sum(len(r[2]) for r in rounds)
    res.failed = sum(not o.ok for r in rounds for o in r[2])
    res.diagnostics["failed_frac"] = res.failed / res.attempted
    res.diagnostics["rounds"] = len(rounds)
    res.diagnostics["answer_digest"] = _digest([o.key for o in pooled])
    res.diagnostics["hits_at_1"] = quality["hits_at_1"]
    return res


WORKLOADS = {
    "chain3_overlap": run_chain3_overlap,
    "mixed_learned": run_mixed_learned,
    "train_models": run_train_models,
}
