"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the entry points of each sskgqa layer with
wrappers that record spans (self time and calls) and counts; `uninstall()`
puts the originals back. A function imported by name into other modules
(`from .querygraph import canonicalize`) is replaced at every such import
site, so every caller goes through the wrapper. A target that does not exist
in the code under test is skipped and listed in `Tracer.absent`.

Spans are aggregated in memory by (context, layer). The context is "answer"
while the harness answers questions, the trainer in progress ("train.ranker",
"train.classifier", "train.embeddings") inside a training call, and "setup"
otherwise.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PKG = "sskgqa"

# Spans of these layers entered while an annotation.label span is innermost
# stay part of labelling (find_match abstracts and canonicalizes).
LABEL_INTERNAL = ("structures.filter",)

TRAINERS = {
    "embeddings.train": "train.embeddings",
    "classifier.train": "train.classifier",
    "ranker.train": "train.ranker",
}


KERNELS = ("softmax_rows", "softmax_rows_backward", "complex_mul_packed", "adamw_update", "scale_inplace")


@dataclass(frozen=True)
class Target:
    layer: str  # span name; "" for count-only targets
    module: str  # module inside the package
    name: str  # "func" or "Class.method"
    count: str = ""  # how to count: see Tracer._counting


TARGETS = (
    Target("pipeline.answer", "pipeline", "answer_question"),
    Target("annotation.label", "annotation", "label_question"),
    Target("classifier.predict", "classifier", "ClassifierModel.predict"),
    Target("classifier.train", "classifier", "train_classifier"),
    Target("candidates.enumerate", "candidates", "enumerate_candidates", "enum"),
    Target("", "kg", "KnowledgeGraph.out_edges", "adjacency"),
    Target("", "kg", "KnowledgeGraph.in_edges", "adjacency"),
    Target("querygraph.canonicalize", "querygraph", "canonicalize", "canonicalize"),
    Target("querygraph.serialize", "querygraph", "serialize_tokens"),
    Target("querygraph.execute", "querygraph", "execute"),
    Target("structures.filter", "structures", "abstract"),
    Target("structures.filter", "structures", "SemanticStructure.canonical"),
    Target("ranker.rank", "ranker", "rank_candidates", "ranked"),
    Target("ranker.triplet_build", "ranker", "build_training_triplets"),
    Target("ranker.train", "ranker", "train_ranker"),
    Target("encoder.forward", "encoder", "SequenceEncoder.forward", "forward"),
    Target("", "autodiff", "Node.__init__", "node"),
    Target("autodiff.backward", "autodiff", "backward"),
    Target("optim.adamw", "optim", "AdamW.step", "step"),
    Target("optim.clip", "optim", "clip_global_norm"),
    *(Target("", "kernels", k, "kernel") for k in KERNELS),
    Target("embeddings.train", "embeddings", "train"),
)


# Metric name prefix -> targets the metric is computed from. A metric whose
# target is absent from the code under test is left out of the report.
NEEDS = {
    "annotation.": ("annotation.label_question",),
    "candidates.": ("candidates.enumerate_candidates",),
    "kg.": ("kg.KnowledgeGraph.out_edges", "kg.KnowledgeGraph.in_edges"),
    "querygraph.canonicalize": ("querygraph.canonicalize",),
    "querygraph.serialize": ("querygraph.serialize_tokens",),
    "querygraph.execute": ("querygraph.execute",),
    "structures.filter": ("structures.abstract", "structures.SemanticStructure.canonical"),
    "structures.kept": ("ranker.rank_candidates", "candidates.enumerate_candidates"),
    "ranker.rank": ("ranker.rank_candidates",),
    "ranker.triplet": ("ranker.build_training_triplets",),
    "classifier.predict": ("classifier.ClassifierModel.predict",),
    "classifier.train": ("classifier.train_classifier",),
    "encoder.": ("encoder.SequenceEncoder.forward",),
    "autodiff.nodes": ("autodiff.Node.__init__", "encoder.SequenceEncoder.forward"),
    "autodiff.backward": ("autodiff.backward",),
    "optim.adamw": ("optim.AdamW.step",),
    "optim.clip": ("optim.clip_global_norm",),
    "kernels.": tuple(f"kernels.{k}" for k in KERNELS),
    "embeddings.": ("embeddings.train",),
}


def present(metrics: dict, absent) -> dict:
    """metrics without those whose targets are absent."""
    gone = set(absent)
    return {
        name: v
        for name, v in metrics.items()
        if not any(name.startswith(p) and gone.intersection(t) for p, t in NEEDS.items())
    }


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self) -> None:
        # (context, layer) -> [calls, self seconds, inclusive seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (context, counter name) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._trainer: str | None = None
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- context --------------------------------------------------------

    @property
    def context(self) -> str:
        return self._trainer or self.phase

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, fn, counting: str):
        trainer = TRAINERS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == "annotation.label" and layer in LABEL_INTERNAL:
                return fn(*args, **kwargs)
            outer_trainer = tracer._trainer
            if trainer is not None:
                tracer._trainer = trainer
            ctx = tracer.context
            stack.append([layer, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                _, child = stack.pop()
                rec = tracer.spans[(ctx, layer)]
                rec[0] += 1
                rec[1] += dt - child
                rec[2] += dt
                if stack:
                    stack[-1][1] += dt
                tracer._trainer = outer_trainer
            if counting:
                tracer._counting(counting, args, result, ctx)
            return result

        return wrapper

    def _counter(self, fn, counting: str):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._counting(counting, args, result, tracer.context)
            return result

        return wrapper

    def _counting(self, how, args, result, ctx) -> None:
        c = self.counts
        if how in ("canonicalize", "node", "step"):
            c[(ctx, how)] += 1
        elif how == "adjacency":
            c[(ctx, "kg.adjacency_calls")] += 1
            c[(ctx, "kg.edges_returned")] += len(result)
        elif how == "enum":
            c[(ctx, "candidates.calls")] += 1
            c[(ctx, "candidates.count")] += len(result.graphs)
            c[(ctx, "candidates.truncated")] += bool(getattr(result, "truncated", False))
        elif how == "ranked":
            c[(ctx, "ranker.ranked")] += len(args[2])
        elif how == "forward":
            c[(ctx, "encoder.calls")] += 1
            c[(ctx, "encoder.tokens")] += len(args[1])
        elif how == "kernel":
            c[(ctx, "kernels.calls")] += 1
            out = result if isinstance(result, np.ndarray) else None
            c[(ctx, "kernels.bytes")] += _nbytes(args) + (out.nbytes if out is not None else 0)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == PKG or n.startswith(PKG + ".")]
        for t in TARGETS:
            try:
                mod = importlib.import_module(f"{PKG}.{t.module}")
            except ImportError:
                self.absent.append(f"{t.module}.{t.name}")
                continue
            if "." in t.name:
                cls_name, meth = t.name.split(".")
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None or meth not in vars(cls):
                    self.absent.append(f"{t.module}.{t.name}")
                    continue
                self._patch(cls, meth, self._wrap(t, orig))
                continue
            orig = getattr(mod, t.name, None)
            if orig is None:
                self.absent.append(f"{t.module}.{t.name}")
                continue
            wrapped = self._wrap(t, orig)
            for m in modules + [mod]:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapped)

    def _wrap(self, t: Target, orig):
        if t.layer:
            return self._span(t.layer, orig, t.count)
        return self._counter(orig, t.count)

    def _patch(self, owner, attr: str, value) -> None:
        if any(o is owner and a == attr for o, a, _ in self._patched):
            return
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading --------------------------------------------------------

    def self_s(self, ctx: str, layer: str) -> float:
        return self.spans[(ctx, layer)][1] if (ctx, layer) in self.spans else 0.0

    def incl_s(self, ctx: str, layer: str) -> float:
        return self.spans[(ctx, layer)][2] if (ctx, layer) in self.spans else 0.0

    def calls(self, ctx: str, layer: str) -> int:
        return self.spans[(ctx, layer)][0] if (ctx, layer) in self.spans else 0

    def counted(self, ctx: str, name: str) -> float:
        return self.counts.get((ctx, name), 0.0)
