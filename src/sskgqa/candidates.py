"""Candidate query graph enumeration: satisfiable chains within n hops."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

from .kg import KnowledgeGraph, step
from .querygraph import Chain

MAX_HOPS = 3
# The shapes (hop count, constrained path positions) of the chains enumeration
# emits: no constraint, or one on a path node after the topic.
SHAPES = frozenset((h, at) for h in range(1, MAX_HOPS + 1) for at in ((), *((k,) for k in range(1, h + 1))))


@dataclass
class EnumConfig:
    max_hops: int = MAX_HOPS
    attach_constraints: bool = False
    max_candidates: int = 10000

    def __post_init__(self) -> None:
        if not 1 <= self.max_hops <= MAX_HOPS:
            raise ValueError(f"max_hops must be in 1..{MAX_HOPS}")
        if self.max_candidates <= 0:
            raise ValueError("max_candidates must be positive")


@dataclass
class EnumResult:
    graphs: list[Chain]
    truncated: bool


def derived_enum(base: EnumConfig, shape: tuple[int, tuple[int, ...]]) -> EnumConfig:
    """Restrict enumeration to the shape's hop count and constraint need."""
    return replace(base, max_hops=min(base.max_hops, shape[0]), attach_constraints=bool(shape[1]))


def _shapes(max_hops: int, attach: bool, shape: tuple | None) -> set:
    """The members of SHAPES to emit: those within max_hops that equal
    `shape` when it is given, else the constrained ones only with attach."""
    return {s for s in SHAPES if s[0] <= max_hops and (s == shape if shape is not None else not s[1] or attach)}


def enumerate_candidates(
    kg: KnowledgeGraph, topic: str, cfg: EnumConfig, shape: tuple[int, tuple[int, ...]] | None = None
) -> EnumResult:
    """All satisfiable chain candidates from `topic` within cfg.max_hops, each
    optionally extended by one satisfiable constraint edge.

    Chains are distinct relation-direction sequences whose execution is
    non-empty; constraint values come from actual KG out-edges at the
    constrained node. Deterministic order, truncated at cfg.max_candidates.
    Candidates are distinct by construction: each is a distinct (hops,
    constraint) walk, so no two are equal chains.

    With `shape`, a (hop count, constrained positions) pair, only the
    candidates of that shape are built, whatever cfg.attach_constraints says:
    the chains of that shape in the enumeration under `derived_enum(cfg,
    shape)`, in the same order, except that max_candidates counts only them.
    """
    topic_id = kg.entities.id_of(topic)
    shapes = _shapes(cfg.max_hops, cfg.attach_constraints, shape)
    depth = max((h for h, _ in shapes), default=0)
    walk = _chains(kg, topic, shapes, depth, (), ({topic_id},))
    found = list(islice(walk, cfg.max_candidates + 1))
    return EnumResult(found[: cfg.max_candidates], truncated=len(found) > cfg.max_candidates)


def _chains(kg, topic, shapes, depth, hops, frontiers):
    """The `Chain`s of `shapes` from `topic` that extend `hops`, the (relation
    id, back) pairs walked so far, depth first. `frontiers[k]` holds the
    entities reached after k hops. Each new hop yields its plain chain, then
    one chain per constraint (path node after the topic, relation, value)
    that a full binding meets, then the chains that extend it."""
    rel, frontier = kg.relations.symbol_of, frontiers[-1]
    for rid in range(kg.num_relations):
        for rev in (False, True):
            nxt = step(kg, frontier, rid, rev)
            if not nxt:
                continue
            new_hops = hops + ((rid, rev),)
            new_frontiers = frontiers + (nxt,)
            n = len(new_hops)
            path = tuple((rel(r), back) for r, back in new_hops)
            if (n, ()) in shapes:
                yield Chain(topic, path)
            for at in range(1, n + 1):
                if (n, (at,)) in shapes:
                    feas = _feasible_at(kg, new_frontiers, new_hops, at)
                    for r, v in sorted({(r, v) for e in feas for r, vs in kg.tails_of[e].items() for v in vs}):
                        yield Chain(topic, path, ((at, rel(r), False, kg.entities.symbol_of(v)),))
            if n < depth:
                yield from _chains(kg, topic, shapes, depth, new_hops, new_frontiers)


def _feasible_at(kg, frontiers, hops, at) -> set[int]:
    """Entities at path node `at` of the chain that admit a full binding."""
    feas = frontiers[-1]
    # walk the chain suffix backwards, keeping the entities at node k that have
    # a hop-k edge into the feasible set at node k+1. Each test reads only the
    # hop relation's edges that the forward step from node k read; a reverse
    # step from the feasible set would read every in-edge of a hub there.
    for k in range(len(hops) - 1, at - 1, -1):
        rid, rev = hops[k]
        index = kg.heads_of if rev else kg.tails_of
        feas = {p for p in frontiers[k] if not feas.isdisjoint(index[p].get(rid, ()))}
    return feas
