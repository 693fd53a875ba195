"""Candidate query graph enumeration: satisfiable chains within n hops."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .kg import KnowledgeGraph, step
from .querygraph import QueryGraph, build_chain
from .structures import SemanticStructure, chain_structure, isomorphic


@dataclass
class EnumConfig:
    max_hops: int = 3
    attach_constraints: bool = False
    constraint_relations: list[str] | None = None  # allowlist of relation symbols
    max_candidates: int = 10000

    def __post_init__(self) -> None:
        if not 1 <= self.max_hops <= 3:
            raise ValueError("max_hops must be in 1..3")
        if self.max_candidates <= 0:
            raise ValueError("max_candidates must be positive")


@dataclass
class EnumResult:
    graphs: list[QueryGraph] = field(default_factory=list)
    truncated: bool = False


def derived_enum(base: EnumConfig, ss: SemanticStructure | None) -> EnumConfig:
    """Restrict enumeration to the structure's hop count and constraint need."""
    if ss is None:
        return base
    return EnumConfig(
        max_hops=min(base.max_hops, ss.hop_count()),
        attach_constraints=ss.has_constraints(),
        constraint_relations=base.constraint_relations,
        max_candidates=base.max_candidates,
    )


@lru_cache(maxsize=256)
def _shapes(max_hops: int, attach: bool, ss: SemanticStructure | None) -> frozenset:
    """(hop count, constrained chain node or None) of the chains to emit."""
    shapes = {(h, at) for h in range(1, max_hops + 1) for at in (None, *range(1, h + 1))}
    if ss is not None:
        return frozenset(s for s in shapes if isomorphic(chain_structure(*s), ss))
    return frozenset(s for s in shapes if s[1] is None or attach)


def enumerate_candidates(
    kg: KnowledgeGraph, topic: str, cfg: EnumConfig, ss: SemanticStructure | None = None
) -> EnumResult:
    """All satisfiable chain candidates from `topic` within cfg.max_hops, each
    optionally extended by one satisfiable constraint edge.

    Chains are distinct relation-direction sequences whose execution is
    non-empty; constraint values come from actual KG out-edges at the
    constrained node. Deterministic order, truncated at cfg.max_candidates.
    Candidates are distinct by construction: each is a distinct (hops,
    constraint) chain whose topic and answer nodes pin both ends of its path,
    so no two are isomorphic.

    With `ss`, only the candidates whose structure is ss are built, whatever
    cfg.attach_constraints says: the graphs `filter_candidates(..., ss)` keeps
    from the enumeration under `derived_enum(cfg, ss)`, in the same order,
    except that max_candidates counts only them.
    """
    topic_id = kg.entities.id_of(topic)
    shapes = _shapes(cfg.max_hops, cfg.attach_constraints, ss)
    depth = max((h for h, _ in shapes), default=0)
    allow = (
        None
        if cfg.constraint_relations is None
        else {kg.relations.id_of(r) for r in cfg.constraint_relations}
    )
    result = EnumResult()

    def emit(g: QueryGraph) -> bool:
        if len(result.graphs) >= cfg.max_candidates:
            result.truncated = True
            return False
        result.graphs.append(g)
        return True

    rel_ids = range(kg.num_relations)

    def constraint_variants(hops, frontiers):
        """One constraint per variable node of the chain (hop index >= 1)."""
        for hop_idx in range(1, len(hops) + 1):
            if (len(hops), hop_idx) not in shapes:
                continue
            # entities at hop_idx that extend to a full binding
            feas = _feasible_at(kg, frontiers, hops, hop_idx)
            pairs = set()
            for e in feas:
                for r, val in kg.out_edges(e):
                    if allow is not None and r not in allow:
                        continue
                    pairs.add((r, val))
            for r, val in sorted(pairs):
                g = build_chain(
                    topic,
                    hops_syms(hops),
                    [(hop_idx, kg.relations.symbol_of(r), kg.entities.symbol_of(val))],
                )
                # constrained chain is satisfiable by construction (value taken
                # from an edge of a feasible binding)
                if not emit(g):
                    return False
        return True

    def hops_syms(hops):
        return [(kg.relations.symbol_of(r), rev) for r, rev in hops]

    def recurse(hops, frontiers) -> bool:
        frontier = frontiers[-1]
        for rid in rel_ids:
            for rev in (False, True):
                nxt = step(kg, frontier, rid, rev)
                if not nxt:
                    continue
                new_hops = hops + [(rid, rev)]
                new_frontiers = frontiers + [nxt]
                if (len(new_hops), None) in shapes:
                    if not emit(build_chain(topic, hops_syms(new_hops))):
                        return False
                if not constraint_variants(new_hops, new_frontiers):
                    return False
                if len(new_hops) < depth:
                    if not recurse(new_hops, new_frontiers):
                        return False
        return True

    if depth:
        recurse([], [{topic_id}])
    return result


def _feasible_at(kg, frontiers, hops, hop_idx) -> set[int]:
    """Entities at position hop_idx of the chain that admit a full binding."""
    feas = set(frontiers[-1])
    # walk the chain suffix backwards: p at position k is feasible when some
    # step from p lands in the feasible set at k+1
    for k in range(len(hops) - 1, hop_idx - 1, -1):
        rid, rev = hops[k]
        feas = {p for p in frontiers[k] if step(kg, {p}, rid, rev) & feas}
    return feas
