"""Predicate-prefix layering of knowledge bases.

A set of predicates splits a knowledge base when every axiom lies entirely
inside or outside it and every rule whose head it covers has all its
predicates covered too.  A chain of such sets slices the base into layers;
each layer is solved against the accumulated solution of the ones below it,
with body literals over lower predicates evaluated away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotUpdatable
from .interp import (
    Atom,
    DEFAULT_LIMITS,
    EngineLimits,
    ModelSet,
    Sentence,
    holds_known,
    holds_not,
)
from .kbmodel import Axiom, DynamicHybridKb, HybridKb, Ontology, RuleSchema
from .rules import Rule


@dataclass(frozen=True)
class SplitCheckReport:
    """Why a predicate set fails to split a knowledge base.

    Each violation pairs the offending statement with one predicate inside
    the set and one that escapes it.  An empty report means the set splits.
    """

    violations: tuple[tuple[Axiom | RuleSchema, tuple[str, str]], ...]

    def ok(self) -> bool:
        return not self.violations


def split_check(kb: HybridKb, preds: frozenset[str]) -> SplitCheckReport:
    violations: list[tuple[Axiom | RuleSchema, tuple[str, str]]] = []
    for axiom in kb.ontology.axioms:
        used = axiom.predicates()
        if not (used <= preds or used.isdisjoint(preds)):
            inside = min(used & preds)
            outside = min(used - preds)
            violations.append((axiom, (inside, outside)))
    for schema in kb.program:
        if schema.head_pred() in preds and not schema.predicates() <= preds:
            outside = min(schema.predicates() - preds)
            violations.append((schema, (schema.head_pred(), outside)))
    return SplitCheckReport(tuple(violations))


def is_splitting_set(kb: HybridKb, preds: frozenset[str]) -> bool:
    return split_check(kb, preds).ok()


@dataclass(frozen=True)
class LayerPlan:
    """Increasing chain of predicate sets, the last covering the signature."""

    cumulative: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cumulative", tuple(frozenset(u) for u in self.cumulative)
        )

    def slices(self) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
        lo: frozenset[str] = frozenset()
        for hi in self.cumulative:
            yield lo, hi
            lo = hi

    def __len__(self) -> int:
        return len(self.cumulative)

    @classmethod
    def from_json(cls, data: object) -> "LayerPlan":
        if not isinstance(data, list) or not all(
            isinstance(layer, list) and all(isinstance(p, str) for p in layer)
            for layer in data
        ):
            raise ValueError("a layer plan is a list of predicate name lists")
        return cls(tuple(frozenset(layer) for layer in data))

    def validate(self, dkb: DynamicHybridKb) -> None:
        if not self.cumulative:
            raise ValueError("a layer plan needs at least one layer")
        declared = frozenset(dkb.sig.predicates)
        prev: frozenset[str] = frozenset()
        for u in self.cumulative:
            if not prev < u and not (len(self.cumulative) == 1 and not declared):
                raise ValueError("layer predicate sets must strictly increase")
            prev = u
        if self.cumulative[-1] != declared:
            missing = sorted(declared - self.cumulative[-1])
            extra = sorted(self.cumulative[-1] - declared)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"undeclared {extra}")
            raise ValueError(
                "last layer must cover the declared predicates exactly: "
                + "; ".join(detail)
            )
        for u in self.cumulative:
            for stage, kb in enumerate(dkb.stages):
                if not is_splitting_set(kb, u):
                    raise ValueError(
                        f"{sorted(u)} does not split the stage {stage} knowledge base"
                    )


def bottom(kb: HybridKb, preds: frozenset[str]) -> HybridKb:
    """Statements mentioning only predicates from the given set."""
    axioms = tuple(a for a in kb.ontology.axioms if a.predicates() <= preds)
    assertions = tuple(a for a in kb.ontology.assertions if a.pred in preds)
    program = tuple(r for r in kb.program if r.predicates() <= preds)
    return HybridKb(kb.sig, Ontology(axioms, assertions), program)


def top(kb: HybridKb, preds: frozenset[str]) -> HybridKb:
    """Statements escaping the given set; complements bottom."""
    axioms = tuple(
        a for a in kb.ontology.axioms if not a.predicates() <= preds
    )
    assertions = tuple(a for a in kb.ontology.assertions if a.pred not in preds)
    program = tuple(r for r in kb.program if not r.predicates() <= preds)
    return HybridKb(kb.sig, Ontology(axioms, assertions), program)


def slice_stage(
    kb: HybridKb, lo: frozenset[str], hi: frozenset[str]
) -> HybridKb:
    """Part of one knowledge base strictly between two prefix sets."""
    return top(bottom(kb, hi), lo)


def reduce_stage(
    slice_kb: HybridKb,
    lo: frozenset[str],
    prefix: ModelSet,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> tuple[list[Sentence], list[Rule]]:
    """Ground a slice and evaluate away body literals over lower predicates.

    A rule instance survives when the prefix solution makes every lower
    positive literal known and every lower default literal possibly false;
    surviving instances keep only their in-layer body.
    """
    sig = slice_kb.sig
    sentences = slice_kb.ontology.ground(sig)
    reduced: list[Rule] = []
    for rule in slice_kb.ground_rules():
        keep = True
        new_body: list[tuple[bool, int]] = []
        for positive, atom in rule.body:
            if sig.pred_of(atom) in lo:
                if positive:
                    ok = holds_known(prefix, Atom(atom), limits)
                else:
                    ok = holds_not(prefix, Atom(atom), limits)
                if not ok:
                    keep = False
                    break
            else:
                new_body.append((positive, atom))
        if keep:
            reduced.append(Rule(rule.head, tuple(new_body)))
    return sentences, reduced


ONTOLOGY_LAYER = "ontology"
RULE_LAYER = "rules"
MIXED_LAYER = "mixed"


def layer_kind(slices: Sequence[HybridKb], lo: frozenset[str]) -> str:
    """Character of one layer across its stage slices; ontology wins ties.

    A layer is ontology-like when every rule has a plain head and a body the
    lower layers decide, and rule-like when it has no ontology content.
    """
    if all(
        r.is_positive() and r.body_predicates() <= lo
        for s in slices
        for r in s.program
    ):
        return ONTOLOGY_LAYER
    if all(s.ontology.is_empty() for s in slices):
        return RULE_LAYER
    return MIXED_LAYER


def _stages_layer_kind(
    dkb: DynamicHybridKb, lo: frozenset[str], hi: frozenset[str]
) -> str:
    """Character of the layer between two prefix sets across all stages."""
    return layer_kind([slice_stage(kb, lo, hi) for kb in dkb.stages], lo)


def layer_kinds(dkb: DynamicHybridKb, plan: LayerPlan) -> list[str]:
    """Character of each layer across all stages; ontology wins ties."""
    return [_stages_layer_kind(dkb, lo, hi) for lo, hi in plan.slices()]


# ---------------------------------------------------------------------------
# plan suggestion


def suggest_plan(dkb: DynamicHybridKb) -> LayerPlan:
    """Greedy layer plan over one predicate graph of all stages.

    A rule's head predicate depends on every predicate of its rule, and the
    predicates of an axiom depend on each other.  Predicates that reach each
    other form a group, whose level is one more than the highest level among
    the groups it reaches.  Groups are taken by (level, least predicate), and
    adjacent ones merge while every stage's slice keeps a single character
    (ontology-like or rule-like)."""
    deps: dict[str, set[str]] = {p: set() for p in dkb.sig.predicates}
    for kb in dkb.stages:
        for axiom in kb.ontology.axioms:
            preds = axiom.predicates()
            for p in preds:
                deps[p] |= preds
        for schema in kb.program:
            deps[schema.head_pred()] |= schema.predicates()
    # a walk from p takes the reach of a predicate already walked whole
    reach: dict[str, frozenset[str]] = {}
    for p in deps:
        seen, todo = {p}, [p]
        while todo:
            q = todo.pop()
            if q in reach:
                seen |= reach[q]
            else:
                new = deps[q] - seen
                seen |= new
                todo.extend(new)
        reach[p] = frozenset(seen)
    # predicates reach each other exactly when they reach the same set, and
    # one reached without reaching back reaches fewer, so it is levelled first
    groups: dict[frozenset[str], list[str]] = {}
    for p, r in reach.items():
        groups.setdefault(r, []).append(p)
    level: dict[str, int] = {}
    for r in sorted(groups, key=len):
        members = groups[r]
        # the group's own predicates have no level yet and count as -1
        top = max((level.get(q, -1) + 1 for p in members for q in deps[p]), default=0)
        level.update(dict.fromkeys(members, top))
    order = sorted(
        map(frozenset, groups.values()), key=lambda g: (level[min(g)], min(g))
    )

    cumulative: list[frozenset[str]] = []
    lo: frozenset[str] = frozenset()
    layer: frozenset[str] = frozenset()
    for group in order:
        if layer and _stages_layer_kind(dkb, lo, lo | layer | group) == MIXED_LAYER:
            cumulative.append(lo | layer)
            lo = lo | layer
            layer = group
        else:
            layer = layer | group
    if layer or not cumulative:
        cumulative.append(lo | layer)
    plan = LayerPlan(tuple(cumulative))
    if len(dkb.stages) > 1:
        # update semantics needs every layer single-charactered
        for (lo, hi), kind in zip(plan.slices(), layer_kinds(dkb, plan)):
            if kind == MIXED_LAYER:
                raise NotUpdatable(
                    "no update-enabling layer sequence found; the predicates "
                    f"{sorted(hi - lo)} mix ontology and rule content"
                )
    return plan
