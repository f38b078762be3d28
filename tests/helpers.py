"""Shared builders for the test suite: tiny signatures, seeded random
sentences, programs and knowledge bases, and denotation comparisons."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path
from typing import Iterable, Sequence

from hybridmknf.interp import (
    FULL_SET,
    Atom,
    Component,
    Implies,
    ModelSet,
    Neg,
    Sentence,
    Signature,
    component_from_models,
    conj,
    denotation,
    disj,
)
from hybridmknf.kbmodel import (
    AndConcept,
    Assertion,
    Axiom,
    BOT,
    ConceptName,
    DynamicHybridKb,
    HybridKb,
    NotConcept,
    Ontology,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
    TOP,
)
from hybridmknf.rules import Rule
from hybridmknf.splitting import LayerPlan, is_splitting_set


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A perfbench module, loaded from its file.  workloads imports cargo_n
    and kbgen by name, so each is registered under its own name."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def unary_sig(n_preds: int, n_consts: int = 1) -> Signature:
    names = {f"k{j}": "obj" for j in range(n_consts)}
    preds = {f"P{i}": ("obj",) for i in range(n_preds)}
    return Signature(("obj",), names, preds)


def rnd_objective(rng: random.Random, atoms: Sequence[int], depth: int = 2) -> Sentence:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        a = Atom(rng.choice(list(atoms)))
        return a if rng.random() < 0.6 else Neg(a)
    subs = [rnd_objective(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))]
    k = rng.random()
    if k < 0.4:
        return conj(subs)
    if k < 0.8:
        return disj(subs)
    return Implies(subs[0], subs[1])


def rnd_rule(
    rng: random.Random,
    atoms: Sequence[int],
    allow_not_head: bool = False,
    max_body: int = 3,
) -> Rule:
    atoms = list(atoms)
    head_sign = True if not allow_not_head else rng.random() < 0.8
    head = (head_sign, rng.choice(atoms))
    body = tuple(
        (rng.random() < 0.6, rng.choice(atoms))
        for _ in range(rng.randint(0, max_body))
    )
    return Rule(head, body)


def rnd_program(
    rng: random.Random,
    atoms: Sequence[int],
    n_rules: int,
    allow_not_heads: bool = False,
) -> list[Rule]:
    return [rnd_rule(rng, atoms, allow_not_heads) for _ in range(n_rules)]


def denot(m: ModelSet, universe: Iterable[int]) -> frozenset[frozenset[int]]:
    return frozenset(denotation(m, sorted(universe)))


def upset(i: frozenset[int], universe: Iterable[int]) -> frozenset[frozenset[int]]:
    rest = sorted(set(universe) - set(i))
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            out.append(frozenset(i) | frozenset(extra))
    return frozenset(out)


def denot_family(
    models: Iterable[ModelSet], universe: Iterable[int]
) -> frozenset[frozenset[frozenset[int]]]:
    return frozenset(denot(m, universe) for m in models)


def singleton_component(atom: int, true: bool) -> Component:
    return Component((atom,), frozenset((1 if true else 0,)))


def from_models(atoms: Sequence[int], models: Iterable[frozenset[int]]) -> ModelSet:
    """Single-component model set from an explicit list of interpretations."""
    models = list(models)
    if not models:
        raise ValueError("a model set cannot be empty")
    if not atoms:
        return FULL_SET
    return ModelSet((component_from_models(atoms, models),))


# ---------------------------------------------------------------------------
# random hybrid knowledge bases over a one-constant unary signature


def rnd_concept(rng: random.Random, preds: Sequence[str], depth: int = 1):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return ConceptName(rng.choice(list(preds)))
    if roll < 0.6:
        return TOP
    if roll < 0.7:
        return BOT
    if roll < 0.85:
        return NotConcept(rnd_concept(rng, preds, depth - 1))
    return AndConcept(
        (rnd_concept(rng, preds, depth - 1), rnd_concept(rng, preds, depth - 1))
    )


def rnd_hybrid_kb(
    rng: random.Random,
    n_preds: int = 4,
    n_axioms: int = 2,
    n_assertions: int = 1,
    n_rules: int = 3,
) -> HybridKb:
    sig = unary_sig(n_preds)
    preds = sorted(sig.predicates)

    def sorted_axiom() -> Axiom:
        while True:
            ax = Axiom(
                rnd_concept(rng, preds),
                rnd_concept(rng, preds),
                two_way=rng.random() < 0.3,
            )
            if ax.predicates():
                return ax

    axioms = tuple(sorted_axiom() for _ in range(rng.randint(0, n_axioms)))
    assertions = tuple(
        Assertion(rng.choice(preds), ("k0",), positive=rng.random() < 0.7)
        for _ in range(rng.randint(0, n_assertions))
    )
    schemas = []
    for _ in range(rng.randint(0, n_rules)):
        head = SchemaLiteral(
            rng.random() < 0.85, SchemaAtom(rng.choice(preds), ("k0",))
        )
        body = tuple(
            SchemaLiteral(rng.random() < 0.6, SchemaAtom(rng.choice(preds), ("k0",)))
            for _ in range(rng.randint(0, 2))
        )
        schemas.append(RuleSchema(head, body))
    return HybridKb(sig, Ontology(axioms, assertions), tuple(schemas))


def all_valid_plans(dkb: DynamicHybridKb, cap: int = 200) -> list[LayerPlan]:
    """Every strictly increasing chain of shared splitting sets ending at
    the full predicate set.  Only sensible for tiny signatures."""
    preds = sorted(dkb.sig.predicates)
    full = frozenset(preds)
    sets = []
    for r in range(len(preds) + 1):
        for combo in itertools.combinations(preds, r):
            u = frozenset(combo)
            if all(is_splitting_set(kb, u) for kb in dkb.stages):
                sets.append(u)
    plans: list[LayerPlan] = []

    def extend(chain: tuple[frozenset[str], ...]) -> None:
        if len(plans) >= cap:
            return
        last = chain[-1] if chain else frozenset()
        if last == full:
            plans.append(LayerPlan(chain))
            return
        for u in sets:
            if last < u:
                extend(chain + (u,))

    extend(())
    return plans


# ---------------------------------------------------------------------------
# random updatable sequences built from per-predicate units

_O_UNIT = "o"
_P_UNIT = "p"


def _unit_ontology(rng: random.Random, pred: str) -> tuple[tuple, tuple]:
    """Axioms and assertions confined to one unary predicate."""
    axioms = []
    assertions = []
    roll = rng.random()
    if roll < 0.35:
        assertions.append(Assertion(pred, ("k0",), positive=rng.random() < 0.7))
    elif roll < 0.6:
        axioms.append(Axiom(TOP, ConceptName(pred)))
    elif roll < 0.8:
        axioms.append(Axiom(ConceptName(pred), BOT))
    # else: silent stage for this unit
    return tuple(axioms), tuple(assertions)


def _unit_rules(
    rng: random.Random, pred: str, lower: Sequence[str], n: int
) -> list[RuleSchema]:
    out = []
    pool = list(lower) + [pred]
    for _ in range(n):
        head = SchemaLiteral(rng.random() < 0.8, SchemaAtom(pred, ("k0",)))
        body = tuple(
            SchemaLiteral(rng.random() < 0.6, SchemaAtom(rng.choice(pool), ("k0",)))
            for _ in range(rng.randint(0, 2))
        )
        out.append(RuleSchema(head, body))
    return out


def rnd_updatable_dkb(
    rng: random.Random, n_units: int = 4, n_stages: int = 2
) -> tuple[DynamicHybridKb, list[LayerPlan]]:
    """Sequence whose predicates layer into ontology-only and rule-only
    units, together with at least two distinct valid layer plans."""
    sig = unary_sig(n_units)
    preds = [f"P{i}" for i in range(n_units)]
    kinds = [rng.choice((_O_UNIT, _P_UNIT)) for _ in preds]
    stages = []
    for _ in range(n_stages):
        axioms: list = []
        assertions: list = []
        schemas: list = []
        for i, pred in enumerate(preds):
            if kinds[i] == _O_UNIT:
                ax, asrt = _unit_ontology(rng, pred)
                axioms.extend(ax)
                assertions.extend(asrt)
            else:
                lower = preds[:i]
                schemas.extend(_unit_rules(rng, pred, lower, rng.randint(0, 2)))
        stages.append(
            HybridKb(sig, Ontology(tuple(axioms), tuple(assertions)), tuple(schemas))
        )
    dkb = DynamicHybridKb(sig, tuple(stages))

    finest = LayerPlan(
        tuple(frozenset(preds[: i + 1]) for i in range(len(preds)))
    )
    # coarser plan: merge maximal runs of units with one character
    runs: list[frozenset[str]] = []
    acc: list[str] = []
    for i, pred in enumerate(preds):
        if acc and kinds[i] != kinds[i - 1]:
            runs.append(frozenset(acc))
            acc = []
        acc.append(pred)
    runs.append(frozenset(acc))
    coarse_sets = []
    seen: frozenset[str] = frozenset()
    for run in runs:
        seen = seen | run
        coarse_sets.append(seen)
    coarse = LayerPlan(tuple(coarse_sets))
    plans = [finest]
    if coarse.cumulative != finest.cumulative:
        plans.append(coarse)
    return dkb, plans
