"""Splitting-set checks, knowledge base slicing, layer plans, and the
plan suggestion heuristic."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from hybridmknf.dynmknf import dynamic_models
from hybridmknf.errors import EmptyUpdate, NotUpdatable
from hybridmknf.interp import FULL_SET, ModelSet, component_from_models
from hybridmknf.kbmodel import (
    TOP,
    Assertion,
    Axiom,
    ConceptName,
    DynamicHybridKb,
    HybridKb,
    Ontology,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
    single_stage,
)
from hybridmknf.parser import load_sequence
from hybridmknf.splitting import (
    LayerPlan,
    bottom,
    is_splitting_set,
    reduce_stage,
    slice_stage,
    split_check,
    suggest_plan,
    top,
)

from helpers import rnd_hybrid_kb, rnd_updatable_dkb, unary_sig

CARGO = "corpus/cargo.kb"
CARGO_UPD = "corpus/cargo_update.kb"
CARGO_PLAN = "corpus/cargo_plan.json"


@pytest.fixture(scope="module")
def cargo():
    return load_sequence([CARGO])


@pytest.fixture(scope="module")
def cargo_pair():
    return load_sequence([CARGO, CARGO_UPD])


def lit(pred: str, positive: bool = True) -> SchemaLiteral:
    return SchemaLiteral(positive, SchemaAtom(pred, ("k0",)))


def test_trivial_splitting_sets(cargo):
    kb = cargo.stages[0]
    every = frozenset(kb.sig.predicates)
    assert is_splitting_set(kb, frozenset())
    assert is_splitting_set(kb, every)
    assert split_check(kb, frozenset()).ok()


def test_split_check_reports_rule_violation(cargo):
    kb = cargo.stages[0]
    report = split_check(kb, frozenset({"AdmissibleImporter"}))
    assert not report.ok()
    (statement, pair) = report.violations[0]
    assert isinstance(statement, RuleSchema)
    assert pair == ("AdmissibleImporter", "SuspectedBadGuy")


def test_split_check_reports_axiom_violation(cargo):
    kb = cargo.stages[0]
    report = split_check(kb, frozenset({"LowRiskEUCommodity"}))
    assert not report.ok()
    kinds = {type(stmt) for stmt, _ in report.violations}
    assert Axiom in kinds


def test_bottom_top_partition_statements(cargo):
    kb = cargo.stages[0]
    plan = json.load(open(CARGO_PLAN))
    u1 = frozenset(plan[1])
    low, high = bottom(kb, u1), top(kb, u1)
    assert len(low.ontology.axioms) + len(high.ontology.axioms) == len(
        kb.ontology.axioms
    )
    assert len(low.ontology.assertions) + len(high.ontology.assertions) == len(
        kb.ontology.assertions
    )
    assert len(low.program) + len(high.program) == len(kb.program)
    assert all(s.predicates() <= u1 for s in low.ontology.axioms + low.program)
    assert all(a.pred in u1 for a in low.ontology.assertions)


def test_bottom_composes_by_intersection(cargo):
    kb = cargo.stages[0]
    rng = random.Random(61)
    preds = sorted(kb.sig.predicates)
    for _ in range(20):
        u = frozenset(p for p in preds if rng.random() < 0.5)
        v = frozenset(p for p in preds if rng.random() < 0.5)
        assert bottom(bottom(kb, u), v) == bottom(kb, u & v)


def test_slice_is_top_of_bottom(cargo):
    kb = cargo.stages[0]
    plan = json.load(open(CARGO_PLAN))
    lo, hi = frozenset(plan[0]), frozenset(plan[1])
    sliced = slice_stage(kb, lo, hi)
    assert sliced == top(bottom(kb, hi), lo)
    # the second manual-plan layer of the static corpus is pure rules
    assert sliced.ontology.is_empty()
    assert len(sliced.program) == 4


def test_layer_plan_json_round_trip():
    plan = LayerPlan((frozenset({"A"}), frozenset({"A", "B"})))
    assert LayerPlan.from_json([["A"], ["B", "A"]]) == plan
    with pytest.raises(ValueError):
        LayerPlan.from_json({"layers": []})
    with pytest.raises(ValueError):
        LayerPlan.from_json([["A"], [1]])


def test_layer_plan_validate_errors(cargo):
    full = frozenset(cargo.sig.predicates)
    with pytest.raises(ValueError):
        LayerPlan(()).validate(cargo)
    with pytest.raises(ValueError):
        LayerPlan((full, full)).validate(cargo)
    with pytest.raises(ValueError):
        LayerPlan((frozenset({"Bulk"}),)).validate(cargo)
    with pytest.raises(ValueError):
        # not a splitting set of the only stage
        LayerPlan((frozenset({"AdmissibleImporter"}), full)).validate(cargo)
    manual = LayerPlan.from_json(json.load(open(CARGO_PLAN)))
    manual.validate(cargo)


def test_empty_kb_plan():
    empty = HybridKb(unary_sig(0))
    plan = suggest_plan(single_stage(empty))
    assert len(plan) == 1
    plan.validate(single_stage(empty))


def test_suggest_plan_cargo_static(cargo):
    plan = suggest_plan(cargo)
    plan.validate(cargo)
    assert [len(u) for u in plan.cumulative] == [18, 22, 29, 30]


def test_suggest_plan_cargo_pair(cargo_pair):
    plan = suggest_plan(cargo_pair)
    plan.validate(cargo_pair)
    assert len(plan) == 4
    manual = LayerPlan.from_json(json.load(open(CARGO_PLAN)))
    manual.validate(cargo_pair)


def test_suggest_plan_uniform_kbs():
    sig = unary_sig(2)
    rules_only = HybridKb(sig, Ontology(), (RuleSchema(lit("P0"), (lit("P1", False),)),))
    plan = suggest_plan(DynamicHybridKb(sig, (rules_only, rules_only)))
    assert len(plan) == 1
    ont_only = HybridKb(sig, Ontology((Axiom(ConceptName("P0"), ConceptName("P1")),), ()))
    plan2 = suggest_plan(DynamicHybridKb(sig, (ont_only, ont_only)))
    assert len(plan2) == 1


def test_suggest_plan_not_updatable():
    sig = unary_sig(1)
    mixed = HybridKb(
        sig,
        Ontology((Axiom(TOP, ConceptName("P0")),), ()),
        (RuleSchema(lit("P0"), (lit("P0", False),)),),
    )
    with pytest.raises(NotUpdatable):
        suggest_plan(DynamicHybridKb(sig, (mixed, mixed)))
    # a single stage tolerates the mix
    assert len(suggest_plan(single_stage(mixed))) == 1


def test_reduce_stage_rule_outcomes():
    sig = unary_sig(3)
    slice_kb = HybridKb(
        sig,
        Ontology(),
        (RuleSchema(lit("P2"), (lit("P1"), lit("P0", False))),),
    )
    lo = frozenset({"P0", "P1"})
    p1_known = ModelSet((component_from_models([1], [frozenset({1})]),))
    sents, rules = reduce_stage(slice_kb, lo, p1_known)
    assert sents == []
    assert [(r.head, r.body) for r in rules] == [((True, 2), ())]
    # a known-true lower atom defeats its default literal
    p0_known = ModelSet((component_from_models([0, 1], [frozenset({0, 1})]),))
    assert reduce_stage(slice_kb, lo, p0_known) == ([], [])
    # an unknown positive literal blocks the instance
    assert reduce_stage(slice_kb, lo, FULL_SET) == ([], [])


def test_reduce_stage_grounds_ontology():
    sig = unary_sig(2)
    ont = HybridKb(
        sig,
        Ontology(
            (Axiom(ConceptName("P0"), ConceptName("P1")),),
            (Assertion("P0", ("k0",)),),
        ),
    )
    sents, rules = reduce_stage(ont, frozenset(), FULL_SET)
    assert rules == []
    assert len(sents) == 2


def _small_sequences() -> list[DynamicHybridKb]:
    """Static bases of criterion 3's shape and two-version sequences of
    criterion 7's shape, as the benchmark's small workload draws them."""
    rng = random.Random(1515)
    out = [single_stage(rnd_hybrid_kb(rng)) for _ in range(6)]
    out.extend(rnd_updatable_dkb(rng)[0] for _ in range(6))
    return out


def _solve_sequences() -> list[DynamicHybridKb]:
    return [
        load_sequence([CARGO]),
        load_sequence([CARGO, CARGO_UPD]),
        *_small_sequences(),
    ]


def _solve(dkb: DynamicHybridKb) -> list[ModelSet]:
    try:
        return dynamic_models(dkb)
    except EmptyUpdate:
        return []


def test_each_statement_is_grounded_once_per_solve(monkeypatch):
    # subject_sort and variable_sorts run once each time an axiom or a rule
    # schema computes its ground instances
    grounded: Counter[int] = Counter()
    for cls, name in ((Axiom, "subject_sort"), (RuleSchema, "variable_sorts")):
        original = getattr(cls, name)

        def counted(self, sig, _original=original):
            grounded[id(self)] += 1
            return _original(self, sig)

        monkeypatch.setattr(cls, name, counted)
    total = 0
    for dkb in _solve_sequences():
        grounded.clear()
        _solve(dkb)
        statements = [
            s for kb in dkb.stages for s in kb.ontology.axioms + kb.program
        ]
        assert all(grounded[id(s)] <= 1 for s in statements), grounded
        assert set(grounded) <= {id(s) for s in statements}
        total += sum(grounded.values())
    assert total > 50


def _fresh_copy(kb: HybridKb) -> HybridKb:
    """The same base built from new statement objects, grounded anew."""
    axioms = tuple(Axiom(a.left, a.right, a.two_way) for a in kb.ontology.axioms)
    program = tuple(RuleSchema(r.head, r.body) for r in kb.program)
    return HybridKb(kb.sig, Ontology(axioms, kb.ontology.assertions), program)


def test_reduced_slices_match_fresh_copies():
    compared = 0
    for dkb in _solve_sequences():
        models = _solve(dkb)
        for lo, hi in suggest_plan(dkb).slices():
            for kb in dkb.stages:
                sliced = slice_stage(kb, lo, hi)
                fresh = _fresh_copy(sliced)
                for prefix in models + [FULL_SET]:
                    kept = reduce_stage(sliced, lo, prefix)
                    assert kept == reduce_stage(fresh, lo, prefix)
                    compared += 1
    assert compared > 50


def test_ground_instances_follow_the_signature():
    axiom = Axiom(ConceptName("P0"), ConceptName("P1"))
    schema = RuleSchema(
        SchemaLiteral(True, SchemaAtom("P1", ("X",))),
        (SchemaLiteral(False, SchemaAtom("P0", ("X",))),),
    )
    for n_consts in (1, 3, 2):
        sig = unary_sig(2, n_consts)
        assert len(axiom.ground(sig)) == n_consts
        assert len(schema.ground(sig)) == n_consts
    assert axiom.ground(sig) == Axiom(axiom.left, axiom.right).ground(sig)
    assert schema.ground(sig) == RuleSchema(schema.head, schema.body).ground(sig)
