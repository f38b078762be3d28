"""Grounding of concepts, axioms, assertions and rule schemas, plus the
modal reading of a knowledge base."""

from __future__ import annotations

import random

import pytest

from hybridmknf.errors import SortMismatch, UndeclaredSymbol, UnsortableVariable
from hybridmknf.interp import (
    Atom,
    Implies,
    Known,
    NotKnown,
    Signature,
    conj,
    eval_objective,
)
from hybridmknf.kbmodel import (
    BOT,
    TOP,
    AndConcept,
    Assertion,
    Axiom,
    ConceptName,
    DynamicHybridKb,
    ExistsConcept,
    HybridKb,
    Nominal,
    NotConcept,
    Ontology,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
    concept_predicates,
    concept_sentence,
    concept_sort,
    is_variable,
    modal_literal,
    modal_rule,
    single_stage,
)
from hybridmknf.parser import load_sequence
from hybridmknf.rules import Rule

from helpers import rnd_hybrid_kb


def veh_sig() -> Signature:
    return Signature(
        ("veh", "hue"),
        {"car1": "veh", "car2": "veh", "red": "hue"},
        {"fast": ("veh",), "slow": ("veh",), "tint": ("veh", "hue")},
    )


def test_variable_convention():
    assert is_variable("X") and is_variable("Country")
    assert not is_variable("car1") and not is_variable("'07020020'")


def test_concept_sentences():
    sig = veh_sig()
    name = concept_sentence(ConceptName("fast"), "car1", sig)
    assert name == Atom(sig.atom("fast", ("car1",)))
    both = concept_sentence(
        AndConcept((ConceptName("fast"), NotConcept(ConceptName("slow")))),
        "car1",
        sig,
    )
    assert eval_objective(both, frozenset({sig.atom("fast", ("car1",))}))
    assert not eval_objective(both, frozenset())
    # existential quantifies over role fillers of the right sort
    ex = concept_sentence(ExistsConcept("tint", Nominal("red")), "car1", sig)
    tinted = frozenset({sig.atom("tint", ("car1", "red"))})
    assert eval_objective(ex, tinted)
    assert not eval_objective(ex, frozenset())
    top = concept_sentence(TOP, "car1", sig)
    bot = concept_sentence(BOT, "car1", sig)
    assert eval_objective(top, frozenset())
    assert not eval_objective(bot, frozenset())


def test_concept_sort_and_predicates():
    sig = veh_sig()
    assert concept_sort(ConceptName("fast"), sig) == "veh"
    assert concept_sort(TOP, sig) is None
    got = concept_predicates(
        AndConcept((ConceptName("fast"), ExistsConcept("tint", TOP)))
    )
    assert got == frozenset({"fast", "tint"})


def test_axiom_grounds_per_constant():
    sig = veh_sig()
    ax = Axiom(ConceptName("fast"), NotConcept(ConceptName("slow")))
    sents = ax.ground(sig)
    assert len(sents) == 2  # one instance per vehicle
    fast1 = sig.atom("fast", ("car1",))
    slow1 = sig.atom("slow", ("car1",))
    assert not eval_objective(sents[0], frozenset({fast1, slow1}))
    assert eval_objective(sents[0], frozenset({fast1}))


def test_two_way_axiom_is_biconditional():
    sig = veh_sig()
    ax = Axiom(ConceptName("fast"), ConceptName("slow"), two_way=True)
    sent = ax.ground(sig)[0]
    fast1 = sig.atom("fast", ("car1",))
    slow1 = sig.atom("slow", ("car1",))
    assert eval_objective(sent, frozenset())
    assert eval_objective(sent, frozenset({fast1, slow1}))
    assert not eval_objective(sent, frozenset({fast1}))
    assert not eval_objective(sent, frozenset({slow1}))


def test_axiom_without_sort_is_rejected():
    sig = veh_sig()
    with pytest.raises(UnsortableVariable):
        Axiom(TOP, BOT).ground(sig)


def test_assertion_and_ontology_grounding():
    sig = veh_sig()
    ont = Ontology(
        (Axiom(ConceptName("fast"), NotConcept(ConceptName("slow"))),),
        (Assertion("fast", ("car1",)), Assertion("slow", ("car2",), positive=False)),
    )
    sents = ont.ground(sig)
    assert len(sents) == 4
    assert ont.axioms[0].predicates() == frozenset({"fast", "slow"})
    assert not ont.is_empty()
    assert Ontology().is_empty()


def test_schema_grounds_over_sorted_pools():
    sig = veh_sig()
    schema = RuleSchema(
        SchemaLiteral(True, SchemaAtom("slow", ("X",))),
        (SchemaLiteral(False, SchemaAtom("fast", ("X",))),),
    )
    rules = schema.ground(sig)
    assert len(rules) == 2
    assert {r.head[1] for r in rules} == {
        sig.atom("slow", ("car1",)),
        sig.atom("slow", ("car2",)),
    }
    # a fixed constant narrows the instances
    fixed = RuleSchema(
        SchemaLiteral(True, SchemaAtom("tint", ("car1", "H"))),
        (SchemaLiteral(True, SchemaAtom("tint", ("car2", "H"))),),
    )
    assert len(fixed.ground(sig)) == 1  # single hue constant


def test_schema_grounding_over_empty_sort():
    sig = Signature(("veh", "ghost"), {"car1": "veh"}, {"spooky": ("ghost",)})
    schema = RuleSchema(SchemaLiteral(True, SchemaAtom("spooky", ("G",))))
    assert schema.ground(sig) == []


def test_schema_validation_errors():
    sig = veh_sig()
    with pytest.raises(UndeclaredSymbol):
        RuleSchema(SchemaLiteral(True, SchemaAtom("warp", ("X",)))).ground(sig)
    with pytest.raises(UndeclaredSymbol):
        RuleSchema(SchemaLiteral(True, SchemaAtom("fast", ("car9",)))).ground(sig)
    with pytest.raises(SortMismatch):
        RuleSchema(SchemaLiteral(True, SchemaAtom("fast", ("car1", "car2")))).ground(
            sig
        )
    with pytest.raises(SortMismatch):
        RuleSchema(SchemaLiteral(True, SchemaAtom("fast", ("red",)))).ground(sig)
    with pytest.raises(SortMismatch):
        # X forced to both sorts
        RuleSchema(
            SchemaLiteral(True, SchemaAtom("fast", ("X",))),
            (SchemaLiteral(True, SchemaAtom("tint", ("car1", "X"))),),
        ).ground(sig)


def test_concept_validation_errors():
    sig = veh_sig()
    with pytest.raises(UndeclaredSymbol):
        Axiom(ConceptName("warp"), TOP).ground(sig)
    with pytest.raises(SortMismatch):
        Axiom(ConceptName("tint"), TOP).ground(sig)  # not unary
    with pytest.raises(SortMismatch):
        Axiom(ExistsConcept("fast", TOP), TOP).ground(sig)  # not binary
    with pytest.raises(UndeclaredSymbol):
        Axiom(Nominal("car9"), TOP).ground(sig)
    with pytest.raises(SortMismatch):
        Axiom(ConceptName("fast"), Nominal("red")).ground(sig)


def test_modal_sentences_shape():
    sig = veh_sig()
    kb = HybridKb(
        sig,
        Ontology(
            (Axiom(ConceptName("fast"), NotConcept(ConceptName("slow"))),),
            (Assertion("fast", ("car1",)),),
        ),
        (
            RuleSchema(
                SchemaLiteral(True, SchemaAtom("slow", ("X",))),
                (SchemaLiteral(False, SchemaAtom("fast", ("X",))),),
            ),
        ),
    )
    sents = kb.modal_sentences()
    # 2 axiom instances + 1 assertion + 2 rule instances
    assert len(sents) == 5
    fast1 = Atom(sig.atom("fast", ("car1",)))
    slow1 = Atom(sig.atom("slow", ("car1",)))
    assert Known(fast1) in sents
    assert Implies(NotKnown(fast1), Known(slow1)) in sents


def test_modal_literal_and_rule():
    sig = veh_sig()
    fast1 = sig.atom("fast", ("car1",))
    slow1 = sig.atom("slow", ("car1",))
    assert modal_literal((True, fast1)) == Known(Atom(fast1))
    assert modal_literal((False, fast1)) == NotKnown(Atom(fast1))
    rule = Rule((True, slow1), ((False, fast1),))
    assert modal_rule(rule) == Implies(NotKnown(Atom(fast1)), Known(Atom(slow1)))


def _modal_reading(kb: HybridKb) -> list:
    """The modal sentences built one statement at a time, the body through
    conj as modal_rule did before it built bodies directly."""
    rules = [
        Implies(conj([modal_literal(b) for b in r.body]), modal_literal(r.head))
        for r in kb.ground_rules()
    ]
    assert rules == [modal_rule(r) for r in kb.ground_rules()]
    return [Known(s) for s in kb.ontology_sentences()] + rules


def test_modal_sentences_equal_their_parts():
    sig = veh_sig()

    def atom(pred: str, term: str = "X") -> SchemaAtom:
        return SchemaAtom(pred, (term,))

    kb = HybridKb(
        sig,
        Ontology(
            (Axiom(ConceptName("fast"), NotConcept(ConceptName("slow"))),),
            (Assertion("fast", ("car1",)), Assertion("slow", ("car2",), False)),
        ),
        (
            # a fact, a one-literal body, a `not` head, a two-literal body
            # and a literal shared between rules
            RuleSchema(SchemaLiteral(True, atom("fast", "car2"))),
            RuleSchema(
                SchemaLiteral(True, atom("slow")), (SchemaLiteral(False, atom("fast")),)
            ),
            RuleSchema(
                SchemaLiteral(False, atom("fast")), (SchemaLiteral(True, atom("slow")),)
            ),
            RuleSchema(
                SchemaLiteral(True, atom("fast")),
                (SchemaLiteral(True, atom("slow")), SchemaLiteral(False, atom("fast"))),
            ),
        ),
    )
    kbs = [kb, *load_sequence(["corpus/cargo.kb", "corpus/cargo_update.kb"]).stages]
    rng = random.Random(3003)  # the small bases of acceptance criterion 3
    kbs.extend(rnd_hybrid_kb(rng) for _ in range(100))
    for kb in kbs:
        assert kb.modal_sentences() == _modal_reading(kb)


def test_single_stage_wraps_one_kb():
    sig = veh_sig()
    kb = HybridKb(sig)
    dkb = single_stage(kb)
    assert isinstance(dkb, DynamicHybridKb)
    assert dkb.stages == (kb,)
    assert dkb.newest() is kb


def test_dynamic_kb_requires_shared_signature():
    a = HybridKb(veh_sig())
    other = Signature((), {}, {"p": ()})
    b = HybridKb(other)
    with pytest.raises(ValueError):
        DynamicHybridKb(a.sig, (a, b))
