"""Layer-wise solving of knowledge base sequences, compared with the
exhaustive modal sweep and the two single-character treatments."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from hybridmknf import dynmknf, interp, splitting
from hybridmknf.dynmknf import (
    MIXED_LAYER,
    ONTOLOGY_LAYER,
    RULE_LAYER,
    dynamic_models,
    entails,
    is_update_enabling,
    layer_kinds,
    static_models,
)
from hybridmknf.errors import (
    EmptyUpdate,
    MixedLayer,
    NotUpdateEnabling,
    ResourceLimit,
)
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FULL_SET,
    Atom,
    Component,
    Known,
    ModelSet,
    NotKnown,
    atoms_of,
    holds_known,
    model_sets_equal,
    restrict,
)
from hybridmknf.kbmodel import (
    TOP,
    Assertion,
    Axiom,
    ConceptName,
    DynamicHybridKb,
    HybridKb,
    NotConcept,
    Ontology,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
    single_stage,
)
from hybridmknf.oracle import brute_dynamic_stable_models, brute_mknf_models
from hybridmknf.parser import load_sequence, parse_query
from hybridmknf.rules import dynamic_stable_models
from hybridmknf.splitting import LayerPlan, layer_kind, suggest_plan
from hybridmknf.winslett import sequence_update_model

from helpers import (
    denot,
    denot_family,
    perfbench_module,
    rnd_hybrid_kb,
    unary_sig,
    upset,
)


def lit(pred: str, positive: bool = True) -> SchemaLiteral:
    return SchemaLiteral(positive, SchemaAtom(pred, ("k0",)))


def fact(pred: str) -> RuleSchema:
    return RuleSchema(lit(pred))


def test_layer_kind_of_whole_bases():
    # a whole base read as one layer with nothing below it
    def kind(kb: HybridKb) -> str:
        return layer_kind(single_stage(kb).stages, frozenset())

    sig = unary_sig(2)
    facts_and_axioms = HybridKb(
        sig, Ontology((Axiom(ConceptName("P0"), ConceptName("P1")),), ()), (fact("P0"),)
    )
    assert kind(facts_and_axioms) == ONTOLOGY_LAYER
    rules_only = HybridKb(sig, Ontology(), (RuleSchema(lit("P0"), (lit("P1", False),)),))
    assert kind(rules_only) == RULE_LAYER
    both = HybridKb(
        sig,
        Ontology((Axiom(ConceptName("P0"), ConceptName("P1")),), ()),
        (RuleSchema(lit("P0"), (lit("P1", False),)),),
    )
    assert kind(both) == MIXED_LAYER
    # fact-only programs with empty ontologies count as ontology-like
    plain = HybridKb(sig, Ontology(), (fact("P0"),))
    assert kind(plain) == ONTOLOGY_LAYER


def test_layer_kinds_and_enabling():
    sig = unary_sig(2)
    kb = HybridKb(
        sig,
        Ontology((Axiom(TOP, ConceptName("P0")),), ()),
        (RuleSchema(lit("P1"), (lit("P1", False),)),),
    )
    dkb = DynamicHybridKb(sig, (kb, kb))
    split = LayerPlan((frozenset({"P0"}), frozenset({"P0", "P1"})))
    assert layer_kinds(dkb, split) == [ONTOLOGY_LAYER, RULE_LAYER]
    assert is_update_enabling(dkb, split)
    lumped = LayerPlan((frozenset({"P0", "P1"}),))
    assert layer_kinds(dkb, lumped) == [MIXED_LAYER]
    assert not is_update_enabling(dkb, lumped)


def test_static_matches_modal_sweep():
    rng = random.Random(71)
    checked = 0
    for _ in range(150):
        kb = rnd_hybrid_kb(rng)
        atoms = range(len(kb.sig.atoms))
        got = denot_family(static_models(kb), atoms)
        want = frozenset(
            frozenset(model) for model in brute_mknf_models(kb.modal_sentences(), list(atoms))
        )
        assert got == want
        checked += 1
    assert checked == 150


def test_negated_query_literals_match_modal_sweep():
    # K ~a holds in a model when every interpretation makes a false, and
    # not ~a when some interpretation makes a true; a base without models
    # entails both
    rng = random.Random(76)
    # two models, one knowing P0 and one knowing P1 and so ~P0, where
    # neither query is entailed
    choice = HybridKb(
        unary_sig(2),
        Ontology((Axiom(ConceptName("P1"), NotConcept(ConceptName("P0"))),), ()),
        (
            RuleSchema(lit("P0"), (lit("P1", False),)),
            RuleSchema(lit("P1"), (lit("P0", False),)),
        ),
    )
    seen = set()
    for kb in [choice] + [rnd_hybrid_kb(rng) for _ in range(60)]:
        atoms = list(range(len(kb.sig.atoms)))
        models = static_models(kb)
        want = brute_mknf_models(kb.modal_sentences(), atoms)
        for pred in sorted(kb.sig.predicates):
            a = kb.sig.atom(pred, ("k0",))
            known = all(all(a not in i for i in m) for m in want)
            not_known = all(any(a in i for i in m) for m in want)
            k_query = parse_query(f"K ~{pred}(k0)", kb.sig)
            not_query = parse_query(f"not ~{pred}(k0)", kb.sig)
            assert entails(models, k_query) == known, (kb, pred)
            assert entails(models, not_query) == not_known, (kb, pred)
            seen.add((known, not_known))
    assert seen == {(True, False), (False, True), (False, False), (True, True)}


def test_cargo_negated_query_verdicts():
    cargo = load_sequence(["corpus/cargo.kb"])
    models = dynamic_models(cargo)
    assert entails(models, parse_query("not ~CompliantShpmt(s1)", cargo.sig))
    assert not entails(models, parse_query("K ~CompliantShpmt(s1)", cargo.sig))


def test_ontology_sequence_matches_update_fold():
    rng = random.Random(72)
    agreed = 0
    for _ in range(80):
        sig = unary_sig(3)
        stages = []
        for _ in range(rng.randint(2, 3)):
            axioms = tuple(
                Axiom(
                    ConceptName(f"P{rng.randrange(3)}"),
                    ConceptName(f"P{rng.randrange(3)}"),
                )
                for _ in range(rng.randint(0, 2))
            )
            assertions = tuple(
                Assertion(f"P{rng.randrange(3)}", ("k0",), positive=rng.random() < 0.6)
                for _ in range(rng.randint(0, 2))
            )
            stages.append(HybridKb(sig, Ontology(axioms, assertions)))
        dkb = DynamicHybridKb(sig, tuple(stages))
        theories = [kb.ontology_sentences() for kb in stages]
        try:
            want = sequence_update_model(theories)
        except EmptyUpdate:
            with pytest.raises(EmptyUpdate):
                dynamic_models(dkb)
            continue
        got = dynamic_models(dkb)
        assert len(got) == 1
        assert denot(got[0], range(3)) == denot(want, range(3))
        agreed += 1
    assert agreed > 40


def test_rule_sequence_matches_stable_up_sets():
    rng = random.Random(73)
    for _ in range(80):
        sig = unary_sig(4)
        stages = []
        for _ in range(rng.randint(1, 3)):
            schemas = tuple(
                RuleSchema(
                    lit(f"P{rng.randrange(4)}", rng.random() < 0.8),
                    tuple(
                        lit(f"P{rng.randrange(4)}", rng.random() < 0.6)
                        for _ in range(rng.randint(0, 2))
                    ),
                )
                for _ in range(rng.randint(1, 4))
            )
            stages.append(HybridKb(sig, Ontology(), schemas))
        dkb = DynamicHybridKb(sig, tuple(stages))
        atoms = range(4)
        stable = dynamic_stable_models(
            [kb.ground_rules() for kb in stages], frozenset(atoms)
        )
        want = frozenset(upset(s, atoms) for s in stable)
        assert denot_family(dynamic_models(dkb), atoms) == want


def _programs_style(rng: random.Random, heads: int) -> DynamicHybridKb:
    """A rule-only sequence: three even negative loops and rules chained on
    earlier atoms first, then updates with not heads and negative bodies."""
    sig = unary_sig(heads)
    atom = [f"P{a}" for a in range(heads)]
    rng.shuffle(atom)
    first = []
    for j in range(0, 6, 2):
        a, b = atom[j], atom[j + 1]
        first.append(RuleSchema(lit(a), (lit(b, False),)))
        first.append(RuleSchema(lit(b), (lit(a, False),)))
    for j in range(6, heads):
        body = tuple(lit(rng.choice(atom[:j]), rng.random() < 0.6) for _ in range(2))
        first.append(RuleSchema(lit(atom[j]), body))
    stages = [first]
    for _ in range(rng.randint(1, 2)):
        stages.append(
            [
                RuleSchema(lit(rng.choice(atom), head), (lit(rng.choice(atom), not head),))
                for head in (False, False, True)
            ]
        )
    return DynamicHybridKb(
        sig, tuple(HybridKb(sig, Ontology(), tuple(prog)) for prog in stages)
    )


def _rule_layer_answers(dkb: DynamicHybridKb, plan: LayerPlan | None = None):
    """The true atoms of each answer's rule layers.  On the way, checks that
    every rule layer's stable model is one component holding the single
    all-ones part (none when no atom is true), and that each answer denotes
    what it does with one 1-part component per true atom instead."""
    plan = plan or suggest_plan(dkb)
    kinds = layer_kinds(dkb, plan)
    assert RULE_LAYER in kinds
    scopes = [dkb.sig.atoms_of_preds(hi - lo) for lo, hi in plan.slices()]
    out = []
    for m in dynamic_models(dkb, plan):
        per_layer = [restrict(m, scope) for scope in scopes]
        per_atom = []
        for kind, layer in zip(kinds, per_layer):
            if kind != RULE_LAYER:
                per_atom.extend(layer.components)
                continue
            assert len(layer.components) <= 1
            for comp in layer.components:
                assert comp.parts.tolist() == [(1 << len(comp.atoms)) - 1]
            per_atom.extend(Component((a,), [1]) for a in sorted(layer.scope))
        assert model_sets_equal(m, ModelSet(tuple(per_atom)))
        out.append(
            [layer.scope for kind, layer in zip(kinds, per_layer) if kind == RULE_LAYER]
        )
    return out


def test_rule_layer_stable_model_is_one_component():
    rng = random.Random(75)
    for _ in range(12):
        dkb = _programs_style(rng, 8)
        programs = [[(r.head, r.body) for r in kb.ground_rules()] for kb in dkb.stages]
        want = brute_dynamic_stable_models(programs, range(8))
        # one rule layer, its stable models in ascending order of their
        # sorted atom lists, as the search returns them
        whole = LayerPlan((frozenset(dkb.sig.predicates),))
        assert _rule_layer_answers(dkb, whole) == [[s] for s in sorted(want, key=sorted)]
    cargo = load_sequence(["corpus/cargo.kb"])
    with open("corpus/cargo_plan.json") as fh:
        plan = LayerPlan.from_json(json.load(fh))
    assert len(_rule_layer_answers(cargo, plan)) == 1
    updated = load_sequence(["corpus/cargo.kb", "corpus/cargo_update.kb"])
    assert len(_rule_layer_answers(updated)) == 1


def test_layer_restrictions_rebuild_static_models():
    # every layer's components lie within the atoms of its own predicates,
    # so a model is the product of its restrictions to the layers
    rng = random.Random(74)
    for _ in range(30):
        kb = rnd_hybrid_kb(rng)
        plan = suggest_plan(single_stage(kb))
        scopes = [kb.sig.atoms_of_preds(hi - lo) for lo, hi in plan.slices()]
        for combined in static_models(kb, plan):
            per_layer = [restrict(combined, scope) for scope in scopes]
            for layer, scope in zip(per_layer, scopes):
                assert layer.scope <= scope
            rebuilt = ModelSet(
                tuple(c for layer in per_layer for c in layer.components)
            )
            assert denot(rebuilt, range(4)) == denot(combined, range(4))


def test_mixed_layer_too_large_raises():
    sig = unary_sig(5)
    axioms = tuple(
        Axiom(ConceptName(f"P{i}"), ConceptName(f"P{i + 1}")) for i in range(4)
    )
    kb = HybridKb(
        sig,
        Ontology(axioms, ()),
        (RuleSchema(lit("P0"), (lit("P4", False),)),),
    )
    with pytest.raises(MixedLayer):
        static_models(kb)


def test_sequence_mixed_layer_raises():
    sig = unary_sig(1)
    mixed = HybridKb(
        sig,
        Ontology((Axiom(TOP, ConceptName("P0")),), ()),
        (RuleSchema(lit("P0"), (lit("P0", False),)),),
    )
    dkb = DynamicHybridKb(sig, (mixed, mixed))
    with pytest.raises(NotUpdateEnabling):
        dynamic_models(dkb, LayerPlan((frozenset({"P0"}),)))


def test_branch_budget():
    sig = unary_sig(4)
    loops = (
        RuleSchema(lit("P0"), (lit("P1", False),)),
        RuleSchema(lit("P1"), (lit("P0", False),)),
        RuleSchema(lit("P2"), (lit("P3", False),)),
        RuleSchema(lit("P3"), (lit("P2", False),)),
    )
    kb = HybridKb(sig, Ontology(), loops)
    assert len(static_models(kb)) == 4
    tight = dataclasses.replace(DEFAULT_LIMITS, max_branches=2)
    with pytest.raises(
        ResourceLimit,
        match=r"layer \d+ split into more than 2 branches: 4 branches, "
        r"more than EngineLimits\.max_branches = 2",
    ):
        static_models(kb, limits=tight)


def test_entails_conventions():
    p = Atom(0)
    assert entails([], Known(p))
    assert entails([FULL_SET], NotKnown(p))
    assert not entails([FULL_SET], Known(p))


def test_cargo_update_keeps_partial_inspection_of_s3():
    """Why criterion 2 fails on `not PartialInspection(s3)`.

    To make LowRiskEUCommodity(c3) false, minimal change may retract
    EUCountry(portugal) or CommodCountry(c3, portugal); the two changes are
    incomparable by inclusion, so both survive and neither atom stays known.
    Without K EUCountry(portugal), p1 is not known to be EU-registered, so
    the update's rule rejecting partial inspection of p1's shipments has no
    known body and the base derivation of PartialInspection(s3) stands.
    """
    base = load_sequence(["corpus/cargo.kb"])
    updated = load_sequence(["corpus/cargo.kb", "corpus/cargo_update.kb"])

    def holds(dkb, models, text):
        return entails(models, parse_query(text, dkb.sig))

    before = dynamic_models(base)
    assert holds(base, before, "K EURegisteredProducer(p1)")
    assert holds(base, before, "K EUCountry(portugal)")
    after = dynamic_models(updated)
    assert len(after) == 1
    assert not holds(updated, after, "K EURegisteredProducer(p1)")
    assert not holds(updated, after, "K EUCountry(portugal)")
    assert holds(updated, after, "not EUCountry(portugal)")
    assert holds(updated, after, "not CommodCountry(c3, portugal)")
    assert holds(updated, after, "K PartialInspection(s3)")


@pytest.mark.parametrize(
    "files",
    [["corpus/cargo.kb"], ["corpus/cargo.kb", "corpus/cargo_update.kb"]],
    ids=["models", "update"],
)
def test_cargo_final_check_is_one_query_per_branch(monkeypatch, files):
    """The newest base is checked as one conjunction, and every query that
    reaches holds_known names an atom: constants are folded before."""
    dkb = load_sequence(files)
    checked = []
    real_satisfies = dynmknf.satisfies

    def counting_satisfies(m, sent, limits=DEFAULT_LIMITS):
        checked.append(m)
        return real_satisfies(m, sent, limits)

    atom_free = []

    def watching(real):
        def holds(m, sent, limits=DEFAULT_LIMITS):
            if not atoms_of(sent):
                atom_free.append(sent)
            return real(m, sent, limits)

        return holds

    monkeypatch.setattr(dynmknf, "satisfies", counting_satisfies)
    monkeypatch.setattr(interp, "holds_known", watching(interp.holds_known))
    monkeypatch.setattr(splitting, "holds_known", watching(splitting.holds_known))
    models = dynamic_models(dkb)
    # no cargo branch fails the check or repeats another, so the branches
    # that reach it are exactly the models, in order
    assert models and list(map(id, checked)) == list(map(id, models))
    assert not atom_free


def test_cargo_update_answers_without_flattening_its_union():
    """The cargo update's 26-atom group comes back as a union of factored
    products; the final check and the criterion-2 queries read its factors
    and never build its 18,432 flat parts."""
    dkb = load_sequence(["corpus/cargo.kb", "corpus/cargo_update.kb"])
    (m,) = dynamic_models(dkb)
    # workloads imports these two by name
    perfbench_module("cargo_n")
    perfbench_module("kbgen")
    for query in perfbench_module("workloads").CRITERION_2:
        entails([m], parse_query(query, dkb.sig))
    (widest,) = [c for c in m.components if len(c.atoms) == 26]
    assert widest.part_count == 18432 and widest.rows == 166
    assert "parts" not in vars(widest)


def _cargo_with_updates(copies: int) -> list[ModelSet]:
    return dynamic_models(
        load_sequence(["corpus/cargo.kb"] + ["corpus/cargo_update.kb"] * copies)
    )


def test_repeating_the_cargo_update_changes_nothing():
    """Idempotence: applying the same update again leaves the models as the
    first application made them."""
    once = _cargo_with_updates(1)
    for copies in (2, 3):
        again = _cargo_with_updates(copies)
        assert len(again) == len(once)
        assert all(model_sets_equal(a, b) for a, b in zip(once, again))


def test_cargo_update_results_are_models_of_the_newest_theory(monkeypatch):
    """U1: every ontology layer's update result satisfies each sentence of
    that layer's newest theory."""
    layers = []
    real = dynmknf.sequence_update_model

    def capture(theories, limits=DEFAULT_LIMITS):
        result = real(theories, limits)
        layers.append((theories[-1], result))
        return result

    monkeypatch.setattr(dynmknf, "sequence_update_model", capture)
    dynamic_models(load_sequence(["corpus/cargo.kb", "corpus/cargo_update.kb"]))
    assert layers and any(newest for newest, _ in layers)
    for newest, result in layers:
        for s in newest:
            assert holds_known(result, s), s
