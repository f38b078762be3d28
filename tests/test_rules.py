"""Stable models and their causal-rejection extension to program
sequences, checked against the exhaustive reference implementations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hybridmknf import rules
from hybridmknf.errors import ResourceLimit
from hybridmknf.oracle import brute_dynamic_stable_models, brute_stable_models
from hybridmknf.rules import (
    Rule,
    dynamic_stable_models,
    scope_of,
    stable_models,
)

from helpers import rnd_program

T, F = True, False
P, Q = 0, 1


def _sets(models):
    return sorted(sorted(m) for m in models)


def _raw(rules):
    return [(r.head, r.body) for r in rules]


def test_scope_of_unions_heads_and_bodies():
    assert scope_of([Rule((T, P), ((F, Q),))]) == frozenset({P, Q})


def test_stable_model_examples():
    assert stable_models([Rule((T, P), ((F, Q),))]) == [frozenset({P})]
    assert stable_models([], frozenset({P})) == [frozenset()]
    assert stable_models([Rule((T, P), ((T, P),))]) == [frozenset()]
    even = stable_models([Rule((T, P), ((F, Q),)), Rule((T, Q), ((F, P),))])
    assert _sets(even) == [[P], [Q]]
    # a bare complement head only enforces falsity
    assert stable_models([Rule((F, P), ())]) == [frozenset()]


def test_stable_models_match_oracle():
    rng = random.Random(41)
    for _ in range(80):
        prog = rnd_program(rng, range(5), rng.randint(0, 6))
        got = set(stable_models(prog, frozenset(range(5))))
        want = set(brute_stable_models(_raw(prog), range(5)))
        assert got == want


def test_dynamic_intro_example():
    intro = [[Rule((T, P), ((T, Q),)), Rule((T, Q), ())], [Rule((F, Q), ())]]
    assert dynamic_stable_models(intro) == [frozenset()]


def test_dynamic_conflict_in_final_stage():
    clash = [[Rule((T, P), ())], [Rule((F, P), ()), Rule((T, P), ())]]
    assert dynamic_stable_models(clash) == []


def test_dynamic_singleton_matches_stable():
    rng = random.Random(42)
    for _ in range(60):
        prog = rnd_program(rng, range(5), rng.randint(0, 5))
        assert set(dynamic_stable_models([prog], frozenset(range(5)))) == set(
            stable_models(prog, frozenset(range(5)))
        )


def test_dynamic_matches_oracle():
    rng = random.Random(43)
    for _ in range(60):
        n_stage = rng.randint(2, 3)
        progs = [
            rnd_program(rng, range(4), rng.randint(0, 4), allow_not_heads=True)
            for _ in range(n_stage)
        ]
        got = set(dynamic_stable_models(progs, frozenset(range(4))))
        want = set(brute_dynamic_stable_models([_raw(p) for p in progs], range(4)))
        assert got == want


ATOMS6 = range(6)
_lits = st.tuples(st.booleans(), st.sampled_from(ATOMS6))
_rules = st.builds(Rule, _lits, st.lists(_lits, max_size=3).map(tuple))


@st.composite
def _sequences(draw):
    """1-3 stages over up to 6 atoms, a scope that may leave some of them
    out (or None), and sometimes an even negative loop in the first stage."""
    programs = draw(st.lists(st.lists(_rules, max_size=5), min_size=1, max_size=3))
    if draw(st.booleans()):
        p, q = draw(st.permutations(ATOMS6))[:2]
        programs[0] += [Rule((T, p), ((F, q),)), Rule((T, q), ((F, p),))]
    scope = draw(st.none() | st.frozensets(st.sampled_from(ATOMS6)))
    return programs, scope


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_sequences())
def test_mask_search_matches_oracle(case):
    programs, scope = case
    rules = [r for prog in programs for r in prog]
    swept = sorted(scope_of(rules) if scope is None else scope)
    want = brute_dynamic_stable_models([_raw(p) for p in programs], swept)
    assert dynamic_stable_models(programs, scope) == sorted(want, key=sorted)
    first = programs[0]
    swept = sorted(scope_of(first) if scope is None else scope)
    want = brute_stable_models(_raw(first), swept)
    assert stable_models(first, scope) == sorted(want, key=sorted)


def _bounds(programs, scope=None):
    """The well-founded bounds (sure, maybe) of a search, as sets of atoms
    among its candidate atoms."""
    heads, scope_mask, compiled = rules._compile(programs, scope)
    sure, maybe = rules._bounds(compiled, scope_mask)
    return (
        {a for j, a in enumerate(heads) if sure >> j & 1},
        {a for j, a in enumerate(heads) if maybe >> j & 1},
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_sequences())
def test_stable_models_lie_between_the_bounds(case):
    programs, scope = case
    every_rule = [r for prog in programs for r in prog]
    swept = sorted(scope_of(every_rule) if scope is None else scope)
    sure, maybe = _bounds(programs, scope)
    for model in brute_dynamic_stable_models([_raw(p) for p in programs], swept):
        assert sure <= model <= maybe


def test_stratified_chain_needs_no_guess():
    # p_0.  p_{i+1} :- p_i, not q_i.  The q_i have no rules, so every p_i is
    # sure: 30 candidate atoms, past the cap if each were guessed
    chain = [Rule((T, 0), ())] + [
        Rule((T, 2 * i + 2), ((T, 2 * i), (F, 2 * i + 1))) for i in range(29)
    ]
    p_atoms = set(range(0, 60, 2))
    assert _bounds([chain]) == (p_atoms, p_atoms)
    assert 1 << len(p_atoms) > rules._CANDIDATE_CAP
    assert dynamic_stable_models([chain]) == [frozenset(p_atoms)]


def _cargo_like_layer(n: int):
    """A two-stage rule layer shaped like the cargo-N update's, over n
    shipments: inspection follows from a random pick or from a commodity
    not known as low risk, and the update rejects it when the producer is
    an EU one, a fact for even k and without rules for odd k; importer i2
    is admissible unless suspected, only i1 is, and its approval of a
    vegetable, which makes it expeditable, is rejected for tomatoes, the
    even commodities.  Returns the programs and the one stable model."""
    names: dict[str, int] = {}

    def atom(name: str) -> int:
        return names.setdefault(name, len(names))

    bad, ok = atom("SuspectedBadGuy(i1)"), atom("AdmissibleImporter(i2)")
    base = [Rule((T, bad), ()), Rule((T, ok), ((F, atom("SuspectedBadGuy(i2)")),))]
    update = []
    model = {bad, ok}
    for k in range(n):
        partial, compliant = atom(f"PartialInspection(s{k})"), atom(f"CompliantShpmt(s{k})")
        full, eu = atom(f"FullInspection(s{k})"), atom(f"EURegisteredProducer(p{k})")
        veg, tomato = atom(f"EdibleVegetable(c{k})"), atom(f"Tomato(c{k})")
        approved = atom(f"ApprovedImporterOf(i2, c{k})")
        expeditable = atom(f"ExpeditableImporter(c{k}, i2)")
        base += [
            Rule((T, partial), ((T, atom(f"RandomInspection(s{k})")),)),
            Rule((T, partial), ((F, atom(f"LowRiskEUCommodity(c{k})")),)),
            Rule((T, full), ((F, compliant),)),
            Rule((T, veg), ()),
            Rule((T, approved), ((T, veg),)),
            Rule((T, expeditable), ((T, ok), (T, approved))),
        ]
        update += [Rule((F, partial), ((T, eu),)), Rule((F, approved), ((T, tomato),))]
        model |= {full, veg}
        if k % 2 == 0:
            base += [Rule((T, eu), ()), Rule((T, tomato), ())]
            model |= {eu, tomato}
        else:
            model |= {partial, approved, expeditable}
    return [base, update], frozenset(model)


def test_layered_not_heads_need_no_guess():
    # a "not" rule whose body cannot hold rejects nothing, and one whose
    # body surely holds keeps the heads it rejects out of maybe, so the
    # bounds of this acyclic layer meet and decide all 50 candidate atoms
    # of its 8 shipments
    programs, model = _cargo_like_layer(8)
    sure, maybe = _bounds(programs)
    assert sure == maybe == model
    assert dynamic_stable_models(programs) == [model]
    # the small layer is within reach of the exhaustive reference
    programs, model = _cargo_like_layer(1)
    swept = sorted(scope_of(r for prog in programs for r in prog))
    assert brute_dynamic_stable_models([_raw(p) for p in programs], swept) == [model]


@pytest.mark.parametrize("length", range(2, 7))
def test_negative_cycles_match_oracle(length):
    # p_i :- not p_{i+1}, around the cycle: an odd cycle has no stable model,
    # an even one has two; the bounds decide none of its atoms
    cycle = [Rule((T, i), ((F, (i + 1) % length),)) for i in range(length)]
    assert _bounds([cycle]) == (set(), set(range(length)))
    got = dynamic_stable_models([cycle])
    assert got == sorted(
        brute_dynamic_stable_models([_raw(cycle)], range(length)), key=sorted
    )
    assert len(got) == (2 if length % 2 == 0 else 0)


def test_dynamic_models_satisfy_newest_program():
    rng = random.Random(44)
    for _ in range(60):
        progs = [
            rnd_program(rng, range(4), rng.randint(1, 4), allow_not_heads=True)
            for _ in range(rng.randint(2, 3))
        ]
        for s in dynamic_stable_models(progs, frozenset(range(4))):
            fired = [
                r for r in progs[-1]
                if all((atom in s) == positive for positive, atom in r.body)
            ]
            for want, atom in (r.head for r in fired):
                # a fired newest rule may only be overridden by a fired rule
                # of the same stage with the opposite head, which still
                # settles the atom
                assert (atom in s) == want or (not want, atom) in [r.head for r in fired]


def test_tautologies_never_shift_models():
    rng = random.Random(45)
    for _ in range(40):
        progs = [
            rnd_program(rng, range(4), rng.randint(0, 4), allow_not_heads=True)
            for _ in range(rng.randint(1, 3))
        ]
        base = set(dynamic_stable_models(progs, frozenset(range(4))))
        taut = [Rule((T, a), ((T, a),)) for a in range(4)]
        padded = set(
            dynamic_stable_models(progs + [taut], frozenset(range(4)))
        )
        assert base == padded


def test_stable_scope_guard():
    with pytest.raises(ResourceLimit):
        stable_models([Rule((T, i), ()) for i in range(40)])
    with pytest.raises(
        ResourceLimit,
        match=r"over 21 candidate atoms \(2\^21 = 2097152 candidates\) exceeds "
        r"rules\._CANDIDATE_CAP = 1048576",
    ):
        stable_models([Rule((T, i), ()) for i in range(21)])
