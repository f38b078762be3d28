"""Factored model sets: construction, projection, restriction, and modal
queries."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from hybridmknf.errors import CrossComponentFormula, ResourceLimit
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FULL_SET,
    Atom,
    Component,
    Conj,
    Disj,
    Known,
    ModelSet,
    Neg,
    NotKnown,
    atoms_of,
    canonical,
    component_from_models,
    denotation,
    from_models,
    holds_known,
    holds_not,
    is_objective,
    model_sets_equal,
    render_model_set,
    restrict,
    satisfies,
    satisfies_s5,
)

from helpers import denot, nullary_sig

P, Q = Atom(0), Atom(1)


def rnd_family(rng: random.Random, atoms: list[int]) -> list[frozenset[int]]:
    n = len(atoms)
    count = rng.randint(1, min(6, 1 << n))
    pool = [
        frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(count)
    ]
    return list(dict.fromkeys(pool))


def rnd_model_set(rng: random.Random, n_atoms: int = 6) -> ModelSet:
    """Random multi-component set over a prefix of the atom universe."""
    atoms = list(range(n_atoms))
    rng.shuffle(atoms)
    comps = []
    while atoms:
        take = min(len(atoms), rng.randint(1, 3))
        block, atoms = sorted(atoms[:take]), atoms[take:]
        if rng.random() < 0.25:
            continue  # leave these atoms unconstrained
        comps.append(component_from_models(block, rnd_family(rng, block)))
    return ModelSet(tuple(comps))


def test_from_models_round_trip():
    fam = {frozenset({0}), frozenset({0, 1})}
    m = from_models([0, 1], fam)
    assert denot(m, [0, 1]) == frozenset(fam)


def test_from_models_random_round_trip():
    rng = random.Random(31)
    for _ in range(60):
        atoms = list(range(rng.randint(1, 5)))
        fam = rnd_family(rng, atoms)
        m = from_models(atoms, fam)
        assert denot(m, atoms) == frozenset(fam)


def test_canonical_factors_independent_atoms():
    # p fixed true, q free: canonical form keeps one single-atom component
    m = canonical(from_models([0, 1], [frozenset({0}), frozenset({0, 1})]))
    assert len(m.components) == 1
    assert m.components[0].atoms == (0,)


def test_component_helpers():
    c = component_from_models([2, 5], [frozenset({2}), frozenset({2, 5})])
    assert c.scope == frozenset({2, 5})
    assert c.bit_of() == {2: 0, 5: 1}
    assert not c.is_full()
    assert c.set_of(c.mask_of(frozenset({2, 5}))) == frozenset({2, 5})
    full = Component((3,), frozenset({0, 1}))
    assert full.is_full()


def test_project_reads_a_one_shot_iterable():
    c = Component((1, 2, 3), frozenset(range(8)))
    p = c.project(iter([1, 3]))
    assert p is not None and p.atoms == (1, 3)
    assert p == c.project((1, 3))


def test_full_set_and_scope():
    assert FULL_SET.scope == frozenset()
    assert denot(FULL_SET, [0, 1]) == frozenset(
        frozenset(c) for c in ({}, {0}, {1}, {0, 1})
    )


def test_restrict_is_projection():
    rng = random.Random(32)
    for _ in range(60):
        m = rnd_model_set(rng)
        keep = frozenset(a for a in range(6) if rng.random() < 0.5)
        direct = frozenset(
            i & keep for i in denot(m, list(range(6)))
        )
        assert denot(restrict(m, keep), sorted(keep)) == direct


def test_saturate_widens_denotation():
    rng = random.Random(33)
    universe = list(range(6))
    for _ in range(60):
        m = rnd_model_set(rng)
        kept = frozenset(a for a in universe if rng.random() < 0.6)
        d0 = denot(m, universe)
        d1 = denot(restrict(m, kept), universe)
        assert d0 <= d1


def test_saturate_nests_by_intersection():
    rng = random.Random(34)
    for _ in range(60):
        m = rnd_model_set(rng)
        u1 = frozenset(a for a in range(6) if rng.random() < 0.6)
        u2 = frozenset(a for a in range(6) if rng.random() < 0.6)
        twice = restrict(restrict(m, u1), u2)
        once = restrict(m, u1 & u2)
        assert model_sets_equal(twice, once)


def test_restrict_after_saturate_commutes():
    rng = random.Random(35)
    for _ in range(60):
        m = rnd_model_set(rng)
        u1 = frozenset(a for a in range(6) if rng.random() < 0.4)
        u2 = u1 | frozenset(a for a in range(6) if rng.random() < 0.4)
        lhs = restrict(restrict(m, u2), u1)
        rhs = restrict(m, u1)
        assert model_sets_equal(lhs, rhs)


def test_canonical_is_stable_and_equal():
    rng = random.Random(38)
    for _ in range(40):
        m = rnd_model_set(rng)
        c = canonical(m)
        assert model_sets_equal(m, c)
        assert c == canonical(c)
        least = [min(comp.atoms) for comp in c.components]
        assert least == sorted(least)


def test_holds_known_and_not_conventions():
    m = from_models([0, 1], [frozenset({0}), frozenset({0, 1})])
    assert holds_known(m, P)
    assert not holds_known(m, Q)
    # "not" is failure to know, so it can hold alongside failure of K
    assert holds_not(m, Q)
    assert not holds_not(m, P)
    assert holds_not(m, Neg(Q))


def test_satisfies_modal_queries():
    m = from_models([0, 1], [frozenset({0}), frozenset({0, 1})])
    assert satisfies(m, Known(P))
    assert satisfies(m, NotKnown(Q))
    assert not satisfies(m, Known(Q))
    assert satisfies_s5(m, [Known(P), NotKnown(Q)])
    assert not satisfies_s5(m, [Known(P), Known(Q)])


def test_query_spanning_components():
    m = ModelSet(
        (
            Component((0,), frozenset({0, 1})),
            Component((1,), frozenset({0, 1})),
        )
    )
    assert not holds_known(m, Disj((P, Q)))
    linked = from_models([0, 1], [frozenset({0}), frozenset({1})])
    assert holds_known(linked, Disj((P, Q)))


def test_query_resource_guards():
    tiny = dataclasses.replace(DEFAULT_LIMITS, max_query_free_atoms=1)
    with pytest.raises(ResourceLimit):
        holds_known(FULL_SET, Disj((P, Q)), tiny)
    two = ModelSet(
        (
            Component((0,), frozenset({0, 1})),
            Component((1,), frozenset({0, 1})),
        )
    )
    cramped = dataclasses.replace(DEFAULT_LIMITS, max_parts=2)
    with pytest.raises(CrossComponentFormula):
        holds_known(two, Disj((P, Q)), cramped)
    one = ModelSet((Component((0, 1), frozenset({0, 1, 2, 3})),))
    with pytest.raises(ResourceLimit):
        holds_known(one, Disj((P, Q)), cramped)


def test_query_wider_than_a_mask():
    # 70 touched atoms exceed the 62-bit vectorised path
    m = ModelSet(tuple(Component((a,), frozenset({1})) for a in range(70)))
    every = [Atom(a) for a in range(70)]
    assert holds_known(m, Conj(tuple(every)))
    assert not holds_known(m, Conj(tuple(every[:-1]) + (Neg(every[-1]),)))


def test_atoms_of_collects_leaves():
    sent = Disj((P, Neg(Known(Q))))
    assert atoms_of(sent) == frozenset({0, 1})
    assert not is_objective(sent)


def test_render_model_set_mentions_atoms():
    sig = nullary_sig(2)
    m = from_models([0, 1], [frozenset({0}), frozenset({0, 1})])
    text = render_model_set(m, sig)
    assert "p00" in text


def test_denotation_cap():
    with pytest.raises(ResourceLimit):
        denotation(FULL_SET, list(range(30)), cap=1 << 10)


def test_model_sets_equal_across_factorings():
    joined = ModelSet(
        (component_from_models([0, 1], [frozenset(), frozenset({0, 1})]),)
    )
    split = ModelSet(
        (
            component_from_models([0], [frozenset(), frozenset({0})]),
            component_from_models([1], [frozenset(), frozenset({1})]),
        )
    )
    # same atoms, different structure, different denotations
    assert not model_sets_equal(joined, split)
    same = ModelSet(
        (
            component_from_models([0], [frozenset({0})]),
            component_from_models([1], [frozenset()]),
        )
    )
    other = from_models([0, 1], [frozenset({0})])
    assert model_sets_equal(same, other)
