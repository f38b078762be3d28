"""Minimal-change updates of classical theories, exercised directly and
against the exhaustive per-atom reference fold."""

from __future__ import annotations

import dataclasses
import random

import pytest

from hybridmknf.errors import EmptyIntersection, EmptyUpdate, ResourceLimit
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FULL_SET,
    Atom,
    Disj,
    Implies,
    Neg,
    denotation,
    eval_objective,
    from_models,
    model_sets_equal,
)
from hybridmknf.oracle import brute_sequence_update, brute_set_update
from hybridmknf.winslett import (
    sequence_update_model,
    theory_model_set,
    update_with_theory,
)

from helpers import denot, rnd_objective

P, Q = Atom(0), Atom(1)
UNIT_GROUPS6 = [[a] for a in range(6)]


def test_theory_model_set_examples():
    assert denot(theory_model_set([P]), [0, 1]) == frozenset(
        [frozenset({0}), frozenset({0, 1})]
    )
    assert theory_model_set([]) == FULL_SET
    with pytest.raises(EmptyIntersection):
        theory_model_set([P, Neg(P)])


def test_theory_model_set_random_round_trip():
    rng = random.Random(51)
    for _ in range(60):
        sents = [rnd_objective(rng, range(5)) for _ in range(rng.randint(1, 3))]
        want = frozenset(
            frozenset(a for a in range(5) if bits >> a & 1)
            for bits in range(32)
            if all(
                eval_objective(
                    s, frozenset(a for a in range(5) if bits >> a & 1)
                )
                for s in sents
            )
        )
        if not want:
            with pytest.raises(EmptyIntersection):
                theory_model_set(sents)
            continue
        assert denot(theory_model_set(sents), range(5)) == want


def test_update_keeps_satisfying_start():
    # a start already inside the update theory is untouched
    m = from_models([0, 1], [frozenset({0}), frozenset({0, 1})])
    assert model_sets_equal(update_with_theory(m, [P]), m)


def test_update_is_idempotent_on_own_result():
    rng = random.Random(52)
    for _ in range(30):
        start = [rnd_objective(rng, range(4)) for _ in range(2)]
        upd = [rnd_objective(rng, range(4)) for _ in range(2)]
        try:
            m = theory_model_set(start)
            once = update_with_theory(m, upd)
            twice = update_with_theory(once, upd)
        except EmptyIntersection:
            continue
        except EmptyUpdate:
            continue
        assert model_sets_equal(once, twice)


def test_update_inertia_example():
    m = from_models([0, 1], [frozenset({0, 1})])
    got = update_with_theory(m, [Neg(Q)])
    assert denot(got, [0, 1]) == frozenset([frozenset({0})])


def test_update_unsatisfiable_theory():
    m = from_models([0], [frozenset({0})])
    with pytest.raises(EmptyUpdate):
        update_with_theory(m, [Q, Neg(Q)])


def test_update_result_within_new_theory():
    rng = random.Random(53)
    for _ in range(50):
        start = [rnd_objective(rng, range(5)) for _ in range(2)]
        upd = [rnd_objective(rng, range(5)) for _ in range(2)]
        try:
            res = update_with_theory(theory_model_set(start), upd)
        except (EmptyIntersection, EmptyUpdate):
            continue
        new = denot(theory_model_set(upd), range(5))
        assert denot(res, range(5)) <= new


def test_update_matches_brute_fold():
    rng = random.Random(54)
    groups = [[a] for a in range(5)]
    for _ in range(80):
        start = [rnd_objective(rng, range(5)) for _ in range(rng.randint(1, 3))]
        upd = [rnd_objective(rng, range(5)) for _ in range(rng.randint(1, 3))]
        try:
            m = theory_model_set(start)
        except EmptyIntersection:
            continue
        try:
            res = update_with_theory(m, upd)
        except EmptyUpdate:
            continue
        want = brute_set_update(
            denot(m, range(5)), denot(theory_model_set(upd), range(5)), groups
        )
        assert denot(res, range(5)) == frozenset(want)


def test_update_matches_brute_under_forced_separator():
    rng = random.Random(55)
    tight = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=3)
    for _ in range(40):
        start = [rnd_objective(rng, range(6)) for _ in range(3)]
        upd = [rnd_objective(rng, range(6)) for _ in range(2)]
        try:
            m = theory_model_set(start, tight)
            res = update_with_theory(m, upd, tight)
        except (EmptyIntersection, EmptyUpdate):
            continue
        want = brute_set_update(
            denot(m, range(6)),
            denot(theory_model_set(upd), range(6)),
            UNIT_GROUPS6,
        )
        assert denot(res, range(6)) == frozenset(want)


def test_separator_budget_guard():
    one = dataclasses.replace(
        DEFAULT_LIMITS, max_component_atoms=1, max_separator_atoms=0
    )
    chain = [Implies(Atom(a), Atom(a + 1)) for a in range(5)]
    with pytest.raises(ResourceLimit):
        theory_model_set(chain, one)


def test_cap_errors_name_the_cap():
    chain = [Disj((Atom(a), Atom(a + 1))) for a in range(63)]
    with pytest.raises(
        ResourceLimit,
        match=r"group of 64 atoms exceeds the mask width winslett\._LONG_BITS = 62",
    ):
        update_with_theory(FULL_SET, chain)
    two = dataclasses.replace(DEFAULT_LIMITS, max_parts=2)
    with pytest.raises(
        ResourceLimit,
        match=r"too many models to enumerate: at least 3, "
        r"more than EngineLimits\.max_parts = 2",
    ):
        update_with_theory(FULL_SET, [Disj((P, Q))], two)


def test_sequence_identity_and_singleton():
    assert sequence_update_model([]) == FULL_SET
    assert model_sets_equal(sequence_update_model([[P]]), theory_model_set([P]))


def test_sequence_two_stage_example():
    got = sequence_update_model([[Implies(Q, P), Q], [Neg(Q)]])
    assert denot(got, [0, 1]) == frozenset([frozenset({0})])


def test_sequence_unsatisfiable_stage():
    with pytest.raises(EmptyUpdate):
        sequence_update_model([[P], [Q, Neg(Q)]])


def test_sequence_matches_brute_fold():
    rng = random.Random(56)
    groups = [[a] for a in range(4)]
    for _ in range(50):
        stages = [
            [rnd_objective(rng, range(4)) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(1, 3))
        ]
        try:
            res = sequence_update_model(stages)
        except (EmptyIntersection, EmptyUpdate):
            continue
        model_lists = []
        ok = True
        for stage in stages:
            try:
                model_lists.append(sorted(denot(theory_model_set(stage), range(4))))
            except EmptyIntersection:
                ok = False
                break
        if not ok:
            continue
        want = brute_sequence_update(model_lists, groups)
        assert denot(res, range(4)) == frozenset(want)


def test_six_atom_benchmark():
    # regression pin for a mid-sized randomized instance
    rng = random.Random(1234)
    atoms = list(range(6))
    t_start = [rnd_objective(rng, atoms) for _ in range(3)]
    t_upd = [rnd_objective(rng, atoms) for _ in range(3)]
    m0 = theory_model_set(t_start)
    assert len(denot(m0, atoms)) == 16
    assert len(denot(theory_model_set(t_upd), atoms)) == 8
    res = update_with_theory(m0, t_upd)
    assert sorted(map(sorted, denot(res, atoms))) == [
        [0, 1, 2, 5],
        [0, 2, 5],
        [1, 2, 5],
        [2, 5],
    ]
