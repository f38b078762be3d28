"""Minimal-change updates of classical theories, exercised directly and
against the exhaustive per-atom reference fold."""

from __future__ import annotations

import dataclasses
import random

import pytest

from hybridmknf import winslett
from hybridmknf.errors import EmptyIntersection, EmptyUpdate, ResourceLimit
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FULL_SET,
    Atom,
    Conj,
    Disj,
    Implies,
    Neg,
    atoms_of,
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
    with pytest.raises(
        ResourceLimit,
        match=r"theory needs a larger separator than the configured budget: "
        r"EngineLimits\.max_separator_atoms = 0 leaves a block of 6 atoms, "
        r"more than EngineLimits\.max_component_atoms = 1",
    ):
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
    # two parts of atom 0 times two values of the free atom 1
    halves = from_models([0], [frozenset(), frozenset({0})])
    with pytest.raises(
        ResourceLimit,
        match=r"update start set is too large to enumerate: 4 starts, "
        r"more than EngineLimits\.max_parts = 2",
    ):
        update_with_theory(halves, [Disj((P, Q))], two)
    # the empty start alone has three minimal results; checked with one
    # start point and with two
    some = Disj((P, Q, Atom(2)))
    for models in ([frozenset()], [frozenset(), frozenset({0})]):
        with pytest.raises(
            ResourceLimit,
            match=r"update produced too many distinct results: at least 3, "
            r"more than EngineLimits\.max_parts = 2",
        ):
            update_with_theory(from_models([0, 1, 2], models), [some], two)


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


TIGHT3 = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=3)
ATOMS8 = range(8)
UNIT_GROUPS8 = [[a] for a in ATOMS8]


def _eight_atom_draws(seed: int, count: int):
    """Start sets over 8 atoms with many start points, and update theories."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        start = [rnd_objective(rng, ATOMS8) for _ in range(rng.randint(1, 2))]
        upd = [rnd_objective(rng, ATOMS8) for _ in range(rng.randint(2, 3))]
        try:
            draws.append((theory_model_set(start, TIGHT3), upd))
        except EmptyIntersection:
            continue
    return draws


def test_update_matches_brute_over_many_start_points(monkeypatch):
    shapes = []
    solve = winslett._GroupSolver.updated_parts

    def recording(self, starts):
        shapes.append((len(self.separator), len(self.blocks), len(starts)))
        return solve(self, starts)

    monkeypatch.setattr(winslett._GroupSolver, "updated_parts", recording)
    for m, upd in _eight_atom_draws(57, 60):
        try:
            want = brute_set_update(
                denot(m, ATOMS8),
                denot(theory_model_set(upd), ATOMS8),
                UNIT_GROUPS8,
            )
        except EmptyIntersection:
            with pytest.raises(EmptyUpdate):
                update_with_theory(m, upd, TIGHT3)
            continue
        assert denot(update_with_theory(m, upd, TIGHT3), ATOMS8) == frozenset(want)
    assert max(sep for sep, _, _ in shapes) >= 2
    assert max(blocks for _, blocks, _ in shapes) >= 2
    assert max(starts for _, _, starts in shapes) >= 32


def test_update_is_pointwise_over_start_points():
    # the update of a start set must be the union of the updates of its
    # single points, each of which also takes the vectorised pass
    for m, upd in _eight_atom_draws(58, 12):
        try:
            whole = denot(update_with_theory(m, upd, TIGHT3), ATOMS8)
        except EmptyUpdate:
            continue
        starts = denot(m, ATOMS8)
        assert len(starts) > 1
        pointwise = set()
        for start in starts:
            one = from_models(list(ATOMS8), [start])
            pointwise |= denot(update_with_theory(one, upd, TIGHT3), ATOMS8)
        assert whole == pointwise


def test_update_result_does_not_depend_on_chunk_size(monkeypatch):
    draws = _eight_atom_draws(59, 20)
    want = []
    for m, upd in draws:
        try:
            want.append(update_with_theory(m, upd, TIGHT3))
        except EmptyUpdate:
            want.append(None)
    for size in (1, 3):
        monkeypatch.setattr(winslett, "_CHUNK_STARTS", size)
        for (m, upd), expected in zip(draws, want):
            if expected is None:
                with pytest.raises(EmptyUpdate):
                    update_with_theory(m, upd, TIGHT3)
            else:
                assert update_with_theory(m, upd, TIGHT3) == expected


def test_update_budget_counts_results_repeated_across_chunks(monkeypatch):
    # Exactly one of a, b, c, updating the starts {}, {a, b, c} and {d}, one
    # start per chunk: the first two chunks give the same three results, the
    # third three new ones.
    monkeypatch.setattr(winslett, "_CHUNK_STARTS", 1)
    one_of = [
        Disj((Atom(0), Atom(1), Atom(2))),
        Neg(Conj((Atom(0), Atom(1)))),
        Neg(Conj((Atom(0), Atom(2)))),
        Neg(Conj((Atom(1), Atom(2)))),
    ]
    starts = [frozenset(), frozenset({0, 1, 2}), frozenset({3})]
    m = from_models([0, 1, 2, 3], starts)
    six = dataclasses.replace(DEFAULT_LIMITS, max_parts=6)
    (c,) = update_with_theory(m, one_of, six).components
    assert c.parts.tolist() == [1, 2, 4, 9, 10, 12]
    five = dataclasses.replace(DEFAULT_LIMITS, max_parts=5)
    with pytest.raises(
        ResourceLimit,
        match=r"update produced too many distinct results: at least 6, "
        r"more than EngineLimits\.max_parts = 5",
    ):
        update_with_theory(m, one_of, five)


# Hand cases over s = 0, a = 1, b = 2 with blocks of one atom: s becomes the
# separator, and a and b the two blocks.
ONE_ATOM_BLOCKS = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=1)
S, A, B = Atom(0), Atom(1), Atom(2)


def _hand_update(sentences, starts):
    separator, blocks = winslett._decompose(
        [atoms_of(s) for s in sentences], ONE_ATOM_BLOCKS
    )
    assert separator == (0,) and blocks == [(1,), (2,)]
    m = from_models([0, 1, 2], starts)
    got = denot(update_with_theory(m, sentences, ONE_ATOM_BLOCKS), [0, 1, 2])
    want = brute_set_update(
        starts, denot(theory_model_set(sentences), [0, 1, 2]), [[0], [1], [2]]
    )
    assert got == frozenset(want)
    return got


def test_update_drops_candidate_below_smaller_separator_change():
    # Theory: a, and s -> b.  From {} and from {b}, keeping s false changes
    # only a.  Setting s true changes s and a, and b from {}: a larger
    # separator change whose a block contains {a} and whose b block
    # contains the empty change, so it is dropped.
    got = _hand_update([A, Implies(S, B)], [frozenset(), frozenset({2})])
    assert got == {frozenset({1}), frozenset({1, 2})}


def test_update_keeps_candidate_when_one_block_has_no_cover():
    # Same theory.  From {s} and {s, a}, clearing s changes s, a from {s},
    # and nothing in the b block.  Keeping s changes fewer separator atoms
    # but must change b, which that empty b change does not contain, so
    # both results survive.
    got = _hand_update([A, Implies(S, B)], [frozenset({0}), frozenset({0, 1})])
    assert got == {frozenset({1}), frozenset({0, 1, 2})}


def test_group_without_live_separator_value_has_no_models():
    # s and not s are separator-only sentences that no value of s satisfies,
    # so both the free and the given start set find no model.
    sentences = [Disj((A, S)), Disj((B, S)), S, Neg(S)]
    scoped = [(s, atoms_of(s)) for s in sentences]
    solver = winslett._GroupSolver((0, 1, 2), scoped, ONE_ATOM_BLOCKS)
    assert solver.separator == (0,) and solver.blocks == [(1,), (2,)]
    assert solver.live == []
    with pytest.raises(EmptyUpdate):
        update_with_theory(FULL_SET, sentences, ONE_ATOM_BLOCKS)
    m = from_models([0, 1, 2], [frozenset(), frozenset({1})])
    with pytest.raises(EmptyUpdate):
        update_with_theory(m, sentences, ONE_ATOM_BLOCKS)
    with pytest.raises(EmptyIntersection):
        theory_model_set(sentences, ONE_ATOM_BLOCKS)
