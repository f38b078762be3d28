"""Minimal-change updates of classical theories, exercised directly and
against the exhaustive per-atom reference fold."""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridmknf import winslett
from hybridmknf.errors import EmptyIntersection, EmptyUpdate, ResourceLimit
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FULL_SET,
    Atom,
    Component,
    Conj,
    Disj,
    Implies,
    ModelSet,
    Neg,
    atoms_of,
    denotation,
    eval_objective,
    holds_known,
    interpretation_count,
    model_sets_equal,
)
from hybridmknf.oracle import brute_fo_models, brute_sequence_update, brute_set_update
from hybridmknf.winslett import (
    sequence_update_model,
    theory_model_set,
    update_with_theory,
)

from helpers import denot, from_models, rnd_objective

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


def _hub_chains(k: int, length: int) -> list:
    """k disjunction chains over atoms 1.. of the given length, each with its
    first atom or-ed with the hub atom 0, which separates them."""
    out = []
    for first in range(1, 1 + k * length, length):
        out.append(Disj((Atom(0), Atom(first))))
        out.extend(Disj((Atom(a), Atom(a + 1))) for a in range(first, first + length - 1))
    return out


def test_group_wider_than_a_mask_answers_as_one_union():
    # both values of the hub atom 0 are live, so its 65-atom group comes
    # back as one union component; under each hub value the four chains are
    # independent copies of the one chain behind the hub
    (wide,) = theory_model_set(_hub_chains(4, 16)).components
    assert wide.atoms == tuple(range(65))
    per_chain = []
    for hub in (Neg(P), P):
        one = theory_model_set(_hub_chains(1, 16) + [hub])
        (chain,) = [c for c in one.components if c.atoms != (0,)]
        per_chain.append(chain.part_count)
    assert wide.part_count == sum(count ** 4 for count in per_chain)
    assert "parts" not in vars(wide)
    # the same literals hold as behind the one-chain hub, chain by chain
    single = theory_model_set(_hub_chains(1, 16))
    wide_set = ModelSet((wide,))
    for a in range(65):
        twin = 0 if a == 0 else (a - 1) % 16 + 1
        for lit, twin_lit in ((Atom(a), Atom(twin)), (Neg(Atom(a)), Neg(Atom(twin)))):
            assert holds_known(wide_set, lit) == holds_known(single, twin_lit), lit


def _hub_equivalences(k: int, length: int) -> list:
    """k chains of equivalences over atoms 1.. of the given length, each
    chain's first atom or-ed with the hub atom 0: with the hub false every
    chain is true, with it true each chain is all true or all false."""
    out = []
    for first in range(1, 1 + k * length, length):
        out.append(Disj((Atom(0), Atom(first))))
        out.extend(
            Conj((Implies(Atom(a), Atom(a + 1)), Implies(Atom(a + 1), Atom(a))))
            for a in range(first, first + length - 1)
        )
    return out


def test_start_factor_wider_than_a_mask_is_refused_before_expanding():
    # the first stage leaves one union component over 65 atoms with 1 + 2^4
    # parts; the second touches its hub, so the start factor is that whole
    # component
    first = update_with_theory(FULL_SET, _hub_equivalences(4, 16))
    (wide,) = first.components
    assert (len(wide.atoms), wide.part_count) == (65, 17)
    with mock.patch.object(winslett, "expand", side_effect=AssertionError("expanded")):
        with pytest.raises(
            ResourceLimit,
            match=r"^update start factor of 65 atoms exceeds the mask width "
            r"winslett\._LONG_BITS = 62$",
        ):
            update_with_theory(first, [Neg(P)])


def test_cap_errors_name_the_cap():
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
    # the block of P | Q | 2 has seven models to minimise from each start
    # value, with one start point and with two
    some = Disj((P, Q, Atom(2)))
    for models in ([frozenset()], [frozenset(), frozenset({0})]):
        with pytest.raises(
            ResourceLimit,
            match=rf"update block table is too large to build: {len(models)} start "
            r"values x 7 block models, more than EngineLimits\.max_parts = 2",
        ):
            update_with_theory(from_models([0, 1, 2], models), [some], two)
    # exactly one of 0 and 1, and of 2 and 3: two blocks of two models each,
    # which the one start point links into one factor of four results
    one_of = [Disj((P, Q)), Neg(Conj((P, Q)))]
    one_of += [Disj((Atom(2), Atom(3))), Neg(Conj((Atom(2), Atom(3))))]
    with pytest.raises(
        ResourceLimit,
        match=r"update results need too many stored rows: 4, "
        r"more than EngineLimits\.max_parts = 2",
    ):
        update_with_theory(from_models([0, 1, 2, 3], [frozenset()]), one_of, two)


def _sure_hub():
    """Atom 0 is true, and while it is, each block {j, j + 3} for j = 1, 2, 3
    holds j or not j + 3; with two-atom blocks, atom 0 is the separator, and
    the parts budget is 12."""
    sentences = [P] + [
        Implies(P, Disj((Atom(j), Neg(Atom(j + 3))))) for j in (1, 2, 3)
    ]
    limits = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=2, max_parts=12)
    return sentences, limits


def test_start_set_is_counted_per_factor():
    # free atoms 0, 4, 5 and 6 make 128 start points over the group, but the
    # start factors hold 2, 4, 4 and 4 of them, within a budget of 12
    sentences, limits = _sure_hub()
    m = ModelSet(tuple(Component((j,), [0, 1]) for j in (1, 2, 3)))
    universe = list(range(7))
    assert interpretation_count(list(m.components), len(universe)) == 128
    want = brute_set_update(
        denot(m, universe), brute_fo_models(sentences, universe), [[a] for a in universe]
    )
    got = update_with_theory(m, sentences, limits)
    assert denot(got, universe) == frozenset(want)


def test_oversized_start_factor_is_refused_before_expanding():
    # one start component over atoms 1, 2 and 3 links the three blocks into
    # one factor of 8 x 8 = 64 start points
    sentences, limits = _sure_hub()
    m = ModelSet((Component((1, 2, 3), list(range(8))),))
    with mock.patch.object(winslett, "expand", side_effect=AssertionError("expanded")):
        with pytest.raises(
            ResourceLimit,
            match=r"update start set is too large to enumerate: 64 starts, "
            r"more than EngineLimits\.max_parts = 12",
        ):
            update_with_theory(m, sentences, limits)


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
    solve = winslett._GroupSolver.updated_components

    def recording(self, comps):
        starts = interpretation_count(comps, len(self.atoms))
        shapes.append((len(self.separator), len(self.blocks), starts))
        return solve(self, comps)

    monkeypatch.setattr(winslett._GroupSolver, "updated_components", recording)
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
    # single points, each of which is a start set of one point per factor
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
    # Exactly one of a, b, c, updating the starts {}, {a, b, c}, {d} and {e},
    # one start per chunk: the first two chunks give the same three results,
    # the others three new ones each.  The block table holds the two start
    # values on a, b, c times three models, fewer than the nine results.
    monkeypatch.setattr(winslett, "_CHUNK_STARTS", 1)
    one_of = [
        Disj((Atom(0), Atom(1), Atom(2))),
        Neg(Conj((Atom(0), Atom(1)))),
        Neg(Conj((Atom(0), Atom(2)))),
        Neg(Conj((Atom(1), Atom(2)))),
    ]
    starts = [frozenset(), frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]
    m = from_models([0, 1, 2, 3, 4], starts)
    nine = dataclasses.replace(DEFAULT_LIMITS, max_parts=9)
    (c,) = update_with_theory(m, one_of, nine).components
    assert c.parts.tolist() == [1, 2, 4, 9, 10, 12, 17, 18, 20] and c.rows == 9
    eight = dataclasses.replace(DEFAULT_LIMITS, max_parts=8)
    with pytest.raises(
        ResourceLimit,
        match=r"update results need too many stored rows: 9, "
        r"more than EngineLimits\.max_parts = 8",
    ):
        update_with_theory(m, one_of, eight)


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


def test_one_surviving_live_value_gives_one_component_per_block():
    # s is free, so both of its values are live, but with s true the a
    # block has no model: only s false is a term, and the models come back
    # as s fixed false, a fixed true and b free, one component each
    sentences = [Disj((A, S)), Implies(S, B), Implies(S, Conj((A, Neg(A))))]
    scoped = [(s, atoms_of(s)) for s in sentences]
    solver = winslett._GroupSolver((0, 1, 2), scoped, ONE_ATOM_BLOCKS)
    assert solver.separator == (0,) and solver.live == [0, 1]
    got = update_with_theory(FULL_SET, sentences, ONE_ATOM_BLOCKS)
    assert [(c.atoms, c.parts.tolist()) for c in got.components] == [
        ((0,), [0]), ((1,), [1]), ((2,), [0, 1]),
    ]
    assert denot(got, [0, 1, 2]) == frozenset(brute_fo_models(sentences, [0, 1, 2]))


def test_several_surviving_live_values_give_one_union_component(monkeypatch):
    # with s false, a and b are free (4 models); with s true, both hold
    # (1 model): one component over the group holds both products, each
    # factored by the separator and the two blocks
    sentences = [Disj((A, Neg(S))), Disj((B, Neg(S)))]
    got = update_with_theory(FULL_SET, sentences, ONE_ATOM_BLOCKS)
    (union,) = got.components
    assert union.atoms == (0, 1, 2) and union.factors == ((0,), (1,), (2,))
    # each array in its factor's own bits
    assert [[a.tolist() for a in term] for term in union.terms] == [
        [[0], [0, 1], [0, 1]], [[1], [1], [1]],
    ]
    assert (union.part_count, union.rows) == (5, 8)
    assert "parts" not in vars(union)
    assert denot(got, [0, 1, 2]) == frozenset(brute_fo_models(sentences, [0, 1, 2]))
    assert len(union.parts) == 5
    # the budget counts the rows of every term, not only those before the
    # cap, and refuses before the component is built
    three = dataclasses.replace(ONE_ATOM_BLOCKS, max_parts=3)
    built = []
    monkeypatch.setattr(winslett.Component, "union", lambda *a: built.append(a))
    with pytest.raises(
        ResourceLimit,
        match=r"^theory models need too many stored rows: 8, "
        r"more than EngineLimits\.max_parts = 3$",
    ):
        update_with_theory(FULL_SET, sentences, three)
    assert not built


def test_wide_group_with_one_live_separator_value_solves():
    # with the hub fixed true, the 65-atom group of
    # test_group_wider_than_a_mask_answers_as_one_union has one live
    # separator value: it comes back as the hub and one
    # component per chain, each with the models of the chain alone
    m = update_with_theory(FULL_SET, _hub_chains(4, 16) + [Atom(0)])
    assert [c.atoms for c in m.components] == [(0,)] + [
        tuple(range(first, first + 16)) for first in (1, 17, 33, 49)
    ]
    assert m.components[0].parts.tolist() == [1]
    (chain,) = theory_model_set(_hub_chains(1, 16)[1:]).components
    assert len(chain.parts) == 2584
    for c in m.components[1:]:
        assert c.parts.tolist() == chain.parts.tolist()


def test_block_wider_than_the_mask_is_refused():
    wide = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=70)
    chain = [Disj((Atom(a), Atom(a + 1))) for a in range(63)]
    with pytest.raises(
        ResourceLimit,
        match=r"block of 64 atoms exceeds the mask width winslett\._LONG_BITS = 62",
    ):
        update_with_theory(FULL_SET, chain, wide)


def _one_live_value_case(n_sep: int, sizes: list[int], signs: list[bool], seed: int):
    """Sentences whose separator is atoms 0.. (n_sep of them), fixed by unit
    sentences of the given signs, with blocks of the given sizes behind it,
    drawn from the seed; and limits under which no block needs a separator
    of its own."""
    rng = random.Random(seed)
    sentences = [Atom(s) if sign else Neg(Atom(s)) for s, sign in enumerate(signs)]
    first = n_sep
    for size in sizes:
        block = range(first, first + size)
        first += size
        # tautologies make the block's first sentence mention all its atoms,
        # so the blocks link more atoms to the separator than any one block
        # holds, and the group needs the separator
        mention = tuple(Disj((Atom(a), Neg(Atom(a)))) for a in block)
        sentences.append(Conj((rnd_objective(rng, block),) + mention))
        # two sentences per separator atom and block give the separator
        # atoms the top degree, and the lowest index breaks ties
        for s in range(n_sep):
            sentences.append(Implies(Atom(s), rnd_objective(rng, block)))
            sentences.append(Implies(Neg(Atom(s)), rnd_objective(rng, block)))
    limits = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=max(sizes))
    return n_sep, list(range(first)), sentences, limits


@st.composite
def _one_live_value_theories(draw):
    """One-live-value cases over at most 12 atoms: 1 or 2 separator atoms
    and 2-4 blocks."""
    n_sep = draw(st.integers(1, 2))
    n_blocks = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, (12 - n_sep) // n_blocks)) for _ in range(n_blocks)]
    signs = [draw(st.booleans()) for _ in range(n_sep)]
    return _one_live_value_case(n_sep, sizes, signs, draw(st.integers(0, 1 << 16)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_one_live_value_theories())
# without the tautologies, this draw's sentences never mention atom 4, and
# its atoms fall apart into blocks of at most max_component_atoms = 5 with
# no separator
@example(_one_live_value_case(1, [1, 5], [True], 1))
def test_one_live_value_gives_one_component_per_block(case):
    n_sep, universe, sentences, limits = case
    want = frozenset(brute_fo_models(sentences, universe))
    if not want:
        with pytest.raises(EmptyUpdate):
            update_with_theory(FULL_SET, sentences, limits)
        return
    got = update_with_theory(FULL_SET, sentences, limits)
    assert denot(got, universe) == want
    scoped = [(s, atoms_of(s)) for s in sentences]
    group = tuple(sorted(set().union(*(rel for _, rel in scoped))))
    solver = winslett._GroupSolver(group, scoped, limits)
    assert solver.separator == tuple(range(n_sep)) and len(solver.live) == 1
    assert len(got.components) == 1 + len(solver.blocks) >= 3
    # the per-block path keeps the parts budget, block by block
    largest = max(len(c.parts) for c in got.components)
    capped = dataclasses.replace(limits, max_parts=largest - 1)
    with pytest.raises(
        ResourceLimit,
        match=rf"too many models to enumerate: at least {largest}, "
        rf"more than EngineLimits\.max_parts = {largest - 1}",
    ):
        update_with_theory(FULL_SET, sentences, capped)


@st.composite
def _factored_updates(draw):
    """An update theory over a separator (atoms 0.., one or two of them) and
    2-3 blocks of 1-2 atoms behind it, and a start set whose components may
    link two blocks, link the separator to a block, or carry atoms that only
    the start set mentions; at most 9 atoms in all."""
    n_sep = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(2, 3)))]
    n_only = draw(st.integers(0, min(2, 9 - n_sep - sum(sizes))))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    blocks, first = [], n_sep
    for size in sizes:
        blocks.append(list(range(first, first + size)))
        first += size
    universe = list(range(first + n_only))
    sentences = []
    if draw(st.booleans()):
        # a separator-only sentence, which may leave one or several live values
        sentences.append(rnd_objective(rng, range(n_sep)))
    for block in blocks:
        sentences.append(rnd_objective(rng, block))
        for s in range(n_sep):
            sentences.append(Implies(Atom(s), rnd_objective(rng, block)))
            sentences.append(Implies(Neg(Atom(s)), rnd_objective(rng, block)))
    if draw(st.booleans()):
        # while atom 0 is true, the first block has no model
        b = Atom(blocks[0][0])
        sentences.append(Implies(Atom(0), Conj((b, Neg(b)))))
    # start components: units of the theory, some merged, some left free
    units = [list(range(n_sep))] + [list(b) for b in blocks]
    if draw(st.booleans()):
        units[1:3] = [units[1] + units[2]]
    if draw(st.booleans()):
        units[0:2] = [units[0] + units[1]]
    for a in range(first, first + n_only):
        units[draw(st.integers(0, len(units) - 1))].append(a)
    comps = []
    for unit in units:
        if draw(st.booleans()) or unit[-1] >= first:
            atoms = tuple(sorted(unit))
            masks = range(1 << len(atoms))
            comps.append(Component(atoms, rng.sample(masks, rng.randint(1, min(4, len(masks))))))
    limits = dataclasses.replace(DEFAULT_LIMITS, max_component_atoms=max(sizes))
    return universe, sentences, ModelSet(tuple(comps)), limits


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_factored_updates())
def _check_factored_update(case):
    universe, sentences, m, limits = case
    theory = brute_fo_models(sentences, universe)
    want = None
    if theory:
        want = frozenset(
            brute_set_update(denot(m, universe), theory, [[a] for a in universe])
        )
    for size in (winslett._CHUNK_STARTS, 1, 3):
        with mock.patch.object(winslett, "_CHUNK_STARTS", size):
            if want is None:
                with pytest.raises(EmptyUpdate):
                    update_with_theory(m, sentences, limits)
            else:
                assert denot(update_with_theory(m, sentences, limits), universe) == want


def test_factored_update_matches_oracle(monkeypatch):
    # every start-set shape that splits a group into factors occurs, and each
    # result equals the exhaustive pointwise update at three chunk sizes
    seen = set()
    solve = winslett._GroupSolver.updated_components

    def recording(self, comps):
        units = [set(self.separator)] + [set(b) for b in self.blocks]
        touched = [[u for u in units if u & c.scope] for c in comps]
        if len(self.live) > 1:
            seen.add("several live values")
        if any(not self.block_models(j, e).size
               for j in range(len(self.blocks)) for e in self.live):
            seen.add("a block without models under a live value")
        if any(len(t) > 1 and units[0] not in t for t in touched):
            seen.add("two blocks linked")
        if self.separator and any(units[0] in t and len(t) > 1 for t in touched):
            seen.add("separator linked to a block")
        if set(self.atoms) - set().union(*units):
            seen.add("atoms only the start set mentions")
        if len(self.blocks) > 1 and all(len(t) <= 1 for t in touched):
            seen.add("a product over the separator and the blocks")
        return solve(self, comps)

    monkeypatch.setattr(winslett._GroupSolver, "updated_components", recording)
    _check_factored_update()
    assert seen == {
        "several live values",
        "a block without models under a live value",
        "two blocks linked",
        "separator linked to a block",
        "atoms only the start set mentions",
        "a product over the separator and the blocks",
    }


@pytest.mark.parametrize("width", [1, 62, 63, 130])
def test_unique_rows_numbers_distinct_rows_at_any_width(width):
    # rows wider than one int64 word are compared word by word
    rng = np.random.default_rng(width)
    bits = rng.random((40, width)) < 0.5
    bits[20:] = bits[:20]
    bits[5, -1] = not bits[5, -1]
    rows, index = winslett._unique_rows(bits)
    assert (rows[index] == bits).all()
    assert len(rows) == len(np.unique(bits, axis=0))


def _assert_block_table_matches_reference(models, values, width):
    # the reference minimises each (value, live value) pair with
    # _minimal_diffs and compares every diff with every chain for cover
    table = winslett._BlockTable(models, values, width)
    chains = [
        [winslett._minimal_diffs((m ^ v).tolist()) for m in models]
        for v in values.tolist()
    ]
    assert table.count.tolist() == [[len(c) for c in row] for row in chains]
    for v, row in enumerate(chains):
        for li, chain in enumerate(row):
            start = table.first[v, li]
            assert table.diffs[start:start + table.count[v, li]].tolist() == chain
    assert table.diffs.tolist() == [d for row in chains for c in row for d in c]
    if len(models) <= 1:
        assert table.cover is None
    else:
        assert table.cover.tolist() == [
            [any(o & ~d == 0 for o in other) for other in row]
            for row in chains for c in row for d in c
        ]


@st.composite
def _block_tables(draw):
    """A block of 1-10 atoms, 0-4 live values each with models of some
    density (none and all included), and a nonempty set of start values."""
    width = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    densities = st.sampled_from([0.0, 0.02, 0.3, 0.8, 1.0])
    models = [
        np.flatnonzero(rng.random(1 << width) < draw(densities))
        for _ in range(draw(st.integers(0, 4)))
    ]
    keep = rng.random(1 << width) < draw(st.sampled_from([0.02, 0.3, 1.0]))
    keep[rng.integers(1 << width)] = True
    return models, np.flatnonzero(keep), width


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_block_tables(), st.sampled_from([winslett._CHUNK_CELLS, 1, 1 << 9]))
def test_block_table_matches_the_pass_per_value(table, cells):
    with mock.patch.object(winslett, "_CHUNK_CELLS", cells):
        _assert_block_table_matches_reference(*table)


@pytest.mark.parametrize(
    "width, n_live, n_models, n_values, dense",
    [
        # 15 models over 15 bits: 15^2 is far below 2^15 * 15
        (15, 1, 15, 1, False),
        # 1,024 models over 11 bits: 1024^2 is above 2^11 * 11
        (11, 4, 1024, 64, True),
    ],
)
def test_block_table_regime_follows_its_size(width, n_live, n_models, n_values, dense):
    rng = np.random.default_rng(width)
    models = [
        np.sort(rng.choice(1 << width, n_models, replace=False)) for _ in range(n_live)
    ]
    values = np.sort(rng.choice(1 << width, n_values, replace=False))
    with mock.patch.object(
        winslett, "_dense_chains", wraps=winslett._dense_chains
    ) as transform:
        _assert_block_table_matches_reference(models, values, width)
    assert transform.called == dense
