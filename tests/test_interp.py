"""Factored model sets: construction, projection, restriction, and modal
queries."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridmknf import dynamic_models, load_sequence
from hybridmknf.errors import CrossComponentFormula, ResourceLimit
from hybridmknf.interp import (
    DEFAULT_LIMITS,
    FALSE,
    FULL_SET,
    TRUE,
    Atom,
    Component,
    Conj,
    Disj,
    Implies,
    Known,
    ModelSet,
    Neg,
    NotKnown,
    atoms_of,
    component_from_models,
    denotation,
    eval_objective,
    expand,
    holds_known,
    holds_not,
    interpretation_count,
    is_objective,
    model_sets_equal,
    restrict,
    satisfies,
)
from hybridmknf.oracle import mknf_satisfies

from helpers import denot, from_models, rnd_objective

P, Q = Atom(0), Atom(1)


def rnd_family(rng: random.Random, atoms: list[int]) -> list[frozenset[int]]:
    n = len(atoms)
    count = rng.randint(1, min(6, 1 << n))
    pool = [
        frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(count)
    ]
    return list(dict.fromkeys(pool))


def rnd_model_set(
    rng: random.Random, n_atoms: int = 6, max_block: int = 3
) -> ModelSet:
    """Random multi-component set over a prefix of the atom universe."""
    atoms = list(range(n_atoms))
    rng.shuffle(atoms)
    comps = []
    while atoms:
        take = min(len(atoms), rng.randint(1, max_block))
        block, atoms = sorted(atoms[:take]), atoms[take:]
        if rng.random() < 0.25:
            continue  # leave these atoms unconstrained
        comps.append(component_from_models(block, rnd_family(rng, block)))
    return ModelSet(tuple(comps))


def product(c1: Component, c2: Component) -> Component:
    """One component denoting what two disjoint ones denote together."""
    atoms = tuple(sorted(c1.atoms + c2.atoms))
    return Component(atoms, expand([c1, c2], atoms))


def refactor(rng: random.Random, m: ModelSet, universe: list[int]) -> ModelSet:
    """The same denotation with components merged and free atoms absorbed."""
    comps = list(m.components)
    rng.shuffle(comps)
    free = [a for a in universe if a not in m.scope]
    out = []
    while comps:
        c = comps.pop()
        if comps and rng.random() < 0.5:
            c = product(c, comps.pop())
        if free and rng.random() < 0.5:
            c = product(c, Component((free.pop(),), frozenset({0, 1})))
        out.append(c)
    return ModelSet(tuple(out))


def mutate_one_part(rng: random.Random, m: ModelSet) -> ModelSet:
    """m with one part of one component swapped for a missing part, or
    dropped when the component has every part."""
    if not m.components:
        return ModelSet((Component((0,), frozenset({1})),))
    comps = list(m.components)
    i = rng.randrange(len(comps))
    c = comps[i]
    parts = set(c.parts)
    parts.discard(rng.choice(sorted(parts)))
    missing = [p for p in range(1 << len(c.atoms)) if p not in c.parts]
    if missing:
        parts.add(rng.choice(missing))
    comps[i] = Component(c.atoms, frozenset(parts))
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


def test_component_helpers():
    c = component_from_models([2, 5], [frozenset({2}), frozenset({2, 5})])
    assert c.scope == frozenset({2, 5})
    assert (c.fixed_true, c.fixed_false) == (0b01, 0b00)
    assert Component((2, 5), [0b10]).fixed_false == 0b01


def test_expand_lifts_parts_and_ranges_free_atoms():
    c = Component((2, 5), [0b01, 0b11])
    # atoms 2 and 5 at bits 2 and 0, free atom 7 at bit 1; product order
    assert expand([c], [5, 7, 2]).tolist() == [0b100, 0b110, 0b101, 0b111]
    # contiguous target bits take one shift
    assert expand([c], [0, 2, 5]).tolist() == [0b010, 0b011, 0b110, 0b111]
    assert expand([], []).tolist() == [0]
    ones = [Component((x,), [1]) for x in range(70)]
    wide = expand(ones, list(range(71)))
    assert wide.dtype == object and wide.tolist() == [(1 << 70) - 1, (1 << 71) - 1]


def assert_parts_array(c: Component) -> None:
    assert c.parts.dtype == np.int64 and c.parts.ndim == 1
    assert not c.parts.flags.writeable
    assert (np.diff(c.parts) > 0).all()


def test_component_parts_are_a_sorted_unique_read_only_array():
    made = [
        Component((0, 1, 2), frozenset({5, 1, 3})),
        Component((0, 1, 2), [3, 5, 1]),
        Component((0, 1, 2), np.array([5, 1, 3, 1, 5], dtype=np.int32)),
    ]
    for c in made:
        assert_parts_array(c)
        assert c.parts.tolist() == [1, 3, 5]
        assert c == made[0] and hash(c) == hash(made[0])
    assert made[0] != Component((0, 1, 2), [1, 3])
    assert made[0] != Component((0, 1, 3), [1, 3, 5])
    with pytest.raises(ValueError):
        made[0].parts[0] = 7
    empty = np.array([], dtype=np.int64)
    for bad in ([], empty, [-1, 3], [1, 8], [1 << 70], np.array([0, 8])):
        with pytest.raises(ValueError):
            Component((0, 1, 2), bad)


def test_cargo_components_hold_parts_arrays():
    for paths in (
        ["corpus/cargo.kb"],
        ["corpus/cargo.kb", "corpus/cargo_update.kb"],
    ):
        (m,) = dynamic_models(load_sequence(paths))
        assert m.components
        for c in m.components:
            assert_parts_array(c)


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
    assert all(satisfies(m, s) for s in [Known(P), NotKnown(Q)])
    assert not all(satisfies(m, s) for s in [Known(P), Known(Q)])


def test_literal_and_constant_queries_match_denotation():
    rng = random.Random(53)
    constants = [TRUE, FALSE, Neg(TRUE), Implies(TRUE, FALSE)]
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rnd_model_set(rng, n, max_block=4)
        literals = [s for a in range(n) for s in (Atom(a), Neg(Atom(a)))]
        for sent in literals + constants:
            universe = sorted(atoms_of(sent))
            want = all(eval_objective(sent, i) for i in denotation(m, universe))
            assert holds_known(m, sent) == want, (m, sent)
            assert holds_not(m, sent) != want, (m, sent)
            if not universe:
                kind = "constant"
            else:
                kind = "owned" if universe[0] in m.scope else "free"
            seen.add((kind, want))
    assert seen == {
        ("constant", True),
        ("constant", False),
        ("owned", True),
        ("owned", False),
        ("free", False),
    }


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
    # unconstrained atoms count against max_parts like any other factor
    tiny = dataclasses.replace(DEFAULT_LIMITS, max_parts=3)
    with pytest.raises(
        ResourceLimit,
        match=r"query enumeration over 4 interpretations exceeds "
        r"EngineLimits\.max_parts = 3",
    ):
        holds_known(FULL_SET, Disj((P, Q)), tiny)
    assert not holds_known(FULL_SET, Disj((P, Q)), dataclasses.replace(tiny, max_parts=4))
    # at the default budget of 2^21 interpretations, 17 free atoms are
    # enumerated and 22 are refused before anything is built
    wide = tuple(Atom(a) for a in range(17))
    assert not holds_known(FULL_SET, Disj(wide))
    assert holds_known(FULL_SET, Disj(wide + (Neg(P),)))
    with pytest.raises(ResourceLimit, match=f"over {1 << 22} interpretations"):
        holds_known(FULL_SET, Disj(tuple(Atom(a) for a in range(22))))
    two = ModelSet(
        (
            Component((0,), frozenset({0, 1})),
            Component((1,), frozenset({0, 1})),
        )
    )
    cramped = dataclasses.replace(DEFAULT_LIMITS, max_parts=2)
    with pytest.raises(
        CrossComponentFormula,
        match=r"spans 2 components whose joint enumeration of 4 interpretations "
        r"exceeds EngineLimits\.max_parts = 2",
    ):
        holds_known(two, Disj((P, Q)), cramped)
    one = ModelSet((Component((0, 1), frozenset({0, 1, 2, 3})),))
    with pytest.raises(ResourceLimit):
        holds_known(one, Disj((P, Q)), cramped)
    # the same guards hold for literals, before any answer
    single = dataclasses.replace(DEFAULT_LIMITS, max_parts=1)
    with pytest.raises(
        ResourceLimit,
        match=r"query enumeration over 2 interpretations exceeds "
        r"EngineLimits\.max_parts = 1",
    ):
        holds_known(FULL_SET, Neg(P), single)
    with pytest.raises(
        ResourceLimit,
        match=r"query enumeration over 2 interpretations exceeds "
        r"EngineLimits\.max_parts = 1",
    ):
        holds_known(two, P, single)
    with pytest.raises(ValueError):
        holds_known(two, Known(P))
    with pytest.raises(ValueError):
        holds_known(two, Known(TRUE))


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


def test_denotation_cap():
    # the count is named, so it was taken before anything was expanded
    with pytest.raises(ResourceLimit, match=f"expansion of {1 << 30} interp"):
        denotation(FULL_SET, list(range(30)))


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

    # a parity block over 6 atoms, whole or as two 3-atom parity factors,
    # next to 12 shared components whose joint expansion exceeds the cap
    even = [m for m in range(8) if m.bit_count() % 2 == 0]
    whole = Component(
        tuple(range(6)), frozenset(a | b << 3 for a in even for b in even)
    )
    halves = [Component(atoms, frozenset(even)) for atoms in ((0, 1, 2), (3, 4, 5))]
    shared = [Component((a, a + 1), frozenset({0, 1, 2})) for a in range(6, 30, 2)]
    assert model_sets_equal(ModelSet((whole, *shared)), ModelSet((*halves, *shared)))

    rng = random.Random(61)
    universe = list(range(8))
    for _ in range(40):
        m = rnd_model_set(rng, len(universe))
        copy = refactor(rng, m, universe)
        assert model_sets_equal(m, copy)
        assert denot(m, universe) == denot(copy, universe)
        mutant = mutate_one_part(rng, copy)
        want = denot(m, universe) == denot(mutant, universe)
        assert model_sets_equal(m, mutant) == want
        assert model_sets_equal(mutant, m) == want


def test_equality_settles_on_fixed_atoms_before_expanding():
    # linked over 49 atoms, each side counts 2**24 interpretations, past the
    # expansion cap; the atoms each side fixes already tell them apart
    a = ModelSet((Component(tuple(range(25)), [0]),))
    b = ModelSet((Component(tuple(range(24, 49)), [0]),))
    assert not model_sets_equal(a, b)
    assert not model_sets_equal(b, a)


def _members(m: ModelSet, universe: list[int]) -> set[frozenset[int]]:
    """The denoted interpretations over a small universe, by testing each
    subset of it against every component's parts."""
    out = set()
    for bits in range(1 << len(universe)):
        true = frozenset(a for i, a in enumerate(universe) if bits >> i & 1)
        if all(
            sum(1 << i for i, a in enumerate(c.atoms) if a in true) in c.parts
            for c in m.components
        ):
            out.add(true)
    return out


@st.composite
def _factored(draw, atoms: list[int], max_block: int) -> ModelSet:
    """Components over consecutive blocks of a shuffled atom list, some
    blocks left free."""
    atoms = draw(st.permutations(atoms))
    comps = []
    while atoms:
        take = draw(st.integers(1, max_block))
        block, atoms = sorted(atoms[:take]), atoms[take:]
        if draw(st.integers(0, 3)) == 0:
            continue
        masks = st.integers(0, (1 << len(block)) - 1)
        comps.append(Component(tuple(block), draw(st.sets(masks, min_size=1))))
    return ModelSet(tuple(comps))


# objective sentences over atoms 0-7, which every drawn universe holds
_SENTENCES = st.recursive(
    st.integers(0, 7).map(Atom) | st.sampled_from([TRUE, FALSE]),
    lambda sub: sub.map(Neg)
    | st.lists(sub, max_size=3).map(lambda xs: Conj(tuple(xs)))
    | st.lists(sub, max_size=3).map(lambda xs: Disj(tuple(xs)))
    | st.builds(Implies, sub, sub),
    max_leaves=8,
)


def _regroup(m: ModelSet, merge: list[bool]) -> ModelSet:
    """m with neighbouring components merged where merge says so."""
    comps = list(m.components)
    out = []
    while comps:
        c = comps.pop()
        if comps and merge[len(comps) % len(merge)]:
            c = product(c, comps.pop())
        out.append(c)
    return ModelSet(tuple(out))


@st.composite
def _narrow_case(draw):
    universe = list(range(8))
    a = draw(_factored(universe, 3))
    kind = draw(st.sampled_from(["other", "regrouped", "mutant"]))
    if kind == "other":
        b = draw(_factored(universe, 3))
    else:
        b = _regroup(a, draw(st.lists(st.booleans(), min_size=1)))
        if kind == "mutant":
            b = mutate_one_part(random.Random(draw(st.integers(0, 99))), b)
    return universe, a, b, draw(_SENTENCES)


@st.composite
def _wide_case(draw):
    # one-part components over 63-70 atoms with at most 4 of them free; the
    # second set holds the same or a one-bit-flipped interpretation, blocked
    # differently, so that linked groups can run past 62 atoms
    n = draw(st.integers(63, 70))
    free = draw(st.sets(st.integers(0, n - 1), max_size=4))
    covered = [x for x in range(n) if x not in free]
    bits = draw(st.integers(0, (1 << n) - 1))
    true = frozenset(x for x in covered if bits >> x & 1)
    other = true
    if draw(st.booleans()):
        other = true ^ {draw(st.sampled_from(covered))}
    rng = random.Random(draw(st.integers(0, 1 << 16)))

    def blocked(truth: frozenset[int]) -> ModelSet:
        comps, rest = [], covered
        while rest:
            take = rng.randint(1, 5)
            block, rest = tuple(rest[:take]), rest[take:]
            mask = sum(1 << i for i, x in enumerate(block) if x in truth)
            comps.append(Component(block, [mask]))
        return ModelSet(tuple(comps))

    # touches every atom, so holds_known runs past 62 bits
    every = Conj(
        tuple(Atom(x) if x in true else Neg(Atom(x)) for x in covered)
        + tuple(Disj((Atom(x), Neg(Atom(x)))) for x in sorted(free))
    )
    sent = draw(_SENTENCES)
    sent = draw(st.sampled_from([sent, Disj((sent, every)), Conj((sent, every))]))
    return list(range(n)), blocked(true), blocked(other), sent


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_narrow_case() | _wide_case())
def test_expansion_readers_agree_with_the_denotation(case):
    universe, a, b, sent = case
    den_a, den_b = denotation(a, universe), denotation(b, universe)
    if len(universe) == 8:
        assert den_a == _members(a, universe)
        assert den_b == _members(b, universe)
    assert model_sets_equal(a, b) == (den_a == den_b)
    assert model_sets_equal(b, a) == (den_a == den_b)
    want = all(eval_objective(sent, i) for i in den_a)
    assert holds_known(a, sent) == want


# objective sentences over atoms 0-4, and sentences that mix K and not over
# them with objective parts outside any modality, under nested connectives
_OBJECTIVE_5 = st.recursive(
    st.integers(0, 4).map(Atom) | st.sampled_from([TRUE, FALSE]),
    lambda sub: sub.map(Neg)
    | st.lists(sub, max_size=3).map(lambda xs: Conj(tuple(xs)))
    | st.lists(sub, max_size=3).map(lambda xs: Disj(tuple(xs)))
    | st.builds(Implies, sub, sub),
    max_leaves=4,
)
_MODAL_5 = st.recursive(
    _OBJECTIVE_5 | _OBJECTIVE_5.map(Known) | _OBJECTIVE_5.map(NotKnown),
    lambda sub: sub.map(Neg)
    | st.lists(sub, max_size=4).map(lambda xs: Conj(tuple(xs)))
    | st.lists(sub, max_size=4).map(lambda xs: Disj(tuple(xs)))
    | st.builds(Implies, sub, sub),
    max_leaves=6,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_factored(list(range(5)), 3), _MODAL_5)
def test_satisfies_matches_the_literal_mknf_reading(m, sent):
    # satisfies folds modal parts to constants and stops a conjunction,
    # disjunction or conditional once a constant decides it; the oracle
    # evaluates every part in every interpretation of M
    universe = list(range(5))
    models = frozenset(denotation(m, universe))
    want = all(mknf_satisfies(sent, i, models, models) for i in models)
    assert satisfies(m, sent) == want


@st.composite
def _union_case(draw):
    """A union component over 2-8 of the atoms 0-7, split into 2-3 factors
    whose scope positions interleave and run in any order, with 1-4
    pairwise disjoint terms; the flat component of the same parts; and the
    atoms outside its scope, some under one flat component."""
    scope = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=2))))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    n_factors = rng.randint(2, min(3, len(scope)))
    owner = list(range(n_factors))
    owner += [rng.randrange(n_factors) for _ in range(len(scope) - n_factors)]
    rng.shuffle(owner)
    factors = []
    for k in range(n_factors):
        positions = [i for i, f in enumerate(owner) if f == k]
        rng.shuffle(positions)
        factors.append(tuple(positions))
    terms: list[list[list[int]]] = []
    seen: set[int] = set()
    wanted = rng.randint(1, 4)
    # draw terms until enough are disjoint from those kept
    for _ in range(8 * wanted):
        term = [rng.sample(range(1 << len(f)), rng.randint(1, min(3, 1 << len(f))))
                for f in factors]
        parts = {
            sum(_scope_bits(mask, f) for mask, f in zip(combo, factors))
            for combo in itertools.product(*term)
        }
        if not parts & seen:
            terms.append(term)
            seen |= parts
        if len(terms) == wanted:
            break
    union = Component.union(scope, factors, [[np.array(a) for a in t] for t in terms])
    others = [a for a in range(8) if a not in scope and rng.random() < 0.5]
    around = []
    if others:
        parts = rng.sample(range(1 << len(others)), rng.randint(1, 1 << len(others)))
        around = [Component(tuple(others), parts)]
    return union, Component(scope, sorted(seen)), around


def _scope_bits(mask: int, positions: tuple[int, ...]) -> int:
    """A factor mask moved to the scope positions of its factor."""
    return sum(1 << p for i, p in enumerate(positions) if mask >> i & 1)


_MODAL_8 = st.recursive(
    _SENTENCES | _SENTENCES.map(Known) | _SENTENCES.map(NotKnown),
    lambda sub: sub.map(Neg)
    | st.lists(sub, max_size=3).map(lambda xs: Conj(tuple(xs)))
    | st.lists(sub, max_size=3).map(lambda xs: Disj(tuple(xs)))
    | st.builds(Implies, sub, sub),
    max_leaves=4,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    _union_case(),
    st.lists(_SENTENCES, min_size=1, max_size=3),
    _MODAL_8,
    st.sets(st.integers(0, 7)),
    st.integers(0, 99),
)
def test_union_component_reads_as_its_flat_parts(case, sents, modal, keep, seed):
    union, flat, around = case
    assert union.part_count == flat.part_count == len(flat.parts)
    assert union.rows == sum(a.size for t in union.terms for a in t)
    assert union.parts.tolist() == flat.parts.tolist()
    assert not union.parts.flags.writeable and union == flat
    assert hash(union) == hash(flat)
    assert (union.fixed_true, union.fixed_false) == (flat.fixed_true, flat.fixed_false)
    assert union.project(keep) == flat.project(keep)
    assert interpretation_count([union] + around, 8) == interpretation_count(
        [flat] + around, 8
    )
    assert sorted(expand([union] + around, range(8)).tolist()) == sorted(
        expand([flat] + around, range(8)).tolist()
    )
    m_union, m_flat = ModelSet(tuple([union] + around)), ModelSet(tuple([flat] + around))
    literals = [s for a in union.atoms for s in (Atom(a), Neg(Atom(a)))]
    for sent in sents + literals:
        assert holds_known(m_union, sent) == holds_known(m_flat, sent), sent
    assert satisfies(m_union, modal) == satisfies(m_flat, modal)
    assert model_sets_equal(m_union, m_flat) and model_sets_equal(m_flat, m_union)
    other = mutate_one_part(random.Random(seed), m_flat)
    assert model_sets_equal(m_union, other) == model_sets_equal(m_flat, other)
    assert model_sets_equal(other, m_union) == model_sets_equal(other, m_flat)


def test_union_wider_than_a_mask_reads_factor_by_factor():
    # about 20 factors of 3-4 atoms each over the atoms 0-69, whose
    # positions interleave, and 3 disjoint terms; read against a
    # brute-force evaluation of each term's factors on their own
    rng = random.Random(61)
    atoms = tuple(range(70))
    order = list(atoms)
    rng.shuffle(order)
    factors = []
    at = 0
    while at < 70:
        width = min(70 - at, rng.choice((3, 4)))
        factors.append(tuple(order[at:at + width]))
        at += width
    # factor 0 tells the terms apart, so they are pairwise disjoint
    terms = []
    for t in range(3):
        term = [[t]] + [
            rng.sample(range(1 << len(f)), rng.randint(1, 3)) for f in factors[1:]
        ]
        if t == 1:
            # a factor fixed in this term only, so it fixes no atom overall
            term[5] = [(1 << len(factors[5])) - 1]
        terms.append(term)
    union = Component.union(atoms, factors, [[np.array(a) for a in t] for t in terms])
    assert union.part_count == sum(math.prod(len(a) for a in t) for t in terms)
    assert union.rows == sum(len(a) for t in terms for a in t)
    fixed_true = fixed_false = (1 << 70) - 1
    for term in terms:
        for values, f in zip(term, factors):
            for v in values:
                fixed_true &= ~_scope_bits(~v & (1 << len(f)) - 1, f)
                fixed_false &= ~_scope_bits(v, f)
    assert (union.fixed_true, union.fixed_false) == (fixed_true, fixed_false)
    assert fixed_true and fixed_false
    free = Component((70, 71), [0, 3])
    m = ModelSet((union, free))

    def brute(sent):
        # true in every part of every term, each term read only on the
        # factors the sentence touches, and in both parts over atoms 70, 71
        rel = atoms_of(sent)
        touched = [k for k, f in enumerate(factors) if rel & set(f)]
        for term in terms:
            for combo in itertools.product(*(term[k] for k in touched)):
                true = set()
                for mask, k in zip(combo, touched):
                    true |= {factors[k][i] for i in range(len(factors[k])) if mask >> i & 1}
                for extra in (set(), {70, 71}):
                    if not eval_objective(sent, frozenset(true | extra)):
                        return False
        return True

    for a in atoms + (70, 71):
        for lit in (Atom(a), Neg(Atom(a))):
            assert holds_known(m, lit) == brute(lit), lit
    for _ in range(200):
        picked = rng.sample(factors, rng.randint(1, 3))
        pool = [a for f in picked for a in f] + [70]
        sent = rnd_objective(rng, pool)
        assert holds_known(m, sent) == brute(sent), sent
        modal = Implies(Known(sent), rnd_objective(rng, pool))
        want = not brute(sent) or brute(modal.head)
        assert satisfies(m, modal) == want, modal
