"""Self-checks for the brute-force reference implementations.

These pin the oracle to hand-checked values so that the differential
tests elsewhere in the suite compare the engine against something
trusted.
"""

from __future__ import annotations

import random

from hybridmknf.interp import Atom, Conj, Disj, Known, Neg, NotKnown
from hybridmknf.oracle import (
    at_least_as_close,
    brute_dynamic_stable_models,
    brute_fo_models,
    brute_mknf_models,
    brute_point_update,
    brute_sequence_update,
    brute_set_update,
    brute_stable_models,
    group_diff,
    mknf_satisfies,
)

from helpers import rnd_objective

P, Q, R = Atom(0), Atom(1), Atom(2)


def _sets(models):
    return sorted(sorted(m) for m in models)


def test_fo_models_examples():
    assert _sets(brute_fo_models([P], [0, 1])) == [[0], [0, 1]]
    # empty conjunction is a tautology
    assert _sets(brute_fo_models([Conj(())], [0])) == [[], [0]]
    assert brute_fo_models([P, Neg(P)], [0]) == []


def test_fo_models_against_pointwise_eval():
    from hybridmknf.interp import eval_objective

    rng = random.Random(20)
    for _ in range(40):
        sents = [rnd_objective(rng, range(4)) for _ in range(rng.randint(1, 3))]
        got = set(brute_fo_models(sents, [0, 1, 2, 3]))
        for bits in range(16):
            i = frozenset(a for a in range(4) if bits >> a & 1)
            assert (i in got) == all(eval_objective(s, i) for s in sents)


def test_mknf_models_examples():
    only = brute_mknf_models([Known(P)], [0])
    assert [_sets(m) for m in only] == [[[0]]]
    # no sentences: one model containing every interpretation
    assert [_sets(m) for m in brute_mknf_models([], [0])] == [[[], [0]]]
    assert [_sets(m) for m in brute_mknf_models([NotKnown(P)], [0])] == [[[], [0]]]


def test_mknf_models_vacuous_rule():
    # K p or ~(K q and not r): antecedent never fires, so the single
    # model keeps all eight interpretations
    rule = Disj((Known(P), Neg(Conj((Known(Q), NotKnown(R))))))
    models = brute_mknf_models([rule], [0, 1, 2])
    assert len(models) == 1
    assert len(models[0]) == 8


def test_mknf_satisfies_modal_split():
    full = frozenset([frozenset(), frozenset({0})])
    kp = frozenset([frozenset({0})])
    # K looks only at the first modal argument
    assert mknf_satisfies(Known(P), frozenset(), kp, kp)
    assert not mknf_satisfies(Known(P), frozenset({0}), full, kp)
    # not looks only at the second
    assert mknf_satisfies(NotKnown(P), frozenset({0}), kp, frozenset([frozenset()]))
    assert not mknf_satisfies(NotKnown(P), frozenset(), kp, kp)


def test_point_update_prefers_inert_candidate():
    got = brute_point_update(
        frozenset({0, 1}), [frozenset(), frozenset({0})], [[0], [1]]
    )
    assert _sets(got) == [[0]]


def test_set_update_example():
    got = brute_set_update(
        [frozenset({0, 1})], [frozenset(), frozenset({0})], [[0], [1]]
    )
    assert _sets(got) == [[0]]


def test_unit_group_set_update_is_pointwise():
    # with one atom per group, brute_set_update takes a shortcut over change
    # masks; it must agree with the pointwise transcription of the update,
    # also when some atoms lie outside every group
    rng = random.Random(61)
    outside = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        grouped = sorted(rng.sample(range(n), rng.randint(0, n)))
        outside += len(grouped) < n

        def family(count: int) -> list[frozenset[int]]:
            masks = rng.sample(range(1 << n), min(count, 1 << n))
            return [frozenset(a for a in range(n) if m >> a & 1) for m in masks]

        starts = family(rng.randint(1, 8))
        candidates = family(rng.randint(1, 12))
        groups = [[a] for a in grouped]
        want = set()
        for i in starts:
            want.update(brute_point_update(i, candidates, groups))
        assert brute_set_update(starts, candidates, groups) == want
    assert outside > 100


def test_sequence_update_folds_left():
    got = brute_sequence_update(
        [[frozenset({0, 1})], [frozenset(), frozenset({0})]], [[0], [1]]
    )
    assert _sets(got) == [[0]]
    single = brute_sequence_update([[frozenset({1})]], [[0], [1]])
    assert _sets(single) == [[1]]


def test_closeness_helpers():
    assert group_diff([0, 1], frozenset({0}), frozenset({1})) == frozenset({0, 1})
    i, j, k = frozenset({0, 1}), frozenset({0}), frozenset()
    assert at_least_as_close([[0], [1]], i, j, k)
    assert not at_least_as_close([[0], [1]], i, k, j)


def test_stable_models_examples():
    assert _sets(brute_stable_models([((True, 0), ((False, 1),))], [0, 1])) == [[0]]
    assert brute_stable_models([], [0]) == [frozenset()]
    assert brute_stable_models([((True, 0), ((True, 0),))], [0]) == [frozenset()]
    even = brute_stable_models(
        [((True, 0), ((False, 1),)), ((True, 1), ((False, 0),))], [0, 1]
    )
    assert _sets(even) == [[0], [1]]


def test_dynamic_stable_models_examples():
    # p <- q. q.  updated by  not q.
    intro = brute_dynamic_stable_models(
        [[((True, 0), ((True, 1),)), ((True, 1), ())], [((False, 1), ())]], [0, 1]
    )
    assert intro == [frozenset()]
    # same-stage conflict in the newest program leaves nothing stable
    clash = brute_dynamic_stable_models(
        [[((True, 0), ())], [((False, 0), ()), ((True, 0), ())]], [0]
    )
    assert clash == []


def test_dynamic_singleton_matches_static():
    rng = random.Random(21)
    for _ in range(30):
        rules = [
            (
                (True, rng.randrange(3)),
                tuple(
                    (rng.random() < 0.6, rng.randrange(3))
                    for _ in range(rng.randint(0, 2))
                ),
            )
            for _ in range(rng.randint(0, 4))
        ]
        assert set(brute_dynamic_stable_models([rules], [0, 1, 2])) == set(
            brute_stable_models(rules, [0, 1, 2])
        )
