"""Slow reference implementations used to pin expected values in tests.

Everything here favours a direct transcription of the defining conditions
over speed, and works on explicit sets of interpretations.  The engine
modules are tested against these functions on small inputs; the engine
itself only calls in for opt-in cross-checks and for layers too entangled
to split, which it solves exhaustively when they are small enough.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimit
from .interp import Sentence, atoms_of, eval_objective_masks

# A rule literal is (positive, atom); a rule is (head, body literals).
Lit = tuple[bool, int]
RuleT = tuple[Lit, tuple[Lit, ...]]


# ---------------------------------------------------------------------------
# classical models


def brute_fo_models(
    sentences: Iterable[Sentence], universe: Sequence[int]
) -> list[frozenset[int]]:
    """All classical models of objective sentences over the given atoms."""
    universe = sorted(universe)
    n = len(universe)
    if n > 24:
        raise ResourceLimit(f"classical sweep over {n} atoms is too large")
    for s in sentences:
        stray = atoms_of(s) - set(universe)
        if stray:
            raise ValueError(f"sentence mentions atoms outside the universe: {stray}")
    bit = {a: i for i, a in enumerate(universe)}
    masks = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(masks.shape, dtype=bool)
    for s in sentences:
        ok &= eval_objective_masks(s, bit, masks)
    out = []
    for m in masks[ok]:
        out.append(frozenset(a for a in universe if int(m) >> bit[a] & 1))
    return out


# ---------------------------------------------------------------------------
# minimal-change update

# Closeness to a point I is compared predicate by predicate: J stays at least
# as close as J' when, for every atom group, the atoms J changes relative to
# I form a subset of those J' changes.


def group_diff(
    group: Iterable[int], i: frozenset[int], j: frozenset[int]
) -> frozenset[int]:
    g = frozenset(group)
    return (i ^ j) & g


def at_least_as_close(
    groups: Sequence[Iterable[int]],
    i: frozenset[int],
    j: frozenset[int],
    k: frozenset[int],
) -> bool:
    """Whether j is at least as close to i as k is, group by group."""
    return all(group_diff(g, i, j) <= group_diff(g, i, k) for g in groups)


def brute_point_update(
    i: frozenset[int],
    candidates: Iterable[frozenset[int]],
    groups: Sequence[Iterable[int]],
) -> list[frozenset[int]]:
    """Candidates minimally changed from i under the group-wise order."""
    cands = list(candidates)
    out = []
    for j in cands:
        if any(
            k != j and at_least_as_close(groups, i, k, j)
            and not at_least_as_close(groups, i, j, k)
            for k in cands
        ):
            continue
        out.append(j)
    return out


def _unit_group_atoms(groups: Sequence[Iterable[int]]) -> list[int] | None:
    atoms = []
    for g in groups:
        members = list(g)
        if len(members) != 1:
            return None
        atoms.append(members[0])
    if len(set(atoms)) != len(atoms):
        return None
    return atoms


def _unit_set_update(
    m_list: list[frozenset[int]],
    n_list: list[frozenset[int]],
    atoms: list[int],
) -> set[frozenset[int]]:
    """Set update for singleton groups via difference-mask minimality.

    With one atom per group the closeness preorder collapses to subset
    comparison of change masks, so the strictly beaten candidates are
    exactly those whose mask has a proper present subset.
    """
    bit = {a: b for b, a in enumerate(atoms)}
    u = len(atoms)
    size = 1 << u
    idx = np.arange(size, dtype=np.int64)

    def proj(s: frozenset[int]) -> int:
        m = 0
        for a in s:
            b = bit.get(a)
            if b is not None:
                m |= 1 << b
        return m

    # atoms outside every group never influence closeness, so candidates
    # sharing a projection stand or fall together
    by_proj: dict[int, list[frozenset[int]]] = {}
    for n in n_list:
        by_proj.setdefault(proj(n), []).append(n)
    present = np.zeros(size, dtype=bool)
    present[list(by_proj)] = True

    bit_sel = []
    for b in range(u):
        hi = (idx >> b & 1) == 1
        bit_sel.append((hi, idx[hi] ^ (1 << b)))

    out: set[frozenset[int]] = set()
    for pi in {proj(i) for i in m_list}:
        d_present = present[idx ^ pi]
        reach = d_present.copy()
        for hi, lo in bit_sel:
            reach[hi] |= reach[lo]
        proper = np.zeros(size, dtype=bool)
        for hi, lo in bit_sel:
            proper[hi] |= reach[lo]
        for d in np.nonzero(d_present & ~proper)[0]:
            out.update(by_proj[int(d) ^ pi])
    return out


def brute_set_update(
    m_models: Iterable[frozenset[int]],
    n_models: Iterable[frozenset[int]],
    groups: Sequence[Iterable[int]],
) -> set[frozenset[int]]:
    """Pointwise minimal-change update of one model set by another."""
    m_list = list(m_models)
    n_list = list(n_models)
    atoms = _unit_group_atoms(groups)
    if atoms is not None and len(atoms) <= 16:
        return _unit_set_update(m_list, n_list, atoms)
    out: set[frozenset[int]] = set()
    for i in m_list:
        out.update(brute_point_update(i, n_list, groups))
    return out


def brute_sequence_update(
    model_lists: Sequence[Iterable[frozenset[int]]],
    groups: Sequence[Iterable[int]],
) -> set[frozenset[int]]:
    """Left fold of the update over a sequence, from all interpretations."""
    universe = sorted({a for g in groups for a in g})
    if len(universe) > 20:
        raise ResourceLimit("update fold universe is too large")
    current: set[frozenset[int]] = set()
    for mask in range(1 << len(universe)):
        current.add(frozenset(a for k, a in enumerate(universe) if mask >> k & 1))
    for models in model_lists:
        current = brute_set_update(current, models, groups)
    return current


# ---------------------------------------------------------------------------
# stable and update-tolerant stable models

# Default negation is handled by the usual two-sorted reading: a literal
# "not p" becomes an ordinary atom paired with p, programs become definite,
# and an interpretation is checked against the least model of its transform.


def _least_tokens(rules: Iterable[tuple[Lit, tuple[Lit, ...]]]) -> frozenset[Lit]:
    rules = list(rules)
    true: set[Lit] = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in true and all(b in true for b in body):
                true.add(head)
                changed = True
    return frozenset(true)


def _holds(lit: Lit, i: frozenset[int]) -> bool:
    positive, atom = lit
    return (atom in i) == positive


def brute_stable_models(
    rules: Sequence[RuleT], scope: Sequence[int]
) -> list[frozenset[int]]:
    """Stable models of one program, by sweeping all interpretations."""
    scope = sorted(scope)
    if len(scope) > 16:
        raise ResourceLimit("stable-model sweep scope is too large")
    out = []
    for mask in range(1 << len(scope)):
        i = frozenset(a for k, a in enumerate(scope) if mask >> k & 1)
        completion: list[RuleT] = [((False, p), ()) for p in scope if p not in i]
        expected = frozenset({(True, p) for p in i} | {(False, p) for p in scope if p not in i})
        if _least_tokens(list(rules) + completion) == expected:
            out.append(i)
    return out


def brute_dynamic_stable_models(
    programs: Sequence[Sequence[RuleT]], scope: Sequence[int]
) -> list[frozenset[int]]:
    """Stable models of a program sequence under conflict-driven rejection.

    A rule is rejected when a later or same-stage rule with the opposite
    head fires in the candidate interpretation.  Default assumptions are
    only added for atoms no rule occurrence at all derives, so rejected
    rules still block assumptions.
    """
    scope = sorted(scope)
    if len(scope) > 16:
        raise ResourceLimit("stable-model sweep scope is too large")
    tagged = [
        (stage, idx, rule)
        for stage, prog in enumerate(programs)
        for idx, rule in enumerate(prog)
    ]
    out = []
    for mask in range(1 << len(scope)):
        i = frozenset(a for k, a in enumerate(scope) if mask >> k & 1)
        rejected = set()
        for stage, idx, (head, _body) in tagged:
            for stage2, _idx2, (head2, body2) in tagged:
                if stage2 < stage:
                    continue
                if head2[1] == head[1] and head2[0] != head[0] and all(
                    _holds(b, i) for b in body2
                ):
                    rejected.add((stage, idx))
                    break
        supported = {
            head[1]
            for _stage, _idx, (head, body) in tagged
            if head[0] and all(_holds(b, i) for b in body)
        }
        defaults: list[RuleT] = [((False, p), ()) for p in scope if p not in supported]
        kept = [
            rule for stage, idx, rule in tagged if (stage, idx) not in rejected
        ]
        expected = frozenset({(True, p) for p in i} | {(False, p) for p in scope if p not in i})
        if _least_tokens(kept + defaults) == expected:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# models of modal theories

# An interpretation set is judged against a theory by evaluating every
# sentence in every member, reading K over the set itself and negation
# as failure against a second, fixed set.  A set is a model when it passes
# that check against itself and no strict superset passes it against the
# original set.


def brute_mknf_models(
    sentences: Sequence[Sentence], universe: Sequence[int]
) -> list[frozenset[frozenset[int]]]:
    universe = sorted(universe)
    n = len(universe)
    if n > 4:
        raise ResourceLimit(f"modal sweep over {n} atoms is too large")
    bit = {a: i for i, a in enumerate(universe)}
    n_interp = 1 << n
    full = (1 << n_interp) - 1

    # per-atom mask over interpretation space: which interpretations make it true
    atom_masks = {}
    for a in universe:
        m = 0
        for i in range(n_interp):
            if i >> bit[a] & 1:
                m |= 1 << i
        atom_masks[a] = m

    def holds_mask(sent: Sentence, m_arr: np.ndarray, n_arr: np.ndarray) -> np.ndarray:
        """Interpretation-set mask of the sentence, per candidate set."""
        from .interp import Atom, Conj, Disj, Implies, Known, Neg, NotKnown

        if isinstance(sent, Atom):
            return np.full(m_arr.shape, atom_masks[sent.index], dtype=np.int64)
        if isinstance(sent, Neg):
            return ~holds_mask(sent.sub, m_arr, n_arr) & full
        if isinstance(sent, Conj):
            out = np.full(m_arr.shape, full, dtype=np.int64)
            for s in sent.subs:
                out &= holds_mask(s, m_arr, n_arr)
            return out
        if isinstance(sent, Disj):
            out = np.zeros(m_arr.shape, dtype=np.int64)
            for s in sent.subs:
                out |= holds_mask(s, m_arr, n_arr)
            return out
        if isinstance(sent, Implies):
            return (~holds_mask(sent.body, m_arr, n_arr) & full) | holds_mask(
                sent.head, m_arr, n_arr
            )
        if isinstance(sent, Known):
            sub = holds_mask(sent.sub, m_arr, n_arr)
            return np.where(m_arr & ~sub == 0, full, 0).astype(np.int64)
        if isinstance(sent, NotKnown):
            sub = holds_mask(sent.sub, m_arr, n_arr)
            return np.where(n_arr & ~sub != 0, full, 0).astype(np.int64)
        raise TypeError(f"not a sentence: {sent!r}")

    m_arr = np.arange(1, full + 1, dtype=np.int64)
    sat = np.ones(m_arr.shape, dtype=bool)
    for s in sentences:
        sat &= (m_arr & ~holds_mask(s, m_arr, m_arr)) == 0
    s5_models = [int(m) for m in m_arr[sat]]

    all_sets = np.arange(0, full + 1, dtype=np.int64)
    not_masks = _objective_not_masks(sentences, atom_masks, full)
    keep: list[int] = []
    if not_masks is None:
        # some modal subtree is itself modal: check each candidate alone
        for m in s5_models:
            supersets = all_sets[(all_sets & m) == m]
            supersets = supersets[supersets != m]
            if supersets.size:
                ok = np.ones(supersets.shape, dtype=bool)
                fixed_n = np.full(supersets.shape, m, dtype=np.int64)
                for s in sentences:
                    ok &= (supersets & ~holds_mask(s, supersets, fixed_n)) == 0
                if bool(ok.any()):
                    continue
            keep.append(m)
    else:
        # the fixed second context only enters through the "not" subtrees,
        # so candidates driving them identically share one preference sweep
        groups: dict[tuple[bool, ...], list[int]] = {}
        for m in s5_models:
            key = tuple(m & ~nm != 0 for nm in not_masks)
            groups.setdefault(key, []).append(m)
        for members in groups.values():
            rep = np.full(all_sets.shape, members[0], dtype=np.int64)
            passes = np.ones(all_sets.shape, dtype=bool)
            for s in sentences:
                passes &= (all_sets & ~holds_mask(s, all_sets, rep)) == 0
            passes[0] = False
            beaten = _strict_superset_or(passes, n_interp)
            keep.extend(m for m in members if not beaten[m])
        keep.sort()

    return [
        frozenset(
            frozenset(a for a in universe if i >> bit[a] & 1)
            for i in range(n_interp)
            if m >> i & 1
        )
        for m in keep
    ]


def _objective_not_masks(
    sentences: Sequence[Sentence], atom_masks: dict[int, int], full: int
) -> list[int] | None:
    """Interpretation masks of every "not" subtree, or None when a modal
    operator wraps something modal and the grouped sweep does not apply."""
    from .interp import Atom, Conj, Disj, Implies, Known, Neg, NotKnown, is_objective

    def obj_mask(sent: Sentence) -> int:
        if isinstance(sent, Atom):
            return atom_masks[sent.index]
        if isinstance(sent, Neg):
            return ~obj_mask(sent.sub) & full
        if isinstance(sent, Conj):
            out = full
            for s in sent.subs:
                out &= obj_mask(s)
            return out
        if isinstance(sent, Disj):
            out = 0
            for s in sent.subs:
                out |= obj_mask(s)
            return out
        if isinstance(sent, Implies):
            return (~obj_mask(sent.body) & full) | obj_mask(sent.head)
        raise TypeError(f"not an objective sentence: {sent!r}")

    masks: set[int] = set()

    def walk(sent: Sentence) -> bool:
        if isinstance(sent, (Known, NotKnown)):
            if not is_objective(sent.sub):
                return False
            if isinstance(sent, NotKnown):
                masks.add(obj_mask(sent.sub))
            return True
        if isinstance(sent, Neg):
            return walk(sent.sub)
        if isinstance(sent, (Conj, Disj)):
            return all(walk(s) for s in sent.subs)
        if isinstance(sent, Implies):
            return walk(sent.body) and walk(sent.head)
        return True

    if not all(walk(s) for s in sentences):
        return None
    return sorted(masks)


def _strict_superset_or(passes: np.ndarray, n_bits: int) -> np.ndarray:
    """For each set index, whether any strict superset index passes."""
    idx = np.arange(passes.size, dtype=np.int64)
    z = passes.copy()
    for b in range(n_bits):
        z |= z[idx | (1 << b)]
    out = np.zeros_like(passes)
    for b in range(n_bits):
        clear = (idx >> b & 1) == 0
        out[clear] |= z[idx[clear] | (1 << b)]
    return out


def mknf_satisfies(
    sent: Sentence,
    i: frozenset[int],
    m: frozenset[frozenset[int]],
    n: frozenset[frozenset[int]],
) -> bool:
    """Literal one-interpretation reading, for spot checks of the mask path."""
    from .interp import Atom, Conj, Disj, Implies, Known, Neg, NotKnown

    if isinstance(sent, Atom):
        return sent.index in i
    if isinstance(sent, Neg):
        return not mknf_satisfies(sent.sub, i, m, n)
    if isinstance(sent, Conj):
        return all(mknf_satisfies(s, i, m, n) for s in sent.subs)
    if isinstance(sent, Disj):
        return any(mknf_satisfies(s, i, m, n) for s in sent.subs)
    if isinstance(sent, Implies):
        return (not mknf_satisfies(sent.body, i, m, n)) or mknf_satisfies(
            sent.head, i, m, n
        )
    if isinstance(sent, Known):
        return all(mknf_satisfies(sent.sub, j, m, n) for j in m)
    if isinstance(sent, NotKnown):
        return any(not mknf_satisfies(sent.sub, j, m, n) for j in n)
    raise TypeError(f"not a sentence: {sent!r}")
