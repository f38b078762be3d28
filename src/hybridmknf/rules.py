"""Ground rule programs, stable models, and update-tolerant stable models.

Rules are ground, with default negation allowed in bodies and heads.  Truth
of a default literal is handled by the usual two-sorted reading: "not p"
becomes an atom of its own, paired with p, and candidate interpretations are
checked against the least model of the resulting definite program.  Each
search compiles its rules into integer masks: a rule becomes its stage, its
head literal, and a positive and a negative body mask.  Every candidate is
then checked with integer operations alone.  A program sequence is first
bounded by the well-founded alternating fixpoint, which respects causal
rejection; only the candidate atoms it leaves undecided are guessed, so a
stratified program without default-negated heads is one candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ResourceLimit
from .interp import EngineLimits, DEFAULT_LIMITS

# (positive, atom index); (False, p) is the default literal "not p"
Lit = tuple[bool, int]

_CANDIDATE_CAP = 1 << 20


@dataclass(frozen=True)
class Rule:
    head: Lit
    body: tuple[Lit, ...]

    def atoms(self) -> frozenset[int]:
        return frozenset([self.head[1]] + [a for _, a in self.body])


def scope_of(rules: Iterable[Rule]) -> frozenset[int]:
    out: set[int] = set()
    for r in rules:
        out |= r.atoms()
    return frozenset(out)


# (stage, head is positive, head atom mask, positive body mask, negative
# body mask) of one compiled rule
_MaskRule = tuple[int, bool, int, int, int]


def _compile(
    programs: Sequence[Sequence[Rule]],
    scope: frozenset[int] | None,
    heads: list[int] | None = None,
) -> tuple[list[int], int, list[_MaskRule]]:
    """One search's programs as integer masks over the atoms.

    The candidate atoms, by default the positive heads inside the scope,
    take the lowest bits in the given order, so candidate number m is its
    own mask of true atoms.  Returns the candidate atoms, the scope mask
    and the rules in stage order.
    """
    all_rules = [r for prog in programs for r in prog]
    mentioned = scope_of(all_rules)
    if scope is None:
        scope = mentioned
    if heads is None:
        # only atoms some positive-head rule can derive may be true in a
        # stable model; everything else in the scope is forced false
        heads = sorted({r.head[1] for r in all_rules if r.head[0]} & scope)
    order = heads + sorted((scope | mentioned) - set(heads))
    mask = {a: 1 << j for j, a in enumerate(order)}
    compiled = []
    for stage, prog in enumerate(programs):
        for rule in prog:
            pos = neg = 0
            for positive, atom in rule.body:
                if positive:
                    pos |= mask[atom]
                else:
                    neg |= mask[atom]
            positive, atom = rule.head
            compiled.append((stage, positive, mask[atom], pos, neg))
    return heads, sum(mask[a] for a in scope), compiled


def _least_model(
    rules: Sequence[tuple[bool, int, int, int]], true: int, false: int
) -> tuple[int, int]:
    """Least model of definite rules over "p" and "not p" as separate atoms,
    from the given true and false masks.  A rule is (head is positive,
    head atom mask, positive body mask, negative body mask); its body holds
    when its positive atoms are true and its negative atoms are false."""
    while True:
        before = true, false
        for positive, atom, pos, neg in rules:
            if pos & true == pos and neg & false == neg:
                if positive:
                    true |= atom
                else:
                    false |= atom
        if (true, false) == before:
            return true, false


def _bounds(compiled: Sequence[_MaskRule], scope_mask: int) -> tuple[int, int]:
    """Masks of the atoms true in every stable model (sure) and of those
    true in some (maybe), by the alternating fixpoint of the well-founded
    semantics over the positive-head rules.

    maybe is their least model when "not a" holds for every scope atom a
    outside sure, leaving out each rule that a "not" rule of the same atom
    surely rejects: one at its stage or a later one whose positive body lies
    inside sure and whose negative body misses maybe.  sure is the least
    model of the rules that no such "not" rule can reject, when "not a"
    holds only for the scope atoms outside maybe; a "not" rule can reject
    only when its body can hold, its positive body inside maybe and its
    negative body missing sure.  A stable model derives its atoms from rules
    it keeps, whose negated atoms are false scope atoms, so it holds sure
    and lies inside maybe.  sure only grows and maybe only shrinks, so the
    pair settles.
    """
    nots = [(t, a, pos, neg) for t, positive, a, pos, neg in compiled if not positive]
    heads = [(t, a, pos, neg) for t, positive, a, pos, neg in compiled if positive]
    sure, maybe = 0, -1
    while True:
        # the latest stage of a "not" rule per atom among those whose body
        # surely holds, then among those whose body can hold (the rules come
        # in stage order)
        surely = {
            a: t for t, a, pos, neg in nots if pos & sure == pos and not neg & maybe
        }
        derive = [(True, a, pos, neg) for t, a, pos, neg in heads if surely.get(a, -1) < t]
        narrower = maybe & _least_model(derive, 0, scope_mask & ~sure)[0]
        can = {
            a: t for t, a, pos, neg in nots if pos & narrower == pos and not neg & sure
        }
        kept = [(True, a, pos, neg) for t, a, pos, neg in heads if can.get(a, -1) < t]
        wider = sure | _least_model(kept, 0, scope_mask & ~narrower)[0]
        if (wider, narrower) == (sure, maybe):
            return sure, maybe
        sure, maybe = wider, narrower


def _check_candidates(guessed: int, atoms: str) -> None:
    """Refuse a sweep over 2^guessed candidates past _CANDIDATE_CAP."""
    if 1 << guessed > _CANDIDATE_CAP:
        raise ResourceLimit(
            f"stable-model search over {atoms} (2^{guessed} = {1 << guessed} "
            f"candidates) exceeds rules._CANDIDATE_CAP = {_CANDIDATE_CAP}"
        )


def _as_models(heads: Sequence[int], found: Iterable[int]) -> list[frozenset[int]]:
    models = [frozenset(a for j, a in enumerate(heads) if m >> j & 1) for m in found]
    return sorted(models, key=sorted)


def stable_models(
    rules: Sequence[Rule],
    scope: frozenset[int] | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[frozenset[int]]:
    """Stable models of one program over the given scope.

    A candidate is stable when the least model of the program, with every
    scope atom outside the candidate assumed false, makes exactly the
    candidate's atoms true and exactly those assumptions false.
    """
    del limits
    heads, scope_mask, compiled = _compile([rules], scope)
    _check_candidates(len(heads), f"{len(heads)} candidate atoms")
    program = [(positive, atom, pos, neg) for _, positive, atom, pos, neg in compiled]
    found = []
    for i in range(1 << len(heads)):
        if _least_model(program, 0, scope_mask ^ i) == (i, scope_mask ^ i):
            found.append(i)
    return _as_models(heads, found)


def dynamic_stable_models(
    programs: Sequence[Sequence[Rule]],
    scope: frozenset[int] | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[frozenset[int]]:
    """Stable models of a program sequence under conflict-driven rejection.

    In a candidate, a rule fires when the candidate satisfies its body,
    atoms outside the scope being false.  A rule is rejected when a rule
    with the opposite head fires at its stage or a later one.  A scope atom
    is assumed false when no rule with it as head fires, rejected or not,
    so an atom whose only support was rejected is not assumed false.  The
    candidate is stable when the least model of the rules not rejected,
    plus those assumptions, makes exactly the candidate's atoms true and
    every other scope atom false.

    Only the candidate atoms the well-founded bounds leave undecided are
    guessed: they are recompiled onto the lowest bits with the sure atoms
    above them, so the candidates are one range of masks.
    """
    del limits
    heads, scope_mask, compiled = _compile(programs, scope)
    sure, maybe = _bounds(compiled, scope_mask)

    def among_heads(m: int) -> list[int]:
        return [a for j, a in enumerate(heads) if m >> j & 1]

    guessed, fixed = among_heads(maybe & ~sure), among_heads(sure)
    _check_candidates(
        len(guessed), f"{len(guessed)} undecided of {len(heads)} candidate atoms"
    )
    order = guessed + fixed + among_heads(~maybe)
    if order != heads:
        heads, scope_mask, compiled = _compile(programs, scope, order)
    first = ((1 << len(fixed)) - 1) << len(guessed)
    found = []
    for i in range(first, first + (1 << len(guessed))):
        latest: dict[tuple[bool, int], int] = {}  # head -> latest firing stage
        for stage, positive, atom, pos, neg in compiled:
            if pos & i == pos and not neg & i:
                latest[positive, atom] = stage
        kept = [
            (positive, atom, pos, neg)
            for stage, positive, atom, pos, neg in compiled
            if latest.get((not positive, atom), -1) < stage
        ]
        derived = 0
        for positive, atom in latest:
            if positive:
                derived |= atom
        assumed = scope_mask & ~derived
        if _least_model(kept, 0, assumed) == (i, scope_mask ^ i):
            found.append(i)
    return _as_models(heads, found)
