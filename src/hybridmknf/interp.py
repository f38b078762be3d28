"""Sorted signatures, ground sentences, and factored sets of interpretations.

An interpretation over a finite signature is the set of ground atoms it makes
true.  Sets of interpretations are the semantic objects everything else works
with; they are kept in a factored form: a list of components with disjoint
atom scopes, each holding a nonempty set of parts over its scope, as a union
of products of part arrays over a split of that scope.  The factored set
denotes every interpretation whose restriction to each component scope is
one of that component's parts, with all atoms outside any scope left
unconstrained.  This is exactly a set that is saturated outside its
components, so restriction and saturation share one representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from ._graph import union_find_groups
from .errors import (
    CrossComponentFormula,
    ResourceLimit,
    SortMismatch,
    UndeclaredSymbol,
)


# ---------------------------------------------------------------------------
# signatures


class GroundAtom(NamedTuple):
    pred: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ", ".join(self.args))


class Signature:
    """Finite sorted vocabulary with a dense index of well-sorted ground atoms.

    Predicates carry a tuple of argument sorts and constants carry a sort.
    The ground atom universe is the set of all well-sorted applications,
    enumerated in a fixed order: predicates sorted by name, argument tuples
    in lexicographic order of the sorted constant lists.
    """

    def __init__(
        self,
        sorts: Iterable[str],
        constants: Mapping[str, str],
        predicates: Mapping[str, Sequence[str]],
    ) -> None:
        self.sorts = frozenset(sorts)
        self.constants = dict(sorted(constants.items()))
        self.predicates = {name: tuple(args) for name, args in sorted(predicates.items())}
        for const, sort in self.constants.items():
            if sort not in self.sorts:
                raise UndeclaredSymbol(f"constant {const} uses undeclared sort {sort}")
        for pred, args in self.predicates.items():
            for sort in args:
                if sort not in self.sorts:
                    raise UndeclaredSymbol(f"predicate {pred} uses undeclared sort {sort}")
        self._constants_by_sort: dict[str, tuple[str, ...]] = {s: () for s in self.sorts}
        for const, sort in self.constants.items():
            self._constants_by_sort[sort] = self._constants_by_sort[sort] + (const,)
        atoms: list[GroundAtom] = []
        # each predicate's atoms take one contiguous run of indices
        self._atoms_by_pred: dict[str, frozenset[int]] = {}
        # tuple.__new__ skips the named tuple's Python-level constructor
        new_atom = tuple.__new__
        for pred, arg_sorts in self.predicates.items():
            start = len(atoms)
            pools = [self._constants_by_sort[s] for s in arg_sorts]
            atoms.extend(
                new_atom(GroundAtom, (pred, args)) for args in itertools.product(*pools)
            )
            self._atoms_by_pred[pred] = frozenset(range(start, len(atoms)))
        self.atoms: tuple[GroundAtom, ...] = tuple(atoms)
        self.atom_index: dict[GroundAtom, int] = dict(zip(self.atoms, range(len(atoms))))

    def constants_of_sort(self, sort: str) -> tuple[str, ...]:
        if sort not in self.sorts:
            raise UndeclaredSymbol(f"undeclared sort {sort}")
        return self._constants_by_sort[sort]

    def atom(self, pred: str, args: Sequence[str]) -> int:
        """Index of a ground atom, checking declaration and sorts."""
        if pred not in self.predicates:
            raise UndeclaredSymbol(f"undeclared predicate {pred}")
        arg_sorts = self.predicates[pred]
        if len(args) != len(arg_sorts):
            raise SortMismatch(f"{pred} expects {len(arg_sorts)} arguments, got {len(args)}")
        for const, sort in zip(args, arg_sorts):
            if const not in self.constants:
                raise UndeclaredSymbol(f"undeclared constant {const}")
            if self.constants[const] != sort:
                raise SortMismatch(
                    f"{pred} expects sort {sort} where constant {const} of sort "
                    f"{self.constants[const]} appears"
                )
        return self.atom_index[GroundAtom(pred, tuple(args))]

    def atoms_of_pred(self, pred: str) -> frozenset[int]:
        if pred not in self.predicates:
            raise UndeclaredSymbol(f"undeclared predicate {pred}")
        return self._atoms_by_pred[pred]

    def atoms_of_preds(self, preds: Iterable[str]) -> frozenset[int]:
        out: set[int] = set()
        for p in preds:
            out |= self.atoms_of_pred(p)
        return frozenset(out)

    def pred_of(self, atom: int) -> str:
        return self.atoms[atom].pred


# ---------------------------------------------------------------------------
# ground sentences

# Grammar of ground sentences: atoms, classical negation, conjunction,
# disjunction, a rule-shaped conditional, and the two modalities.  Empty
# conjunction serves as verum, empty disjunction as falsum.  Nodes are never
# changed after construction and hash by value; they are not frozen because a
# frozen dataclass sets each field through object.__setattr__, which makes a
# node about 1.7 times as dear to build, and every solve builds hundreds.


@dataclass(unsafe_hash=True)
class Atom:
    index: int


@dataclass(unsafe_hash=True)
class Neg:
    sub: "Sentence"


@dataclass(unsafe_hash=True)
class Conj:
    subs: tuple["Sentence", ...]


@dataclass(unsafe_hash=True)
class Disj:
    subs: tuple["Sentence", ...]


@dataclass(unsafe_hash=True)
class Implies:
    body: "Sentence"
    head: "Sentence"


@dataclass(unsafe_hash=True)
class Known:
    sub: "Sentence"


@dataclass(unsafe_hash=True)
class NotKnown:
    sub: "Sentence"


Sentence = Union[Atom, Neg, Conj, Disj, Implies, Known, NotKnown]

TRUE: Sentence = Conj(())
FALSE: Sentence = Disj(())


def _is_empty(s: Sentence, kind: type) -> bool:
    # equal to `s == kind(())`, without the generated dataclass comparisons
    # that dominate building small conjunctions
    return s.__class__ is kind and not s.subs


def conj(subs: Sequence[Sentence]) -> Sentence:
    subs = tuple(s for s in subs if not _is_empty(s, Conj))
    if any(_is_empty(s, Disj) for s in subs):
        return FALSE
    if len(subs) == 1:
        return subs[0]
    return Conj(subs)


def disj(subs: Sequence[Sentence]) -> Sentence:
    subs = tuple(s for s in subs if not _is_empty(s, Disj))
    if any(_is_empty(s, Conj) for s in subs):
        return TRUE
    if len(subs) == 1:
        return subs[0]
    return Disj(subs)


def atoms_of(sent: Sentence) -> frozenset[int]:
    if isinstance(sent, Atom):
        return frozenset((sent.index,))
    if isinstance(sent, (Neg, Known, NotKnown)):
        return atoms_of(sent.sub)
    if isinstance(sent, (Conj, Disj)):
        out: frozenset[int] = frozenset()
        for s in sent.subs:
            out |= atoms_of(s)
        return out
    if isinstance(sent, Implies):
        return atoms_of(sent.body) | atoms_of(sent.head)
    raise TypeError(f"not a sentence: {sent!r}")


def is_objective(sent: Sentence) -> bool:
    """True when the sentence contains no modality."""
    if isinstance(sent, Atom):
        return True
    if isinstance(sent, Neg):
        return is_objective(sent.sub)
    if isinstance(sent, (Conj, Disj)):
        return all(is_objective(s) for s in sent.subs)
    if isinstance(sent, Implies):
        return is_objective(sent.body) and is_objective(sent.head)
    return False


def eval_objective(sent: Sentence, true_atoms: frozenset[int]) -> bool:
    """Classical truth of an objective sentence in one interpretation."""
    if isinstance(sent, Atom):
        return sent.index in true_atoms
    if isinstance(sent, Neg):
        return not eval_objective(sent.sub, true_atoms)
    if isinstance(sent, Conj):
        return all(eval_objective(s, true_atoms) for s in sent.subs)
    if isinstance(sent, Disj):
        return any(eval_objective(s, true_atoms) for s in sent.subs)
    if isinstance(sent, Implies):
        return (not eval_objective(sent.body, true_atoms)) or eval_objective(
            sent.head, true_atoms
        )
    raise ValueError(f"sentence is not objective: {sent!r}")


def eval_objective_masks(
    sent: Sentence, bit_of: Mapping[int, int], masks: np.ndarray
) -> np.ndarray:
    """Vectorised classical truth of an objective sentence over mask arrays."""
    if isinstance(sent, Atom):
        return (masks >> bit_of[sent.index] & 1).astype(bool)
    if isinstance(sent, Neg):
        return ~eval_objective_masks(sent.sub, bit_of, masks)
    if isinstance(sent, Conj):
        out = np.ones(masks.shape, dtype=bool)
        for s in sent.subs:
            out &= eval_objective_masks(s, bit_of, masks)
        return out
    if isinstance(sent, Disj):
        out = np.zeros(masks.shape, dtype=bool)
        for s in sent.subs:
            out |= eval_objective_masks(s, bit_of, masks)
        return out
    if isinstance(sent, Implies):
        return (~eval_objective_masks(sent.body, bit_of, masks)) | eval_objective_masks(
            sent.head, bit_of, masks
        )
    raise ValueError(f"sentence is not objective: {sent!r}")


# ---------------------------------------------------------------------------
# engine limits


@dataclass(frozen=True)
class EngineLimits:
    """Budgets that turn would-be thrashing into a resource error.

    max_component_atoms bounds the number of atoms a single truth table
    enumeration may range over; larger components are handled by conditioning
    on a small separator whose blocks each fit the bound again.
    """

    max_component_atoms: int = 22
    max_separator_atoms: int = 12
    max_parts: int = 1 << 21
    max_branches: int = 64


DEFAULT_LIMITS = EngineLimits()


# ---------------------------------------------------------------------------
# factored model sets


def sorted_unique(masks: np.ndarray) -> np.ndarray:
    """The distinct masks in ascending order, as a new int64 array."""
    out = np.sort(masks.astype(np.int64, copy=False))
    return out[np.concatenate(([True], out[1:] != out[:-1]))] if out.size else out


def _check_scope(atoms: tuple[int, ...]) -> None:
    if not atoms:
        raise ValueError("component needs a nonempty scope")
    if tuple(sorted(set(atoms))) != atoms:
        raise ValueError("component atoms must be sorted and unique")


class Component:
    """A set of parts over a small, sorted tuple of atom indices, held as a
    union of products.

    Parts are bitmasks relative to the atoms tuple: bit i of a part mask is
    the truth value of atoms[i].  The scope is split into factors, each the
    tuple of scope bit positions it covers, so that every position lies in
    exactly one factor.  Each term holds one array of masks per factor, in
    that factor's own bits: bit i of such a mask is the value at the
    factor's i-th position.  A term stands for every part that takes one
    mask from each array, and the component is the union of its terms.
    Terms must be pairwise disjoint, so part_count, the size of that union,
    is the sum of the terms' product sizes, and rows counts the masks
    stored.

    Component(atoms, parts) is the flat case, one term over one factor of
    every position in order: given as any iterable of masks or an integer
    array, its parts are kept as a sorted, unique, read-only int64 array.
    Component.union builds the general case.  Each of its factors fits one
    int64 mask, but its scope need not: the flat parts array is built on
    first read of parts, as Python ints in an object array past 62 atoms.
    """

    def __init__(self, atoms: tuple[int, ...], parts: Iterable[int] | np.ndarray) -> None:
        _check_scope(atoms)
        out_of_range = "part mask out of range for the component scope"
        raw = parts
        if not isinstance(raw, np.ndarray):
            try:
                raw = np.array(list(raw), dtype=np.int64)
            except OverflowError:
                raise ValueError(out_of_range) from None
        flat = sorted_unique(raw)
        if not flat.size:
            raise ValueError("component needs a nonempty part set")
        if flat[0] < 0 or int(flat[-1]) >> len(atoms):
            raise ValueError(out_of_range)
        flat.flags.writeable = False
        self.atoms = atoms
        self.factors = (tuple(range(len(atoms))),)
        self.terms = ((flat,),)
        self.part_count = self.rows = flat.size
        # the flat case holds its parts array already
        self.parts = flat

    @classmethod
    def union(
        cls,
        atoms: tuple[int, ...],
        factors: Sequence[Sequence[int]],
        terms: Sequence[Sequence[np.ndarray]],
    ) -> "Component":
        """The union of the products of pairwise disjoint terms, each one
        array of masks per factor, in that factor's own bits.  One term over
        one factor is built as the flat case."""
        if len(terms) == 1 and len(factors) == len(terms[0]) == 1:
            return cls(atoms, lift_bits(terms[0][0], factors[0]))
        _check_scope(atoms)
        factors = tuple(tuple(f) for f in factors)
        if sorted(p for f in factors for p in f) != list(range(len(atoms))):
            raise ValueError("component factors must split the scope")
        kept = []
        for term in terms:
            if len(term) != len(factors):
                raise ValueError("a term needs one array per factor")
            arrays = tuple(sorted_unique(a) for a in term)
            if not all(a.size for a in arrays):
                raise ValueError("component needs a nonempty part set")
            if any((a >> len(f)).any() for a, f in zip(arrays, factors)):
                raise ValueError("part mask out of range for its factor")
            for a in arrays:
                a.flags.writeable = False
            kept.append(arrays)
        if not kept:
            raise ValueError("component needs a nonempty part set")
        self = cls.__new__(cls)
        self.atoms = atoms
        self.factors = factors
        self.terms = tuple(kept)
        self.part_count = sum(math.prod(a.size for a in term) for term in kept)
        self.rows = sum(a.size for term in kept for a in term)
        return self

    def __repr__(self) -> str:
        return f"Component({self.atoms!r}, factors={self.factors!r}, terms={self.terms!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Component):
            return NotImplemented
        return self is other or (
            self.atoms == other.atoms
            and self.part_count == other.part_count
            and np.array_equal(self.parts, other.parts)
        )

    def __hash__(self) -> int:
        # equal components hold the same parts, so they agree on all of these
        return hash((self.atoms, self.part_count, self.fixed_true, self.fixed_false))

    @cached_property
    def parts(self) -> np.ndarray:
        """Every part as one sorted, unique, read-only array: int64 up to 62
        atoms, Python ints in an object array past them."""
        parts = np.sort(_union_of_products(self.terms, self.factors, len(self.atoms)))
        parts.flags.writeable = False
        return parts

    @cached_property
    def scope(self) -> frozenset[int]:
        return frozenset(self.atoms)

    @cached_property
    def fixed_true(self) -> int:
        """Mask of the bits set in every part: in every term, the bits set
        in every mask of their factor."""
        out = (1 << len(self.atoms)) - 1
        for term in self.terms:
            held = 0
            for a, f in zip(term, self.factors):
                held |= _place(int(np.bitwise_and.reduce(a)), f)
            out &= held
        return out

    @cached_property
    def fixed_false(self) -> int:
        """Mask of the bits clear in every part, that is in every stored mask."""
        seen = 0
        for term in self.terms:
            for a, f in zip(term, self.factors):
                seen |= _place(int(np.bitwise_or.reduce(a)), f)
        return (1 << len(self.atoms)) - 1 & ~seen

    @cached_property
    def _factor_masks(self) -> list[int]:
        return [_place((1 << len(f)) - 1, f) for f in self.factors]

    def reading(self, bits: int) -> tuple[int, list[int]]:
        """The factors that hold some of the given bits, and how many parts
        there are cut down to them, counted once per part of each term's
        product."""
        if len(self.factors) == 1:
            return self.part_count, [0]
        touched = [f for f, mask in enumerate(self._factor_masks) if mask & bits]
        count = sum(math.prod(term[f].size for f in touched) for term in self.terms)
        return count, touched

    def cut(self, factors: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
        """The parts cut down to the given factors: those factors' atoms,
        one factor after another, and the masks over them, bit i for the
        i-th of those atoms."""
        if len(self.factors) == 1:
            return self.atoms, self.parts
        atoms: list[int] = []
        spans = []
        for f in factors:
            spans.append(range(len(atoms), len(atoms) + len(self.factors[f])))
            atoms.extend(self.atoms[p] for p in self.factors[f])
        terms = [[term[f] for f in factors] for term in self.terms]
        return tuple(atoms), _union_of_products(terms, spans, len(atoms))

    def project(self, atoms: Iterable[int]) -> "Component | None":
        """Component over the given subset of this scope, or None if disjoint."""
        wanted = set(atoms)
        keep = tuple(a for a in self.atoms if a in wanted)
        if not keep:
            return None
        parts = np.zeros(self.parts.shape, dtype=np.int64)
        for i, a in enumerate(keep):
            parts |= (self.parts >> self.atoms.index(a) & 1) << i
        return Component(keep, parts)


def component_from_models(
    atoms: Sequence[int], models: Iterable[frozenset[int]]
) -> Component:
    atoms = tuple(sorted(atoms))
    bit = {a: i for i, a in enumerate(atoms)}
    parts = [sum(1 << bit[a] for a in model if a in bit) for model in models]
    return Component(atoms, parts)


@dataclass(frozen=True)
class ModelSet:
    """Factored set of interpretations: disjoint components, free elsewhere."""

    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        atoms = [a for c in self.components for a in c.atoms]
        if len(set(atoms)) != len(atoms):
            raise ValueError("component scopes must be pairwise disjoint")
        ordered = tuple(sorted(self.components, key=lambda c: c.atoms[0]))
        object.__setattr__(self, "components", ordered)

    @cached_property
    def atom_owner(self) -> dict[int, tuple[int, int]]:
        """Each constrained atom's component position and bit in that component."""
        return {
            a: (i, bit)
            for i, c in enumerate(self.components)
            for bit, a in enumerate(c.atoms)
        }

    @property
    def scope(self) -> frozenset[int]:
        return frozenset(self.atom_owner)


FULL_SET = ModelSet(())


def restrict(m: ModelSet, atoms: frozenset[int]) -> ModelSet:
    """Restriction of the denoted set to the given atoms.

    The result read as a full model set is the saturation of m with respect
    to the given atoms: the greatest set that coincides with m on them.
    """
    out = []
    for c in m.components:
        p = c.project(atoms)
        if p is not None:
            out.append(p)
    return ModelSet(tuple(out))


def lift_bits(masks: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Move bit i of every mask to bit positions[i]: one shift when the
    positions run contiguously upwards."""
    first = positions[0] if positions else 0
    if list(positions) == list(range(first, first + len(positions))):
        return masks << first
    out = np.zeros(masks.shape, dtype=masks.dtype)
    for i, pos in enumerate(positions):
        out |= ((masks >> i) & 1) << pos
    return out


def or_product(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Every OR of one mask from each array, in product order."""
    combined = np.zeros(1, dtype=np.int64)
    for a in arrays:
        combined = (combined[:, None] | a[None, :]).ravel()
    return combined


def _place(mask: int, positions: Sequence[int]) -> int:
    """Bit i of the mask moved to bit positions[i], as a Python int."""
    out = i = 0
    while mask:
        if mask & 1:
            out |= 1 << positions[i]
        mask >>= 1
        i += 1
    return out


def _union_of_products(
    terms: Sequence[Sequence[np.ndarray]], factors: Sequence[Sequence[int]], width: int
) -> np.ndarray:
    """Every OR of one mask from each array of some term, each moved from
    its factor's bits to the factor's positions, term by term; Python ints
    in an object array past 62 bits."""
    wide = width > 62
    return np.concatenate([
        or_product(
            lift_bits(a.astype(object) if wide else a, f) for a, f in zip(term, factors)
        )
        for term in terms
    ])


def expand(comps: Sequence[Component], atoms: Sequence[int]) -> np.ndarray:
    """Masks over the given atom order, bit i for atoms[i], of every
    interpretation the disjoint comps allow, with the other atoms free.

    Every component must lie among the atoms.  The masks are distinct and
    come in product order; past 62 atoms they are Python ints in an object
    array.
    """
    return _lifted_product([(c.atoms, c.parts) for c in comps], atoms)


def _lifted_product(
    pieces: Sequence[tuple[tuple[int, ...], np.ndarray]], atoms: Sequence[int]
) -> np.ndarray:
    """Every OR of one mask from each piece, moved from its own atoms to
    the given atom order, times every value of the atoms no piece holds."""
    wide = len(atoms) > 62
    free = {a: i for i, a in enumerate(atoms)}
    arrays = []
    for scope, masks in pieces:
        if wide:
            masks = masks.astype(object)
        arrays.append(lift_bits(masks, [free.pop(a) for a in scope]))
    if free:
        fills = np.arange(1 << len(free), dtype=object if wide else np.int64)
        arrays.append(lift_bits(fills, list(free.values())))
    return or_product(arrays)


def _enumeration_guard(cost: float, components: int, limits: EngineLimits) -> None:
    """Refuse a query whose candidate count exceeds EngineLimits.max_parts."""
    if cost <= limits.max_parts:
        return
    if components > 1:
        raise CrossComponentFormula(
            f"formula spans {components} components whose joint enumeration "
            f"of {cost:.0f} interpretations exceeds EngineLimits.max_parts = "
            f"{limits.max_parts}"
        )
    raise ResourceLimit(
        f"query enumeration over {cost:.0f} interpretations exceeds "
        f"EngineLimits.max_parts = {limits.max_parts}"
    )


def holds_known(
    m: ModelSet, sent: Sentence, limits: EngineLimits = DEFAULT_LIMITS
) -> bool:
    """Whether an objective sentence is true in every denoted interpretation.

    Atoms outside every component range freely.  An atom or a negated atom
    is read from the fixed-bit masks of the component that owns the atom,
    and a free one never holds.  A constant sentence is evaluated once.  Any
    other sentence is evaluated over the product of the components it
    touches, each read only on the factors that hold the sentence's atoms,
    term by term.  That is only attempted while the candidate count stays
    inside the configured budget; a literal counts the rows its owner
    stores, or 2 when free, against the same budget.
    """
    negated = sent.__class__ is Neg
    literal = sent.sub if negated else sent
    if literal.__class__ is Atom:
        place = m.atom_owner.get(literal.index)
        if place is None:
            _enumeration_guard(2, 1, limits)
            return False
        comp = m.components[place[0]]
        _enumeration_guard(comp.rows, 1, limits)
        fixed = comp.fixed_false if negated else comp.fixed_true
        return bool(fixed >> place[1] & 1)

    rel = atoms_of(sent)
    owner = m.atom_owner
    # the bits the sentence reads in each component it touches
    reads: dict[int, int] = {}
    free = []
    for a in rel:
        place = owner.get(a)
        if place is None:
            free.append(a)
        else:
            reads[place[0]] = reads.get(place[0], 0) | 1 << place[1]
    free.sort()
    positions = sorted(reads)
    touched = [m.components[i] for i in positions]
    readings = [m.components[i].reading(reads[i]) for i in positions]
    cost = float(1 << len(free))
    for count, _ in readings:
        cost *= count
    _enumeration_guard(cost, len(touched), limits)
    if not rel:
        return eval_objective(sent, frozenset())
    pieces = [c.cut(factors) for c, (_, factors) in zip(touched, readings)]
    atoms = [a for scope, _ in pieces for a in scope] + free
    bit = {a: i for i, a in enumerate(atoms)}
    return bool(eval_objective_masks(sent, bit, _lifted_product(pieces, atoms)).all())


def holds_not(m: ModelSet, sent: Sentence, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Whether an objective sentence is false in some denoted interpretation.

    Model sets are never empty, so this is the complement of holds_known.
    """
    return not holds_known(m, sent, limits)


def _fold_modalities(
    m: ModelSet, sent: Sentence, limits: EngineLimits
) -> Sentence:
    """Replace modal subsentences by their constant truth value in m, and
    fold constants upwards.

    The result is TRUE, FALSE or an objective sentence without constant
    parts.  A conjunction stops at its first false conjunct, a disjunction
    at its first true disjunct, and a conditional whose body is false is
    true without its head; what a stop skips is never evaluated.
    """
    kind = sent.__class__
    if kind is Atom:
        return sent
    if kind is Known or kind is NotKnown:
        inner = _fold_modalities(m, sent.sub, limits)
        if _is_empty(inner, Conj) or _is_empty(inner, Disj):
            # m is nonempty, so K and not of a constant are that constant
            # and its opposite
            known = _is_empty(inner, Conj)
        else:
            known = holds_known(m, inner, limits)
        return TRUE if known == (kind is Known) else FALSE
    if kind is Neg:
        inner = _fold_modalities(m, sent.sub, limits)
        if _is_empty(inner, Conj):
            return FALSE
        if _is_empty(inner, Disj):
            return TRUE
        return Neg(inner)
    if kind is Conj or kind is Disj:
        stop, unit = (Disj, Conj) if kind is Conj else (Conj, Disj)
        kept = []
        for s in sent.subs:
            r = _fold_modalities(m, s, limits)
            if _is_empty(r, stop):
                return r
            if not _is_empty(r, unit):
                kept.append(r)
        # with nothing kept, kind(()) is the unit: TRUE or FALSE
        return kept[0] if len(kept) == 1 else kind(tuple(kept))
    if kind is Implies:
        body = _fold_modalities(m, sent.body, limits)
        if _is_empty(body, Disj):
            return TRUE
        head = _fold_modalities(m, sent.head, limits)
        if _is_empty(body, Conj) or _is_empty(head, Conj):
            return head
        if _is_empty(head, Disj):
            return Neg(body)
        return Implies(body, head)
    raise TypeError(f"not a sentence: {sent!r}")


def satisfies(m: ModelSet, sent: Sentence, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Truth of one sentence in m, with m doubling as the negation context.

    Modal parts are constant over m, so a sentence whose residue folds to a
    constant is answered without another query.
    """
    residue = _fold_modalities(m, sent, limits)
    if _is_empty(residue, Conj):
        return True
    if _is_empty(residue, Disj):
        return False
    return holds_known(m, residue, limits)


_EXPANSION_CAP = 1 << 22


def interpretation_count(comps: Sequence[Component], n_atoms: int) -> int:
    """How many interpretations over n_atoms atoms the comps allow, when the
    comps are disjoint and lie among those atoms."""
    total = 1 << (n_atoms - sum(len(c.atoms) for c in comps))
    for c in comps:
        total *= c.part_count
    return total


def _capped_expand(comps: Sequence[Component], atoms: Sequence[int]) -> np.ndarray:
    """expand, refused past interp._EXPANSION_CAP interpretations."""
    total = interpretation_count(comps, len(atoms))
    if total > _EXPANSION_CAP:
        raise ResourceLimit(
            f"model set expansion of {total} interpretations exceeds "
            f"interp._EXPANSION_CAP = {_EXPANSION_CAP}"
        )
    return expand(comps, atoms)


def denotation(m: ModelSet, universe: Iterable[int]) -> set[frozenset[int]]:
    """Explicit expansion of the denoted set over a finite atom universe."""
    atoms = sorted(set(universe))
    masks = _capped_expand(restrict(m, frozenset(atoms)).components, atoms)
    return {
        frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        for mask in masks.tolist()
    }


def _fixed_atoms(comps: Sequence[Component]) -> tuple[frozenset[int], frozenset[int]]:
    """The atoms set true, and those set false, in every part of their
    component."""
    true: list[int] = []
    false: list[int] = []
    for c in comps:
        t, f = c.fixed_true, c.fixed_false
        true.extend(a for i, a in enumerate(c.atoms) if t >> i & 1)
        false.extend(a for i, a in enumerate(c.atoms) if f >> i & 1)
    return frozenset(true), frozenset(false)


def model_sets_equal(a: ModelSet, b: ModelSet) -> bool:
    """Whether two factored sets denote the same set of interpretations.

    Both sets are products of nonempty factors, so they are equal exactly
    when they agree on every group of atoms that their component scopes
    link.  A group is skipped when both sides hold the same components
    there, and is unequal when the two sides fix different atoms or count
    different interpretations over it; otherwise both sides are expanded
    over its own atoms alone and their sorted masks compared.
    """
    groups = union_find_groups(c.atoms for c in a.components + b.components)
    group_of = {x: i for i, g in enumerate(groups) for x in g}
    sides: list[tuple[list[Component], list[Component]]] = [
        ([], []) for _ in groups
    ]
    for side, m in enumerate((a, b)):
        for c in m.components:
            sides[group_of[c.atoms[0]]][side].append(c)
    for group, (ca, cb) in zip(groups, sides):
        if ca == cb:
            continue
        if _fixed_atoms(ca) != _fixed_atoms(cb):
            return False
        n = len(group)
        if interpretation_count(ca, n) != interpretation_count(cb, n):
            return False
        atoms = sorted(group)
        if not np.array_equal(
            np.sort(_capped_expand(ca, atoms)), np.sort(_capped_expand(cb, atoms))
        ):
            return False
    return True
