"""Minimal-change updates of factored model sets by classical theories.

Updating a set of interpretations M by a theory T keeps, for every starting
interpretation in M, those models of T that change a minimal set of atoms.
Changes are compared by inclusion of the changed-atom sets; comparing the
changes predicate by predicate gives the same order, because the changed
atoms of different predicates never overlap.

The work is organised around the co-occurrence structure of the theory: a
small separator of high-degree atoms is fixed by enumeration, after which
the remaining sentences fall apart into blocks that can be enumerated and
minimised independently and recombined per separator valuation.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ._graph import union_find_groups
from .errors import EmptyIntersection, EmptyUpdate, ResourceLimit
from .interp import (
    Component,
    DEFAULT_LIMITS,
    EngineLimits,
    FULL_SET,
    ModelSet,
    Sentence,
    atoms_of,
    eval_objective,
    eval_objective_masks,
    lift_bits,
    or_product,
)

_LONG_BITS = 62


# ---------------------------------------------------------------------------
# theory decomposition


class _Decomposition:
    """Separator plus independent sentence blocks for one atom group."""

    def __init__(self, sentences: Sequence[Sentence], limits: EngineLimits) -> None:
        sent_atoms = [atoms_of(s) for s in sentences]
        separator: set[int] = set()
        while True:
            blocks = union_find_groups(
                [s - separator for s in sent_atoms if s - separator]
            )
            oversized = set().union(
                *(b for b in blocks if len(b) > limits.max_component_atoms)
            ) if any(len(b) > limits.max_component_atoms for b in blocks) else set()
            if not oversized:
                break
            if len(separator) >= limits.max_separator_atoms:
                raise ResourceLimit(
                    "theory needs a larger separator than the configured budget"
                )
            degree: dict[int, int] = {}
            for s in sent_atoms:
                for a in s - separator:
                    if a in oversized:
                        degree[a] = degree.get(a, 0) + 1
            separator.add(min(degree, key=lambda a: (-degree[a], a)))
        self.separator = tuple(sorted(separator))
        self.blocks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        block_of: dict[int, int] = {}
        for j, b in enumerate(self.blocks):
            for a in b:
                block_of[a] = j
        self.block_sentences: list[list[Sentence]] = [[] for _ in self.blocks]
        self.guards: list[Sentence] = []
        for sent, rel in zip(sentences, sent_atoms):
            outside = rel - separator
            if outside:
                self.block_sentences[block_of[next(iter(outside))]].append(sent)
            else:
                self.guards.append(sent)


class _GroupSolver:
    """Per-separator-valuation block model tables in group bit space."""

    def __init__(
        self,
        group_atoms: tuple[int, ...],
        sentences: Sequence[Sentence],
        limits: EngineLimits,
    ) -> None:
        if len(group_atoms) > _LONG_BITS:
            raise ResourceLimit(
                f"group of {len(group_atoms)} atoms exceeds the mask width "
                f"winslett._LONG_BITS = {_LONG_BITS}"
            )
        self.group_atoms = group_atoms
        self.pos = {a: i for i, a in enumerate(group_atoms)}
        self.limits = limits
        self.dec = _Decomposition(sentences, limits)
        self.sep_bits = [self.pos[a] for a in self.dec.separator]
        self.sep_mask = 0
        for b in self.sep_bits:
            self.sep_mask |= 1 << b
        self.block_masks = []
        for block in self.dec.blocks:
            m = 0
            for a in block:
                m |= 1 << self.pos[a]
            self.block_masks.append(m)
        covered = self.sep_mask
        for m in self.block_masks:
            covered |= m
        self.inert_mask = ((1 << len(group_atoms)) - 1) & ~covered
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._alive: dict[int, bool] = {}

    def sep_value_mask(self, e: int) -> int:
        m = 0
        for i, b in enumerate(self.sep_bits):
            if e >> i & 1:
                m |= 1 << b
        return m

    def alive(self, e: int) -> bool:
        if e not in self._alive:
            true_sep = frozenset(
                a for i, a in enumerate(self.dec.separator) if e >> i & 1
            )
            ok = all(eval_objective(g, true_sep) for g in self.dec.guards)
            self._alive[e] = ok
        return self._alive[e]

    def block_models(self, j: int, e: int) -> np.ndarray:
        """Models of block j under separator valuation e, in group bit space."""
        key = (j, e)
        if key not in self._tables:
            block = self.dec.blocks[j]
            bit_of = {a: i for i, a in enumerate(block + self.dec.separator)}
            masks = np.arange(1 << len(block), dtype=np.int64)
            with_sep = masks | e << len(block)
            ok = np.ones(masks.shape, dtype=bool)
            for s in self.dec.block_sentences[j]:
                ok &= eval_objective_masks(s, bit_of, with_sep)
            self._tables[key] = lift_bits(masks[ok], [self.pos[a] for a in block])
        return self._tables[key]

    def model_parts(self) -> frozenset[int]:
        """All models of the theory over the group, as explicit part masks."""
        chunks = []
        total = 0
        for e in range(1 << len(self.sep_bits)):
            if not self.alive(e):
                continue
            arrays = [self.block_models(j, e) for j in range(len(self.dec.blocks))]
            if any(a.size == 0 for a in arrays):
                continue
            count = 1
            for a in arrays:
                count *= a.size
            total += count
            if total > self.limits.max_parts:
                raise ResourceLimit(
                    f"theory has too many models to enumerate: at least {total}, "
                    f"more than EngineLimits.max_parts = {self.limits.max_parts}"
                )
            chunks.append(or_product(arrays, self.sep_value_mask(e)))
        if not chunks:
            raise EmptyIntersection("theory has no classical models")
        return frozenset(int(x) for x in np.concatenate(chunks))


def _minimal_antichain(pairs: dict[int, int]) -> list[tuple[int, int]]:
    """Pairs whose diff key is inclusion-minimal among all diff keys."""
    kept: list[tuple[int, int]] = []
    for d in sorted(pairs, key=lambda d: (d.bit_count(), d)):
        if any(k & ~d == 0 for k, _ in kept):
            continue
        kept.append((d, pairs[d]))
    return kept


class _UpdateSolver(_GroupSolver):
    """Adds per-start-point minimisation on top of the block tables."""

    def __init__(
        self,
        group_atoms: tuple[int, ...],
        sentences: Sequence[Sentence],
        limits: EngineLimits,
    ) -> None:
        super().__init__(group_atoms, sentences, limits)
        self._antichains: dict[tuple[int, int, int], list[tuple[int, int]]] = {}

    def _block_antichain(self, j: int, e: int, i_block: int) -> list[tuple[int, int]]:
        """Minimal (diff, model) pairs for one block given the start point."""
        key = (j, e, i_block)
        if key not in self._antichains:
            models = self.block_models(j, e).tolist()
            self._antichains[key] = _minimal_antichain({m ^ i_block: m for m in models})
        return self._antichains[key]

    def updated_models(self, start: int) -> list[int]:
        """Models of the theory at minimal change from one interpretation."""
        candidates: dict[int, int] = {}
        for e in range(1 << len(self.sep_bits)):
            if not self.alive(e):
                continue
            d_sep = (start & self.sep_mask) ^ self.sep_value_mask(e)
            chains = []
            dead = False
            for j in range(len(self.dec.blocks)):
                chain = self._block_antichain(j, e, start & self.block_masks[j])
                if not chain:
                    dead = True
                    break
                chains.append(chain)
            if dead:
                continue
            base = (start & self.inert_mask) | self.sep_value_mask(e)
            for combo in itertools.product(*chains):
                d = d_sep
                model = base
                for dj, mj in combo:
                    d |= dj
                    model |= mj
                candidates.setdefault(d, model)
        return [model for _, model in _minimal_antichain(candidates)]


# ---------------------------------------------------------------------------
# public entry points


def theory_model_set(
    sentences: Sequence[Sentence], limits: EngineLimits = DEFAULT_LIMITS
) -> ModelSet:
    """Classical models of a theory as a factored set, free off-theory.

    Raises EmptyIntersection when the theory has no models.
    """
    try:
        return update_with_theory(FULL_SET, sentences, limits)
    except EmptyUpdate:
        raise EmptyIntersection("theory has no classical models") from None


def _expand_starts(
    m_comps: Sequence[Component],
    group_atoms: tuple[int, ...],
    limits: EngineLimits,
) -> np.ndarray:
    """All interpretations of the group consistent with the given components."""
    pos = {a: i for i, a in enumerate(group_atoms)}
    covered: set[int] = set()
    count = 1
    for c in m_comps:
        covered |= c.scope
        count *= len(c.parts)
    free = [a for a in group_atoms if a not in covered]
    count <<= len(free)
    if count > limits.max_parts:
        raise ResourceLimit("update start set is too large to enumerate")
    arrays = [
        lift_bits(
            np.fromiter(c.parts, dtype=np.int64, count=len(c.parts)),
            [pos[a] for a in c.atoms],
        )
        for c in m_comps
    ]
    if free:
        fills = np.arange(1 << len(free), dtype=np.int64)
        arrays.append(lift_bits(fills, [pos[a] for a in free]))
    return or_product(arrays)


def update_with_theory(
    m: ModelSet,
    sentences: Sequence[Sentence],
    limits: EngineLimits = DEFAULT_LIMITS,
) -> ModelSet:
    """Minimal-change update of a factored set by a classical theory.

    Components of the start set and sentence scopes are first merged into
    independent groups, which keeps both sides saturated with respect to the
    grouping; each group is then updated on its own.  Raises EmptyUpdate when
    the theory rules out every result.
    """
    sent_atoms = [atoms_of(s) for s in sentences]
    if any(
        not rel and not eval_objective(s, frozenset())
        for s, rel in zip(sentences, sent_atoms)
    ):
        raise EmptyUpdate("updating theory has no classical models")
    clusters = [rel for rel in sent_atoms if rel]
    clusters.extend(c.scope for c in m.components)
    groups = union_find_groups(clusters)
    out: list[Component] = []
    for group in sorted(groups, key=min):
        atoms = tuple(sorted(group))
        in_group = [s for s, rel in zip(sentences, sent_atoms) if rel and rel <= group]
        m_comps = [c for c in m.components if c.scope <= group]
        if not in_group:
            out.extend(m_comps)
            continue
        if not m_comps:
            # the start set is free here, so every model of the theory is
            # reachable without change outside the group
            solver = _GroupSolver(atoms, in_group, limits)
            try:
                out.append(Component(atoms, solver.model_parts()))
            except EmptyIntersection:
                raise EmptyUpdate("updating theory has no classical models")
            continue
        solver = _UpdateSolver(atoms, in_group, limits)
        starts = _expand_starts(m_comps, atoms, limits)
        parts: set[int] = set()
        for start in starts.tolist():
            parts.update(solver.updated_models(start))
            if len(parts) > limits.max_parts:
                raise ResourceLimit("update produced too many distinct results")
        if not parts:
            raise EmptyUpdate("updating theory has no classical models")
        out.append(Component(atoms, frozenset(parts)))
    return ModelSet(tuple(out))


def sequence_update_model(
    stage_theories: Sequence[Sequence[Sentence]],
    limits: EngineLimits = DEFAULT_LIMITS,
) -> ModelSet:
    """Left fold of minimal-change updates over a sequence of theories.

    The fold starts from the unconstrained set, so a single theory just
    yields its own models.
    """
    current = ModelSet(())
    for stage, sentences in enumerate(stage_theories):
        try:
            current = update_with_theory(current, sentences, limits)
        except EmptyUpdate:
            raise EmptyUpdate(f"stage {stage} has no classical models")
    return current
