"""Minimal-change updates of factored model sets by classical theories.

Updating a set of interpretations M by a theory T keeps, for every starting
interpretation in M, those models of T that change a minimal set of atoms.
Changes are compared by inclusion of the changed-atom sets; comparing the
changes predicate by predicate gives the same order, because the changed
atoms of different predicates never overlap.

The theory and the start set fall apart into independent atom groups, and
one _GroupSolver handles each.  It fixes a small separator of high-degree
atoms by enumeration, after which the remaining sentences fall apart into
blocks that are enumerated, in each block's own bits, and minimised
independently.  It has two entry points.  model_components() answers a
free start set.  When one separator value is live, its answer is the
separator fixed to that value plus one component per block; otherwise
model_parts() recombines the blocks per live value into one flat
component.  updated_parts(starts) answers a given start set with flat
parts.  Only the flat paths need the whole group in one int64 mask, so
only they refuse a group wider than _LONG_BITS.  No model remaining comes
back as no component, which update_with_theory reports as EmptyUpdate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
    expand,
    interpretation_count,
    lift_bits,
    or_product,
    sorted_unique,
)

_LONG_BITS = 62


# ---------------------------------------------------------------------------
# one atom group


def _decompose(
    sent_atoms: Sequence[frozenset[int]], limits: EngineLimits
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Separator and blocks for sentences over these atom sets: atoms of top
    degree in oversized blocks join the separator until every block fits."""
    separator: set[int] = set()
    while True:
        blocks = union_find_groups(
            [s - separator for s in sent_atoms if s - separator]
        )
        oversized = set().union(
            *(b for b in blocks if len(b) > limits.max_component_atoms)
        )
        if not oversized:
            break
        if len(separator) >= limits.max_separator_atoms:
            raise ResourceLimit(
                "theory needs a larger separator than the configured budget: "
                f"EngineLimits.max_separator_atoms = {limits.max_separator_atoms} "
                f"leaves a block of {max(len(b) for b in blocks)} atoms, more "
                f"than EngineLimits.max_component_atoms = "
                f"{limits.max_component_atoms}"
            )
        degree: dict[int, int] = {}
        for s in sent_atoms:
            for a in s & oversized:
                degree[a] = degree.get(a, 0) + 1
        separator.add(min(degree, key=lambda a: (-degree[a], a)))
    blocks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    return tuple(sorted(separator)), blocks


def _minimal_diffs(diffs: Iterable[int]) -> list[int]:
    """Inclusion-minimal masks among the given ones, in ascending order.

    A strict subset of a mask is numerically smaller, so a mask is minimal
    exactly when no mask kept before it lies inside it.
    """
    kept: list[int] = []
    for d in sorted(diffs):
        if not any(k & ~d == 0 for k in kept):
            kept.append(d)
    return kept


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """The ranges 0..c-1 for every c in counts, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) - np.repeat(ends - counts, counts)


# Start points minimised per NumPy pass; bounds the candidate arrays.
_CHUNK_STARTS = 1 << 11


class _BlockTable:
    """Minimal changes of one block, per occurring start value and live
    separator value, from the block's models under each live value.

    The chains are flattened value-major: the chain of value index v under
    live index l is ``diffs[first[v, l]:first[v, l] + count[v, l]]``.  When
    several separator values are live, ``cover[i, l]`` says whether some
    diff of the chain of the same value under live index l lies inside
    ``diffs[i]``.
    """

    def __init__(self, models: list[np.ndarray], values: np.ndarray) -> None:
        chains = [
            [_minimal_diffs((m ^ v).tolist()) for m in models]
            for v in values.tolist()
        ]
        self.values = values
        self.count = np.array(
            [[len(c) for c in row] for row in chains], dtype=np.int64
        )
        flat_count = self.count.ravel()
        self.first = (np.cumsum(flat_count) - flat_count).reshape(self.count.shape)
        self.diffs = np.array(
            [d for row in chains for c in row for d in c], dtype=np.int64
        )
        self.cover = None
        n_live = self.count.shape[1]
        if n_live > 1:
            onehot = np.eye(n_live, dtype=bool)
            rows = np.split(self.diffs, np.cumsum(self.count.sum(axis=1))[:-1])
            covers = []
            for d, row_count in zip(rows, self.count):
                live_of = onehot[np.repeat(np.arange(n_live), row_count)]
                covers.append(((d[None, :] & ~d[:, None]) == 0) @ live_of)
            self.cover = np.concatenate(covers)


class _GroupSolver:
    """Separator, blocks and per-block model tables of one atom group.

    Separator values that satisfy the separator-only sentences are live.
    For each live value e, every start expands into the product of its
    per-block minimal changes.  No two candidates of one start under one
    e compare, because the blocks are disjoint and each block offers an
    antichain.  A candidate under e is therefore dropped exactly when some
    other live value e' changes a strict subset of the separator bits that e
    changes and, in every block, offers a minimal change inside the
    candidate's change for that block.
    """

    def __init__(
        self,
        group_atoms: tuple[int, ...],
        scoped: Sequence[tuple[Sentence, frozenset[int]]],
        limits: EngineLimits,
    ) -> None:
        self.atoms = group_atoms
        self.limits = limits
        self.separator, self.blocks = _decompose([rel for _, rel in scoped], limits)
        block_of = {a: j for j, block in enumerate(self.blocks) for a in block}
        self.block_sentences: list[list[Sentence]] = [[] for _ in self.blocks]
        guards: list[Sentence] = []
        for sent, rel in scoped:
            outside = rel.difference(self.separator)
            if outside:
                self.block_sentences[block_of[next(iter(outside))]].append(sent)
            else:
                guards.append(sent)
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        # separator values that satisfy the guards, bit i for separator[i]
        live = np.arange(1 << len(self.separator), dtype=np.int64)
        bit_of = {a: i for i, a in enumerate(self.separator)}
        for g in guards:
            live = live[eval_objective_masks(g, bit_of, live)]
        self.live = live.tolist()

    def block_models(self, j: int, e: int) -> np.ndarray:
        """Models of block j under separator valuation e, bit i for blocks[j][i]."""
        key = (j, e)
        if key not in self._tables:
            block = self.blocks[j]
            if len(block) > _LONG_BITS:
                raise ResourceLimit(
                    f"block of {len(block)} atoms exceeds the mask width "
                    f"winslett._LONG_BITS = {_LONG_BITS}"
                )
            bit_of = {a: i for i, a in enumerate(block + self.separator)}
            masks = np.arange(1 << len(block), dtype=np.int64)
            with_sep = masks | e << len(block)
            ok = np.ones(masks.shape, dtype=bool)
            for s in self.block_sentences[j]:
                ok &= eval_objective_masks(s, bit_of, with_sep)
            self._tables[key] = masks[ok]
        return self._tables[key]

    def model_components(self) -> list[Component]:
        """All models of the theory over the group, or no component when it
        has none.  With one live separator value they are the separator fixed
        to it times each block's models, one component each; otherwise one
        component holds them as flat part masks."""
        if len(self.live) > 1:
            parts = self.model_parts()
            return [Component(self.atoms, parts)] if parts.size else []
        if not self.live:
            return []
        (e,) = self.live
        tables = [self.block_models(j, e) for j in range(len(self.blocks))]
        if any(t.size == 0 for t in tables):
            return []
        for t in tables:
            if t.size > self.limits.max_parts:
                raise ResourceLimit(
                    f"theory has too many models to enumerate: at least {t.size}, "
                    f"more than EngineLimits.max_parts = {self.limits.max_parts}"
                )
        out = [Component(self.separator, self.live)] if self.separator else []
        out.extend(Component(b, t) for b, t in zip(self.blocks, tables))
        return out

    def _group_bits(self) -> None:
        """Masks over the whole group, bit i for atoms[i], for the flat paths."""
        if len(self.atoms) > _LONG_BITS:
            raise ResourceLimit(
                f"group of {len(self.atoms)} atoms exceeds the mask width "
                f"winslett._LONG_BITS = {_LONG_BITS}"
            )
        pos = {a: i for i, a in enumerate(self.atoms)}
        self.block_bits = [[pos[a] for a in block] for block in self.blocks]
        self.block_masks = [sum(1 << b for b in bits) for bits in self.block_bits]
        sep_bits = [pos[a] for a in self.separator]
        self.sep_mask = sum(1 << b for b in sep_bits)
        self.live_masks = lift_bits(np.array(self.live, dtype=np.int64), sep_bits)

    def _group_models(self, j: int, e: int) -> np.ndarray:
        """block_models(j, e) in group bit space."""
        return lift_bits(self.block_models(j, e), self.block_bits[j])

    def model_parts(self) -> np.ndarray:
        """All models of the theory over the group, as distinct part masks."""
        self._group_bits()
        chunks = []
        total = 0
        for e, e_mask in zip(self.live, self.live_masks.tolist()):
            arrays = [self._group_models(j, e) for j in range(len(self.blocks))]
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
            chunks.append(or_product(arrays, e_mask))
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)

    def updated_parts(self, starts: np.ndarray) -> np.ndarray:
        """Models of the theory at minimal change from each start point, sorted."""
        self._group_bits()
        tables = [
            _BlockTable(
                [self._group_models(j, e) for e in self.live], sorted_unique(starts & m)
            )
            for j, m in enumerate(self.block_masks)
        ]
        # parts: distinct results so far; pending: later batches less those.  They
        # merge when pending outgrows parts or may pass the budget: counts are exact.
        parts, pending = starts[:0], []
        for lo in range(0, len(starts), _CHUNK_STARTS):
            batch = sorted_unique(
                self._chunk_models(starts[lo:lo + _CHUNK_STARTS], tables)
            )
            if parts.size:
                batch = batch[parts[np.searchsorted(parts[:-1], batch)] != batch]
            pending.append(batch)
            bound = parts.size + sum(p.size for p in pending)
            if bound > min(2 * parts.size, self.limits.max_parts):
                parts, pending = sorted_unique(np.concatenate([parts, *pending])), []
                if parts.size > self.limits.max_parts:
                    raise ResourceLimit(
                        f"update produced too many distinct results: at least "
                        f"{parts.size}, more than EngineLimits.max_parts = "
                        f"{self.limits.max_parts}"
                    )
        return sorted_unique(np.concatenate([parts, *pending]))

    def _chunk_models(self, chunk: np.ndarray, tables: list[_BlockTable]) -> np.ndarray:
        """Every model at minimal change from some start point of the chunk."""
        at = [
            np.searchsorted(t.values, chunk & m)
            for t, m in zip(tables, self.block_masks)
        ]
        s_sep = chunk & self.sep_mask
        out = []
        for li, e_mask in enumerate(self.live_masks.tolist()):
            counts = [t.count[a, li] for t, a in zip(tables, at)]
            total = np.ones(len(chunk), dtype=np.int64)
            for c in counts:
                total *= c
            owner = np.repeat(np.arange(len(chunk)), total)
            if not owner.size:
                continue
            rest = _ragged_arange(total)
            diff = s_sep[owner] ^ e_mask
            entries = []
            for t, a, c in zip(tables, at, counts):
                c = c[owner]
                entry = t.first[a[owner], li] + rest % c
                rest //= c
                diff |= t.diffs[entry]
                entries.append(entry)
            if len(self.live) > 1:
                # live values whose separator change lies inside this one's
                below = (
                    (s_sep[:, None] ^ self.live_masks) & ~(s_sep ^ e_mask)[:, None]
                ) == 0
                below[:, li] = False
                dominated = below[owner]
                for t, entry in zip(tables, entries):
                    dominated &= t.cover[entry]
                keep = ~dominated.any(axis=1)
                owner, diff = owner[keep], diff[keep]
            out.append(chunk[owner] ^ diff)
        return np.concatenate(out) if out else chunk[:0]


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
        in_group = [
            (s, rel) for s, rel in zip(sentences, sent_atoms) if rel and rel <= group
        ]
        m_comps = [c for c in m.components if c.scope <= group]
        if not in_group:
            out.extend(m_comps)
            continue
        solver = _GroupSolver(atoms, in_group, limits)
        if not m_comps:
            # the start set is free here, so every model of the theory is
            # reachable without change outside the group
            comps = solver.model_components()
        else:
            count = interpretation_count(m_comps, len(atoms))
            if count > limits.max_parts:
                raise ResourceLimit(
                    f"update start set is too large to enumerate: {count} starts, "
                    f"more than EngineLimits.max_parts = {limits.max_parts}"
                )
            # in ascending order, so that the chunks meet the starts in the
            # same order however many components the start set has
            parts = solver.updated_parts(np.sort(expand(m_comps, atoms)))
            comps = [Component(atoms, parts)] if parts.size else []
        if not comps:
            raise EmptyUpdate("updating theory has no classical models")
        out.extend(comps)
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
