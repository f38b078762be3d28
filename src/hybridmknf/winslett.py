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
independently.  model_components() answers a free start set.  Its terms
are the live separator values under which every block has a model; one
term comes back as the separator fixed to it plus one component per
block.  updated_components(comps) answers a given start set.  It does not
walk the start points one by one: the start components split the group
into factors, each factor is minimised once per live separator value,
and the results are products of per-factor part classes.  Each factor's
start points, and each block's start values times its models, are
counted against the parts budget before they are enumerated.  Several terms,
and every update, come back as one component that keeps that union of
products as it is, one part array per factor in each term, never
multiplied out; the rows it stores are counted against the parts budget
before it is built.  Every array stays in its own factor's bits, so only a
block and a start factor must fit one int64 mask, _LONG_BITS wide; the
group may be wider.  No model remaining comes back as no component, which
update_with_theory reports as EmptyUpdate.
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


def _unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean matrix, and each row's index among them."""
    width = bits.shape[1]
    words = [
        bits[:, lo:lo + _LONG_BITS] @ (1 << np.arange(min(_LONG_BITS, width - lo)))
        for lo in range(0, width, _LONG_BITS)
    ]
    if len(words) == 1:
        _, first, inverse = np.unique(words[0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(
            np.stack(words, axis=1), axis=0, return_index=True, return_inverse=True
        )
    return bits[first], inverse.ravel()


def _part_classes(
    pieces: list[tuple[np.ndarray, np.ndarray | None]],
) -> tuple[list[np.ndarray], list[frozenset[int]]]:
    """A factor's distinct result parts, in classes of parts that reach the
    same minimal cover vectors, and each class's vectors as integers.

    Without cover vectors, all parts form one class that reaches zero.
    """
    part = np.concatenate([p for p, _ in pieces])
    if not part.size:
        return [], []
    if pieces[0][1] is None:
        return [sorted_unique(part)], [frozenset({0})]
    vectors, vid = _unique_rows(np.concatenate([v for _, v in pieces]))
    order = np.argsort(part, kind="stable")
    part, vid = part[order], vid[order]
    first = np.flatnonzero(np.concatenate(([True], part[1:] != part[:-1])))
    reach = np.zeros((part.size, len(vectors)), dtype=bool)
    reach[np.arange(part.size), vid] = True
    reach = np.logical_or.reduceat(reach, first, axis=0)
    # inside[a, b]: vectors[a] is a strict subset of vectors[b], that is no
    # bit of vectors[a] lies outside vectors[b] (a float product counts them
    # exactly and needs no array of all pairs by all bits)
    inside = vectors.astype(np.float32) @ (~vectors).T.astype(np.float32) == 0
    np.fill_diagonal(inside, False)
    kinds, kind_of = _unique_rows(reach & ~(reach @ inside))
    part = part[first]
    as_int = [sum(1 << int(i) for i in np.flatnonzero(v)) for v in vectors]
    return (
        [part[kind_of == k] for k in range(len(kinds))],
        [frozenset(as_int[i] for i in np.flatnonzero(row)) for row in kinds],
    )


def _surviving_combos(
    reach: list[list[frozenset[int]]], width: int
) -> list[tuple[int, ...]]:
    """Tuples of one class index per factor such that one vector reachable
    from each chosen class ANDs to zero, for vectors of the given width.

    Factors are joined left to right, grouping the tuples so far by the
    minimal ANDs they reach.
    """
    if not width:
        # no dominators: each factor has one class, or none without results
        return [(0,) * len(reach)] if all(reach) else []
    states: dict[frozenset[int], list[tuple[int, ...]]] = {
        frozenset({(1 << width) - 1}): [()]
    }
    for classes in reach:
        joined: dict[frozenset[int], list[tuple[int, ...]]] = {}
        for state, combos in states.items():
            for ci, c in enumerate(classes):
                met = frozenset(_minimal_diffs({a & v for a in state for v in c}))
                joined.setdefault(met, []).extend(combo + (ci,) for combo in combos)
        states = joined
    return [combo for state, combos in states.items() if 0 in state for combo in combos]


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
        self.live_values = live
        self.live = live.tolist()
        self.sep_mask = (1 << len(self.separator)) - 1

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

    def _value_mask(self, j: int) -> int:
        """Mask of the bits of block j, in its own bits."""
        return (1 << len(self.blocks[j])) - 1

    def model_components(self) -> list[Component]:
        """All models of the theory over the group, or no component when it
        has none.  Its terms are the live values under which every block has
        a model.  One term gives the separator fixed to it times each block's
        models, one component each; several give one component holding the
        union of those products, factored by the separator and the blocks."""
        terms = {}
        for li, e in enumerate(self.live):
            tables = [self.block_models(j, e) for j in range(len(self.blocks))]
            if all(t.size for t in tables):
                terms[li] = tables
        if len(terms) > 1:
            pos = {a: i for i, a in enumerate(self.atoms)}
            return self._union_component(
                [tuple(pos[a] for a in unit) for unit in [self.separator, *self.blocks]],
                [[self.live_values[li:li + 1]] + tables for li, tables in terms.items()],
                "theory models",
            )
        if not terms:
            return []
        ((li, tables),) = terms.items()
        for t in tables:
            if t.size > self.limits.max_parts:
                raise ResourceLimit(
                    f"theory has too many models to enumerate: at least {t.size}, "
                    f"more than EngineLimits.max_parts = {self.limits.max_parts}"
                )
        out = [Component(self.separator, [self.live[li]])] if self.separator else []
        out.extend(Component(b, t) for b, t in zip(self.blocks, tables))
        return out

    def updated_components(self, comps: Sequence[Component]) -> list[Component]:
        """Models of the theory at minimal change from each start point, as
        one component holding a union of products over the start factors,
        or no component when there are none.

        The start points are the group interpretations that the disjoint comps
        allow, with the group's other atoms free.  They form a product of
        factors (see _start_factors), and each factor is minimised on its own
        under each live value e.  A factor's result part is tagged with the
        cover vectors it can reach.  A vector has one bit per dominator, a
        live value whose separator change from the start is a strict subset
        of e's; the bit is set when that dominator offers a change inside the
        part's in every block of the factor.  A group result survives exactly
        when one reachable vector per factor ANDs to zero.
        """
        factors = self._start_factors(comps)
        tables = {}
        for _, starts, blocks, _ in factors:
            for j, shift in blocks:
                models = [self.block_models(j, e) for e in self.live]
                values = sorted_unique(starts >> shift & self._value_mask(j))
                n_models = sum(m.size for m in models)
                if values.size * n_models > self.limits.max_parts:
                    raise ResourceLimit(
                        f"update block table is too large to build: {values.size} "
                        f"start values x {n_models} block models, more than "
                        f"EngineLimits.max_parts = {self.limits.max_parts}"
                    )
                tables[j] = _BlockTable(models, values)
        # the dominator columns under each live value, None when there are none
        columns: list[np.ndarray | None] = [None] * len(self.live)
        if len(self.live) > 1:
            sep_starts = next(starts for _, starts, _, has_sep in factors if has_sep)
            sep_values = sorted_unique(sep_starts & self.sep_mask)
            for li, e in enumerate(self.live):
                held = np.flatnonzero(self._dominators(sep_values, e, li).any(axis=0))
                columns[li] = held if held.size else None
        pieces = [[[] for _ in factors] for _ in self.live]
        for fi, (_, starts, blocks, has_sep) in enumerate(factors):
            placed = [(tables[j], shift) for j, shift in blocks]
            for lo in range(0, len(starts), _CHUNK_STARTS):
                chunk = starts[lo:lo + _CHUNK_STARTS]
                at = [
                    np.searchsorted(tables[j].values, chunk >> shift & self._value_mask(j))
                    for j, shift in blocks
                ]
                for li, e in enumerate(self.live):
                    pieces[li][fi].append(
                        self._factor_changes(chunk, at, placed, has_sep, li, e, columns[li])
                    )
        products = []
        for li, per_factor in enumerate(pieces):
            split = [_part_classes(factor_pieces) for factor_pieces in per_factor]
            width = 0 if columns[li] is None else columns[li].size
            for combo in _surviving_combos([vectors for _, vectors in split], width):
                products.append([parts[c] for (parts, _), c in zip(split, combo)])
        return self._union_component(
            [positions for positions, _, _, _ in factors], products, "update results"
        )

    def _union_component(
        self,
        factors: list[tuple[int, ...]],
        products: list[list[np.ndarray]],
        what: str,
    ) -> list[Component]:
        """One component over the group holding the union of the products,
        each one array of masks per factor, in the bits of that factor's
        group positions, or none without products.
        The rows it would store, summed over every array of every product,
        are counted against max_parts before it is built."""
        rows = sum(a.size for arrays in products for a in arrays)
        if rows > self.limits.max_parts:
            raise ResourceLimit(
                f"{what} need too many stored rows: {rows}, more than "
                f"EngineLimits.max_parts = {self.limits.max_parts}"
            )
        if not products:
            return []
        return [Component.union(self.atoms, factors, products)]

    def _start_factors(
        self, comps: Sequence[Component]
    ) -> list[tuple[tuple[int, ...], np.ndarray, list[tuple[int, int]], bool]]:
        """The start set as a product of factors, each given by its atoms'
        positions in the group, its start points in its own bits, its blocks
        with the bit each begins at, and whether it holds the separator.

        Blocks and the separator that one start component touches together
        fall into one factor; atoms only the start set mentions stay in their
        component's factor, where no block changes them.  A factor's atoms
        come separator first, then block by block, then the atoms only the
        start set mentions, so separator values need no move and a block's
        models one shift.  Every factor's width and start points are checked
        before any is enumerated: its masks must fit _LONG_BITS, and its
        start points max_parts.
        """
        pos = {a: i for i, a in enumerate(self.atoms)}
        units = [set(b) for b in self.blocks]
        if self.separator:
            units.append(set(self.separator))
        groups = sorted(union_find_groups(units + [c.scope for c in comps]), key=min)
        in_factor = [[c for c in comps if c.atoms[0] in group] for group in groups]
        for group, factor_comps in zip(groups, in_factor):
            if len(group) > _LONG_BITS:
                raise ResourceLimit(
                    f"update start factor of {len(group)} atoms exceeds the mask "
                    f"width winslett._LONG_BITS = {_LONG_BITS}"
                )
            count = interpretation_count(factor_comps, len(group))
            if count > self.limits.max_parts:
                raise ResourceLimit(
                    f"update start set is too large to enumerate: {count} starts, "
                    f"more than EngineLimits.max_parts = {self.limits.max_parts}"
                )
        factors = []
        for group, factor_comps in zip(groups, in_factor):
            has_sep = bool(self.separator) and self.separator[0] in group
            atoms = list(self.separator) if has_sep else []
            blocks = []
            for j, block in enumerate(self.blocks):
                if block[0] in group:
                    blocks.append((j, len(atoms)))
                    atoms.extend(block)
            atoms.extend(sorted(group.difference(atoms)))
            positions = tuple(pos[a] for a in atoms)
            factors.append((positions, expand(factor_comps, atoms), blocks, has_sep))
        return factors

    def _dominators(self, s_sep: np.ndarray, e: int, li: int) -> np.ndarray:
        """Whether live value l changes a strict subset of the separator bits
        that live index li changes from s_sep[i], at [i, l]."""
        out = ((s_sep[:, None] ^ self.live_values) & ~(s_sep ^ e)[:, None]) == 0
        out[:, li] = False
        return out

    def _factor_changes(
        self,
        chunk: np.ndarray,
        at: list[np.ndarray],
        tables: list[tuple[_BlockTable, int]],
        has_sep: bool,
        li: int,
        e: int,
        columns: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The factor results under live index li from the chunk's start
        points, with the cover vector of each over the dominator columns,
        or None when no start has a dominator.  Each block table comes with
        the bit its block begins at in the factor."""
        counts = [t.count[a, li] for (t, _), a in zip(tables, at)]
        total = np.ones(len(chunk), dtype=np.int64)
        for c in counts:
            total *= c
        owner = np.repeat(np.arange(len(chunk)), total)
        rest = _ragged_arange(total)
        s_sep = chunk & self.sep_mask
        diff = (s_sep ^ e)[owner] if has_sep else np.zeros(owner.size, np.int64)
        vec = None if columns is None else np.ones((owner.size, columns.size), bool)
        for (t, shift), a, c in zip(tables, at, counts):
            c = c[owner]
            entry = t.first[a[owner], li] + rest % c
            rest //= c
            diff |= t.diffs[entry] << shift
            if vec is not None:
                vec &= t.cover[np.ix_(entry, columns)]
        if vec is not None and has_sep:
            vec &= self._dominators(s_sep, e, li)[np.ix_(owner, columns)]
        return chunk[owner] ^ diff, vec


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
            comps = solver.updated_components(m_comps)
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
