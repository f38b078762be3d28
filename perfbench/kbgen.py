"""Seeded inputs for the `small` and `programs` workloads, with references.

Every input is written as ``.kb`` text, so the timed solve parses it like a
user file.  The generators also build each input's modal or rule reading
themselves, from the same random draws, and compute the expected answer with
the exhaustive functions of ``hybridmknf.oracle``.  References are keyed by
ground atom names (``P0(k0)``, ``a7``), never by the engine's atom indices.

* Static KBs follow the shape of acceptance criterion 3: four unary
  predicates over one constant (four ground atoms), random concept axioms,
  assertions and rules, so some plans have mixed layers.
* Sequences follow criterion 7: two versions whose predicates are units that
  are either ontology-only or rule-only, so every layer is single-charactered.
* Programs are rule-only sequences of two or three versions over nullary
  atoms: even negative loops give several stable models and ``not`` heads in
  later versions make causal rejection fire.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from hybridmknf.interp import (
    FALSE,
    TRUE,
    Atom,
    Implies,
    Known,
    Neg,
    NotKnown,
    conj,
)
from hybridmknf.oracle import (
    brute_dynamic_stable_models,
    brute_fo_models,
    brute_mknf_models,
    brute_sequence_update,
    mknf_satisfies,
)


@dataclass
class Case:
    """One generated input: .kb texts, queries and the expected answers."""

    label: str
    texts: list[str]
    universe: list[str]
    # each model is the set of interpretations it denotes, an interpretation
    # the frozenset of names of its true ground atoms
    models: frozenset
    queries: list[tuple[str, bool]]
    # each model stands for the up-set of its one interpretation: all atoms
    # outside it open, as for the stable models of rule-only input
    upsets: bool = False


def query_verdict(models, mode: str, atom: str) -> bool:
    """Reference answer to `K atom` or `not atom` over explicit models."""
    if mode == "K":
        return all(all(atom in i for i in m) for m in models)
    return all(any(atom not in i for i in m) for m in models)


def _queries(rng: random.Random, universe: list[str], models, count: int):
    """`count` K/not queries over single atoms, three in four expected to hold.

    A query that fails stops `entails` at the first model refuting it, so
    the share of holding queries sets the typical cost of a query; fixing it
    keeps the median steady from seed to seed."""
    want = {True: (3 * count + 3) // 4, False: count // 4}
    candidates = [(mode, atom) for mode in ("K", "not") for atom in universe]
    rng.shuffle(candidates)
    out = []
    for mode, atom in candidates * (count // len(candidates) + 1):
        verdict = query_verdict(models, mode, atom)
        if want[verdict]:
            want[verdict] -= 1
            out.append((f"{mode} {atom}", verdict))
    for mode, atom in candidates[: count - len(out)]:  # one verdict ran out
        out.append((f"{mode} {atom}", query_verdict(models, mode, atom)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# hybrid KBs over four unary predicates and one constant

_N_PREDS = 4
_UNARY_HEADER = (
    "sort obj: k0\n" + "".join(f"pred P{i}(obj)\n" for i in range(_N_PREDS))
)
_UNARY_NAMES = [f"P{i}(k0)" for i in range(_N_PREDS)]


def _concept(rng: random.Random, depth: int = 1):
    """(surface text, objective sentence over atom indices, predicates)."""
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        p = rng.randrange(_N_PREDS)
        return f"P{p}", Atom(p), {p}
    if roll < 0.6:
        return "top", TRUE, set()
    if roll < 0.7:
        return "bot", FALSE, set()
    if roll < 0.85:
        text, sent, preds = _concept(rng, depth - 1)
        return f"~({text})", Neg(sent), preds
    lt, ls, lp = _concept(rng, depth - 1)
    rt, rs, rp = _concept(rng, depth - 1)
    return f"({lt} & {rt})", conj([ls, rs]), lp | rp


def _modal_lit(positive: bool, atom: int):
    return Known(Atom(atom)) if positive else NotKnown(Atom(atom))


def _unary_text(axioms: list[str], rules: list[str]) -> str:
    return (
        _UNARY_HEADER
        + "\n*** O ***\n"
        + "".join(a + "\n" for a in axioms)
        + "\n*** P ***\n"
        + "".join(r + "\n" for r in rules)
    )


def _rule_text(head: tuple[bool, str], body: list[tuple[bool, str]]) -> str:
    h = head[1] if head[0] else f"not {head[1]}"
    if not body:
        return h + "."
    lits = [b if pos else f"not {b}" for pos, b in body]
    return f"{h} :- {', '.join(lits)}."


def _explicit(models_by_index) -> frozenset:
    """Oracle models over atom indices, renamed to ground atom names."""
    return frozenset(
        frozenset(frozenset(_UNARY_NAMES[a] for a in i) for i in m)
        for m in models_by_index
    )


def _one_mixed_layer(axiom_preds: list[set[int]], onto_preds: set[int], rules) -> bool:
    """Whether all four predicates must be solved as one mixed layer.

    Predicates sharing an axiom stay together, and so do predicates whose
    rules depend on each other in a cycle; the single group is mixed when it
    has ontology content and a rule its own atoms decide (a `not` head or a
    body).  This reads the KB alone, so the workload's mix of inputs does
    not depend on the engine under test.
    """
    parent = list(range(_N_PREDS))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for preds in axiom_preds:
        for p in preds:
            parent[find(p)] = find(min(preds))
    preds = range(_N_PREDS)
    reach = [[find(a) == find(b) for b in preds] for a in preds]
    for (_, head), body in rules:
        for _, b in body:
            reach[head][b] = True
    for k in preds:
        for a in preds:
            for b in preds:
                reach[a][b] = reach[a][b] or (reach[a][k] and reach[k][b])
    for a in preds:
        for b in preds:
            if reach[a][b] and reach[b][a]:
                parent[find(a)] = find(b)
    if len({find(p) for p in preds}) > 1:
        return False
    return bool(onto_preds) and any(not head[0] or body for head, body in rules)


def static_kb(rng: random.Random, label: str, n_queries: int, mixed4: bool) -> Case:
    """Criterion-3 shape with the counts fixed at its maxima: 2 axioms,
    1 assertion and 3 rules, so that solve cost varies less between draws.

    Draws repeat until the KB has a model and does (mixed4) or does not
    need one mixed layer over all four atoms: those cost the engine's
    exhaustive path 20 to 80 times more than the rest, so the workload fixes
    their share.
    """
    while True:
        statements: list[str] = []
        modal = []
        axiom_preds: list[set[int]] = []
        onto_preds: set[int] = set()
        for _ in range(2):
            while True:
                lt, ls, lp = _concept(rng)
                rt, rs, rp = _concept(rng)
                if lp | rp:
                    break
            two_way = rng.random() < 0.3
            statements.append(f"{lt} {'==' if two_way else '[='} {rt} .")
            modal.append(Known(Implies(ls, rs)))
            if two_way:
                modal.append(Known(Implies(rs, ls)))
            axiom_preds.append(lp | rp)
            onto_preds |= lp | rp
        p = rng.randrange(_N_PREDS)
        positive = rng.random() < 0.7
        statements.append(f"{'' if positive else '~'}P{p}(k0).")
        modal.append(Known(Atom(p) if positive else Neg(Atom(p))))
        onto_preds.add(p)
        rules = []
        for _ in range(3):
            head = (rng.random() < 0.85, rng.randrange(_N_PREDS))
            body = [
                (rng.random() < 0.6, rng.randrange(_N_PREDS))
                for _ in range(rng.randint(0, 2))
            ]
            rules.append((head, body))
            modal.append(
                Implies(conj([_modal_lit(*b) for b in body]), _modal_lit(*head))
            )
        if _one_mixed_layer(axiom_preds, onto_preds, rules) != mixed4:
            continue
        models = _explicit(brute_mknf_models(modal, list(range(_N_PREDS))))
        if models:
            break
    rule_texts = [
        _rule_text(
            (head[0], _UNARY_NAMES[head[1]]),
            [(pos, _UNARY_NAMES[a]) for pos, a in body],
        )
        for head, body in rules
    ]
    return Case(
        label,
        [_unary_text(statements, rule_texts)],
        list(_UNARY_NAMES),
        models,
        _queries(rng, _UNARY_NAMES, models, n_queries),
    )


def _product(values: dict[int, frozenset[bool]]) -> frozenset:
    """Explicit interpretation set of a per-atom product."""
    atoms = sorted(values)
    return frozenset(
        frozenset(a for a, v in zip(atoms, combo) if v)
        for combo in itertools.product(*(sorted(values[a]) for a in atoms))
    )


def sequence(rng: random.Random, label: str, n_queries: int) -> Case:
    """Criterion-7 shape: per-predicate ontology or rule units, two versions.
    Draws without a model are redrawn."""
    while True:
        texts, models = _sequence_draw(rng)
        if models:
            return Case(
                label, texts, list(_UNARY_NAMES), models,
                _queries(rng, _UNARY_NAMES, models, n_queries),
            )


def _sequence_draw(rng: random.Random) -> tuple[list[str], frozenset]:
    """One sequence and its reference models.

    The reference solves unit by unit from the bottom: an ontology unit is
    the minimal-change fold of its stage theories, a rule unit has the
    dynamic stable models of its stage programs after lower literals are
    evaluated against the branch, and a result must satisfy the whole
    newest version.
    """
    kinds = [rng.choice("op") for _ in range(_N_PREDS)]
    stage_statements: list[list[str]] = []
    stage_rules: list[list[str]] = []
    theories = [[[] for _ in range(_N_PREDS)] for _ in range(2)]
    programs = [[[] for _ in range(_N_PREDS)] for _ in range(2)]
    newest_modal = []
    for stage in range(2):
        statements: list[str] = []
        rules: list[str] = []
        modal = []
        for p, kind in enumerate(kinds):
            if kind == "o":
                roll = rng.random()
                if roll < 0.35:
                    positive = rng.random() < 0.7
                    statements.append(f"{'' if positive else '~'}P{p}(k0).")
                    sent = Atom(p) if positive else Neg(Atom(p))
                elif roll < 0.6:
                    statements.append(f"top [= P{p} .")
                    sent = Atom(p)
                elif roll < 0.8:
                    statements.append(f"P{p} [= bot .")
                    sent = Neg(Atom(p))
                else:
                    continue
                theories[stage][p].append(sent)
                modal.append(Known(sent))
            else:
                for _ in range(rng.randint(0, 2)):
                    head = (rng.random() < 0.8, p)
                    body = [
                        (rng.random() < 0.6, rng.randrange(p + 1))
                        for _ in range(rng.randint(0, 2))
                    ]
                    rules.append(
                        _rule_text(
                            (head[0], _UNARY_NAMES[p]),
                            [(pos, _UNARY_NAMES[a]) for pos, a in body],
                        )
                    )
                    programs[stage][p].append((head, tuple(body)))
                    modal.append(
                        Implies(
                            conj([_modal_lit(*b) for b in body]), _modal_lit(*head)
                        )
                    )
        stage_statements.append(statements)
        stage_rules.append(rules)
        newest_modal = modal

    branches: list[dict[int, frozenset[bool]]] = [{}]
    for p, kind in enumerate(kinds):
        grown = []
        if kind == "o":
            fold = brute_sequence_update(
                [brute_fo_models(theories[s][p], [p]) for s in range(2)], [[p]]
            )
            values = frozenset(p in i for i in fold)
            grown = [{**b, p: values} for b in branches]
        else:
            for b in branches:
                reduced = []
                for s in range(2):
                    prog = []
                    for head, body in programs[s][p]:
                        keep = []
                        for pos, a in body:
                            if a == p:
                                keep.append((pos, a))
                            elif not (b[a] == {True} if pos else False in b[a]):
                                break
                        else:
                            prog.append((head, tuple(keep)))
                    reduced.append(prog)
                for stable in brute_dynamic_stable_models(reduced, [p]):
                    value = {True} if p in stable else {True, False}
                    grown.append({**b, p: frozenset(value)})
        branches = grown

    results = set()
    for b in branches:
        m = _product(b)
        if all(mknf_satisfies(s, i, m, m) for s in newest_modal for i in m):
            results.add(m)
    texts = [_unary_text(stage_statements[s], stage_rules[s]) for s in range(2)]
    return texts, _explicit(results)


# ---------------------------------------------------------------------------
# rule-only version sequences


def program_sequence(
    rng: random.Random, label: str, heads: int, versions: int
) -> tuple[Case, Case]:
    """Rule-only sequence whose one rule layer has `heads` candidate atoms,
    and its first version on its own.

    Version 1 has three even negative loops and two rules deriving each
    other atom from atoms before it; every later version adds three `not`
    heads and two default rules.  The rule counts are fixed so that solve
    cost depends on the seed only through which atoms the rules name.
    Draws without a stable model are redrawn.
    """
    names = [f"a{i}" for i in range(heads)]
    header = "".join(f"pred {a}\n" for a in names) + "\n*** P ***\n"
    scope = list(range(heads))
    while True:
        order = list(range(heads))
        rng.shuffle(order)
        programs: list[list] = [[]]
        for j in range(0, 6, 2):
            a, b = order[j], order[j + 1]
            programs[0] += [((True, a), ((False, b),)), ((True, b), ((False, a),))]
        for j in range(6, heads):
            for _ in range(2):
                body = tuple(
                    (rng.random() < 0.6, order[rng.randrange(j)]) for _ in range(2)
                )
                programs[0].append(((True, order[j]), body))
        for _ in range(1, versions):
            prog = []
            for _ in range(3):
                prog.append(
                    ((False, rng.randrange(heads)), ((True, rng.randrange(heads)),))
                )
            for _ in range(2):
                prog.append(
                    ((True, rng.randrange(heads)), ((False, rng.randrange(heads)),))
                )
            programs.append(prog)
        stable = brute_dynamic_stable_models(programs, scope)
        if stable:
            break
    texts = [
        header
        + "".join(
            _rule_text(
                (head[0], names[head[1]]), [(pos, names[a]) for pos, a in body]
            )
            + "\n"
            for head, body in prog
        )
        for prog in programs
    ]

    def case(suffix: str, stable_sets, n_texts: int, n_queries: int | None) -> Case:
        models = frozenset(
            frozenset([frozenset(names[a] for a in s)]) for s in stable_sets
        )
        if n_queries is None:
            queries = [
                (f"{mode} {atom}", query_verdict(models, mode, atom))
                for mode in ("K", "not")
                for atom in names
            ]
            rng.shuffle(queries)
        else:
            queries = _queries(rng, names, models, n_queries)
        return Case(label + suffix, texts[:n_texts], names, models, queries, upsets=True)

    # the first version always has the eight models of its three loops;
    # most queries go there, both modes of every atom, so the median query
    # cost hinges neither on how many models a seed's updates keep nor on
    # which atoms a seed happens to ask about
    first = brute_dynamic_stable_models(programs[:1], scope)
    return case("", stable, versions, 2), case(" v1", first, 1, None)
