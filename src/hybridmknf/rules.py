"""Ground rule programs, stable models, and update-tolerant stable models.

Rules are ground, with default negation allowed in bodies and heads.  Truth
of a default literal is handled by the usual two-sorted reading: "not p"
becomes an atom of its own, paired with p, and candidate interpretations are
checked against the least model of the resulting definite program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ResourceLimit
from .interp import EngineLimits, DEFAULT_LIMITS, Signature

# (positive, atom index); (False, p) is the default literal "not p"
Lit = tuple[bool, int]

_CANDIDATE_CAP = 1 << 20


@dataclass(frozen=True)
class Rule:
    head: Lit
    body: tuple[Lit, ...]

    def atoms(self) -> frozenset[int]:
        return frozenset([self.head[1]] + [a for _, a in self.body])

    def is_positive(self) -> bool:
        """Head is an atom; the body may still use default negation."""
        return self.head[0]


def render_lit(lit: Lit, sig: Signature) -> str:
    positive, atom = lit
    text = str(sig.atoms[atom])
    return text if positive else f"not {text}"


def render_rule(rule: Rule, sig: Signature) -> str:
    head = render_lit(rule.head, sig)
    if not rule.body:
        return f"{head}."
    return f"{head} :- " + ", ".join(render_lit(b, sig) for b in rule.body) + "."


def scope_of(rules: Iterable[Rule]) -> frozenset[int]:
    out: set[int] = set()
    for r in rules:
        out |= r.atoms()
    return frozenset(out)


def conflicting(a: Rule, b: Rule) -> bool:
    """Heads name the same atom with opposite default status."""
    return a.head[1] == b.head[1] and a.head[0] != b.head[0]


def body_holds(rule: Rule, true_atoms: frozenset[int]) -> bool:
    return all((atom in true_atoms) == positive for positive, atom in rule.body)


def least_model(rules: Iterable[tuple[Lit, tuple[Lit, ...]]]) -> frozenset[Lit]:
    """Least model of a definite program over paired literals as atoms."""
    rules = list(rules)
    by_token: dict[Lit, list[int]] = {}
    missing = []
    heads = []
    for idx, (head, body) in enumerate(rules):
        missing.append(len(body))
        heads.append(head)
        for tok in body:
            by_token.setdefault(tok, []).append(idx)
    true: set[Lit] = set()
    queue = [heads[i] for i, m in enumerate(missing) if m == 0]
    while queue:
        tok = queue.pop()
        if tok in true:
            continue
        true.add(tok)
        for idx in by_token.get(tok, ()):
            missing[idx] -= 1
            if missing[idx] == 0:
                queue.append(heads[idx])
    return frozenset(true)


def _candidate_interpretations(
    rules: Sequence[Rule], scope: frozenset[int]
) -> Iterable[frozenset[int]]:
    # only atoms some positive-head rule can derive may be true in a
    # stable model; everything else in the scope is forced false
    pos_heads = sorted({r.head[1] for r in rules if r.head[0]} & scope)
    if 1 << len(pos_heads) > _CANDIDATE_CAP:
        raise ResourceLimit(
            f"stable-model search over {len(pos_heads)} candidate atoms "
            f"(2^{len(pos_heads)} = {1 << len(pos_heads)} candidates) exceeds "
            f"rules._CANDIDATE_CAP = {_CANDIDATE_CAP}"
        )
    for mask in range(1 << len(pos_heads)):
        yield frozenset(a for k, a in enumerate(pos_heads) if mask >> k & 1)


def stable_models(
    rules: Sequence[Rule],
    scope: frozenset[int] | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[frozenset[int]]:
    """Stable models of one program over the given scope."""
    del limits
    if scope is None:
        scope = scope_of(rules)
    base = [(r.head, r.body) for r in rules]
    out = []
    for i in _candidate_interpretations(rules, scope):
        completion: list[tuple[Lit, tuple[Lit, ...]]] = [
            ((False, p), ()) for p in scope if p not in i
        ]
        expected = frozenset(
            {(True, p) for p in i} | {(False, p) for p in scope if p not in i}
        )
        if least_model(base + completion) == expected:
            out.append(i)
    return sorted(out, key=sorted)


def latest_firing(
    programs: Sequence[Sequence[Rule]], true_atoms: frozenset[int]
) -> dict[Lit, int]:
    """For each head, the latest stage at which a rule with that head fires.

    A rule fires when the interpretation satisfies its body.  Rejection and
    default support are both read from this map, so each body is evaluated
    once per interpretation.
    """
    firing: dict[Lit, int] = {}
    for stage, prog in enumerate(programs):
        for rule in prog:
            if body_holds(rule, true_atoms):
                firing[rule.head] = stage
    return firing


def rejected_occurrences(
    programs: Sequence[Sequence[Rule]], true_atoms: frozenset[int]
) -> set[tuple[int, int]]:
    """(stage, rule position) pairs put out of force in the interpretation.

    An occurrence is rejected when a rule at the same or a later stage has
    the opposite head and a body the interpretation satisfies.
    """
    firing = latest_firing(programs, true_atoms)
    return {
        (stage, idx)
        for stage, prog in enumerate(programs)
        for idx, rule in enumerate(prog)
        if firing.get((not rule.head[0], rule.head[1]), -1) >= stage
    }


def default_assumptions(
    programs: Sequence[Sequence[Rule]],
    true_atoms: frozenset[int],
    scope: frozenset[int],
) -> frozenset[int]:
    """Atoms assumed false because no rule occurrence at all derives them.

    Rejected occurrences still count here, so an atom whose only support
    was rejected stays unassumed rather than silently falling back to false.
    """
    firing = latest_firing(programs, true_atoms)
    return frozenset(p for p in scope if (True, p) not in firing)


def dynamic_stable_models(
    programs: Sequence[Sequence[Rule]],
    scope: frozenset[int] | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[frozenset[int]]:
    """Stable models of a program sequence under conflict-driven rejection."""
    del limits
    all_rules = [r for prog in programs for r in prog]
    if scope is None:
        scope = scope_of(all_rules)
    out = []
    for i in _candidate_interpretations(all_rules, scope):
        firing = latest_firing(programs, i)
        # occurrences not rejected, plus the default assumptions
        reduct: list[tuple[Lit, tuple[Lit, ...]]] = [
            (rule.head, rule.body)
            for stage, prog in enumerate(programs)
            for rule in prog
            if firing.get((not rule.head[0], rule.head[1]), -1) < stage
        ]
        reduct.extend(((False, p), ()) for p in scope if (True, p) not in firing)
        expected = frozenset(
            {(True, p) for p in i} | {(False, p) for p in scope if p not in i}
        )
        if least_model(reduct) == expected:
            out.append(i)
    return sorted(out, key=sorted)
