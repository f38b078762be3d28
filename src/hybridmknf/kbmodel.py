"""Knowledge bases pairing a concept-style ontology with a rule program.

The ontology side uses a small concept language over unary and binary
predicates: named concepts, nominals, complement, conjunction, and
existential restriction along a binary role.  The rule side uses schemas
with sorted variables.  Everything compiles down to ground sentences and
ground rules over one shared signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple, Union

from .errors import SortMismatch, UndeclaredSymbol, UnsortableVariable
from .interp import (
    Atom,
    Conj,
    FALSE,
    Implies,
    Known,
    Neg,
    NotKnown,
    Sentence,
    Signature,
    TRUE,
    conj,
    disj,
)
from .rules import Rule


# ---------------------------------------------------------------------------
# concepts

# Like sentence nodes, concept nodes are never changed after construction and
# hash by value, without the cost of frozen construction.


@dataclass(unsafe_hash=True)
class ConceptName:
    pred: str


@dataclass(unsafe_hash=True)
class Nominal:
    constant: str


@dataclass(unsafe_hash=True)
class TopConcept:
    pass


@dataclass(unsafe_hash=True)
class BotConcept:
    pass


@dataclass(unsafe_hash=True)
class NotConcept:
    sub: "Concept"


@dataclass(unsafe_hash=True)
class AndConcept:
    subs: tuple["Concept", ...]


@dataclass(unsafe_hash=True)
class ExistsConcept:
    role: str
    filler: "Concept"


Concept = Union[
    ConceptName, Nominal, TopConcept, BotConcept, NotConcept, AndConcept, ExistsConcept
]

TOP = TopConcept()
BOT = BotConcept()


def concept_predicates(c: Concept) -> frozenset[str]:
    if isinstance(c, ConceptName):
        return frozenset((c.pred,))
    if isinstance(c, (Nominal, TopConcept, BotConcept)):
        return frozenset()
    if isinstance(c, NotConcept):
        return concept_predicates(c.sub)
    if isinstance(c, AndConcept):
        out: frozenset[str] = frozenset()
        for s in c.subs:
            out |= concept_predicates(s)
        return out
    if isinstance(c, ExistsConcept):
        return frozenset((c.role,)) | concept_predicates(c.filler)
    raise TypeError(f"not a concept: {c!r}")


def _merge_sort(a: str | None, b: str | None, context: str) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise SortMismatch(f"{context} mixes sorts {a} and {b}")


def concept_sort(c: Concept, sig: Signature) -> str | None:
    """Sort of the individuals a concept ranges over, when determined."""
    if isinstance(c, ConceptName):
        if c.pred not in sig.predicates:
            raise UndeclaredSymbol(f"undeclared predicate {c.pred}")
        args = sig.predicates[c.pred]
        if len(args) != 1:
            raise SortMismatch(f"{c.pred} is not unary and cannot name a concept")
        return args[0]
    if isinstance(c, Nominal):
        if c.constant not in sig.constants:
            raise UndeclaredSymbol(f"undeclared constant {c.constant}")
        return sig.constants[c.constant]
    if isinstance(c, (TopConcept, BotConcept)):
        return None
    if isinstance(c, NotConcept):
        return concept_sort(c.sub, sig)
    if isinstance(c, AndConcept):
        sort: str | None = None
        for s in c.subs:
            sort = _merge_sort(sort, concept_sort(s, sig), "concept conjunction")
        return sort
    if isinstance(c, ExistsConcept):
        if c.role not in sig.predicates:
            raise UndeclaredSymbol(f"undeclared predicate {c.role}")
        args = sig.predicates[c.role]
        if len(args) != 2:
            raise SortMismatch(f"{c.role} is not binary and cannot serve as a role")
        filler = concept_sort(c.filler, sig)
        _merge_sort(args[1], filler, f"filler of {c.role}")
        return args[0]
    raise TypeError(f"not a concept: {c!r}")


def concept_sentence(c: Concept, constant: str, sig: Signature) -> Sentence:
    """Ground sentence stating that the constant falls under the concept."""
    if isinstance(c, ConceptName):
        return Atom(sig.atom(c.pred, (constant,)))
    if isinstance(c, Nominal):
        return TRUE if constant == c.constant else FALSE
    if isinstance(c, TopConcept):
        return TRUE
    if isinstance(c, BotConcept):
        return FALSE
    if isinstance(c, NotConcept):
        inner = concept_sentence(c.sub, constant, sig)
        if inner == TRUE:
            return FALSE
        if inner == FALSE:
            return TRUE
        return Neg(inner)
    if isinstance(c, AndConcept):
        return conj([concept_sentence(s, constant, sig) for s in c.subs])
    if isinstance(c, ExistsConcept):
        filler_sort = sig.predicates[c.role][1]
        cases = []
        for other in sig.constants_of_sort(filler_sort):
            cases.append(
                conj(
                    [
                        Atom(sig.atom(c.role, (constant, other))),
                        concept_sentence(c.filler, other, sig),
                    ]
                )
            )
        return disj(cases)
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# axioms and assertions


@dataclass(frozen=True)
class _Statement:
    """A schematic statement whose ground instances (its `_instances`) are
    computed once per signature and kept on the statement, so every slice
    that shares it and the final check of the newest base reuse them."""

    # (signature, ground instances) of the last computation
    _grounded: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def ground(self, sig: Signature) -> list:
        if self._grounded is None or self._grounded[0] is not sig:
            object.__setattr__(self, "_grounded", (sig, self._instances(sig)))
        return list(self._grounded[1])


@dataclass(frozen=True)
class Axiom(_Statement):
    """Subsumption or, when two_way is set, equivalence of two concepts."""

    left: Concept
    right: Concept
    two_way: bool = False

    def predicates(self) -> frozenset[str]:
        return self._predicates

    @cached_property
    def _predicates(self) -> frozenset[str]:
        return concept_predicates(self.left) | concept_predicates(self.right)

    def subject_sort(self, sig: Signature) -> str:
        sort = _merge_sort(
            concept_sort(self.left, sig), concept_sort(self.right, sig), "axiom"
        )
        if sort is None:
            raise UnsortableVariable(
                "axiom does not determine the sort it ranges over"
            )
        return sort

    def _instances(self, sig: Signature) -> tuple[Sentence, ...]:
        # one sentence per constant of the subject sort
        out = []
        for constant in sig.constants_of_sort(self.subject_sort(sig)):
            left = concept_sentence(self.left, constant, sig)
            right = concept_sentence(self.right, constant, sig)
            if self.two_way:
                out.append(conj([Implies(left, right), Implies(right, left)]))
            else:
                out.append(Implies(left, right))
        return tuple(out)


class Assertion(NamedTuple):
    """Ground fact about named individuals, possibly complemented."""

    pred: str
    args: tuple[str, ...]
    positive: bool = True

    def ground(self, sig: Signature) -> Sentence:
        atom = Atom(sig.atom(self.pred, self.args))
        return atom if self.positive else Neg(atom)


@dataclass(frozen=True)
class Ontology:
    axioms: tuple[Axiom, ...] = ()
    assertions: tuple[Assertion, ...] = ()

    def is_empty(self) -> bool:
        return not self.axioms and not self.assertions

    def ground(self, sig: Signature) -> list[Sentence]:
        out: list[Sentence] = []
        for a in self.axioms:
            out.extend(a.ground(sig))
        for a in self.assertions:
            out.append(a.ground(sig))
        return out


# ---------------------------------------------------------------------------
# rule schemas

# A term starting with an upper-case letter is a variable; anything else is
# a constant of the signature.


def is_variable(term: str) -> bool:
    return bool(term) and term[0].isupper()


class SchemaAtom(NamedTuple):
    pred: str
    args: tuple[str, ...]


class SchemaLiteral(NamedTuple):
    positive: bool
    atom: SchemaAtom


@dataclass(frozen=True)
class RuleSchema(_Statement):
    head: SchemaLiteral
    body: tuple[SchemaLiteral, ...] = ()

    def atoms(self) -> list[SchemaAtom]:
        return [self.head.atom] + [b.atom for b in self.body]

    def head_pred(self) -> str:
        return self.head.atom.pred

    def body_predicates(self) -> frozenset[str]:
        return self._body_predicates

    def predicates(self) -> frozenset[str]:
        return self._predicates

    @cached_property
    def _body_predicates(self) -> frozenset[str]:
        return frozenset(b.atom.pred for b in self.body)

    @cached_property
    def _predicates(self) -> frozenset[str]:
        return self._body_predicates | {self.head_pred()}

    def is_positive(self) -> bool:
        return self.head.positive

    def variable_sorts(self, sig: Signature) -> dict[str, str]:
        sorts: dict[str, str] = {}
        for atom in self.atoms():
            if atom.pred not in sig.predicates:
                raise UndeclaredSymbol(f"undeclared predicate {atom.pred}")
            expected = sig.predicates[atom.pred]
            if len(atom.args) != len(expected):
                raise SortMismatch(
                    f"{atom.pred} expects {len(expected)} arguments, got {len(atom.args)}"
                )
            for term, sort in zip(atom.args, expected):
                if is_variable(term):
                    if term in sorts and sorts[term] != sort:
                        raise SortMismatch(
                            f"variable {term} used at sorts {sorts[term]} and {sort}"
                        )
                    sorts[term] = sort
                else:
                    if term not in sig.constants:
                        raise UndeclaredSymbol(f"undeclared constant {term}")
                    if sig.constants[term] != sort:
                        raise SortMismatch(
                            f"{atom.pred} expects sort {sort} where constant {term} "
                            f"of sort {sig.constants[term]} appears"
                        )
        for atom in self.atoms():
            for term in atom.args:
                if is_variable(term) and term not in sorts:
                    raise UnsortableVariable(f"variable {term} has no sorted occurrence")
        return sorts

    def _instances(self, sig: Signature) -> tuple[Rule, ...]:
        # one rule per binding of the variables
        sorts = self.variable_sorts(sig)
        variables = sorted(sorts)
        pools = [sig.constants_of_sort(sorts[v]) for v in variables]
        out = []
        for values in itertools.product(*pools):
            binding = dict(zip(variables, values))

            def ground_atom(atom: SchemaAtom) -> int:
                args = tuple(binding.get(t, t) for t in atom.args)
                return sig.atom(atom.pred, args)

            head = (self.head.positive, ground_atom(self.head.atom))
            body = tuple(
                (lit.positive, ground_atom(lit.atom)) for lit in self.body
            )
            out.append(Rule(head, body))
        return tuple(out)


# ---------------------------------------------------------------------------
# knowledge bases


@dataclass(frozen=True)
class HybridKb:
    """One ontology plus one rule program over a shared signature."""

    sig: Signature
    ontology: Ontology = Ontology()
    program: tuple[RuleSchema, ...] = ()

    def ontology_sentences(self) -> list[Sentence]:
        return self.ontology.ground(self.sig)

    def ground_rules(self) -> list[Rule]:
        out: list[Rule] = []
        for schema in self.program:
            out.extend(schema.ground(self.sig))
        return out

    def modal_sentences(self) -> list[Sentence]:
        """Modal reading of the whole base: axioms under K, rules as
        conditionals between modal literals, each literal built once."""
        out: list[Sentence] = list(map(Known, self.ontology_sentences()))
        literal = cache(modal_literal)
        out.extend(modal_rule(rule, literal) for rule in self.ground_rules())
        return out


def modal_literal(lit: tuple[bool, int]) -> Sentence:
    positive, atom = lit
    return Known(Atom(atom)) if positive else NotKnown(Atom(atom))


def modal_rule(
    rule: Rule,
    literal: Callable[[tuple[bool, int]], Sentence] = modal_literal,
) -> Sentence:
    # modal literals are never TRUE or FALSE, so the body needs no conj
    body = tuple(map(literal, rule.body))
    if len(body) == 1:
        return Implies(body[0], literal(rule.head))
    return Implies(Conj(body), literal(rule.head))


@dataclass(frozen=True)
class DynamicHybridKb:
    """Sequence of knowledge bases over one signature, oldest first."""

    sig: Signature
    stages: tuple[HybridKb, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a sequence needs at least one knowledge base")
        for kb in self.stages:
            if kb.sig is not self.sig:
                raise ValueError("all stages must share one signature")

    def newest(self) -> HybridKb:
        return self.stages[-1]


def single_stage(kb: HybridKb) -> DynamicHybridKb:
    return DynamicHybridKb(kb.sig, (kb,))
