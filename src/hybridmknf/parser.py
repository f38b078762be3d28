"""Line-oriented text format for knowledge bases, plans, and queries.

A knowledge base file declares its vocabulary first, then lists ontology
statements under a ``*** O ***`` header and rules under ``*** P ***``:

    sort commodity: c1, c2
    sort charge: '$0', '$40'
    pred Tomato(commodity)
    pred TariffCharge(commodity, charge)

    *** O ***
    Tomato == exists TariffCharge.top
    ~Tomato(c2)

    *** P ***
    Cheap(C) :- TariffCharge(C, '$0'), not Tomato(C)

Statements end at the line break; a single trailing dot is tolerated.
Comments run from ``#`` to the end of the line.  Concept syntax: ``top``,
``bot``, names, ``{constant}``, ``~C``, ``C & D``, ``exists Role.C`` and
parentheses, with ``[=`` for containment and ``==`` for equivalence.
Terms starting with an upper-case letter are rule variables; quoted terms
are always constants.  Several files parse against the merged vocabulary,
so a sequence of bases shares one signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import KbSyntaxError
from .interp import Atom, Known, Neg, NotKnown, Sentence, Signature, conj
from .kbmodel import (
    AndConcept,
    Assertion,
    Axiom,
    BOT,
    Concept,
    ConceptName,
    DynamicHybridKb,
    ExistsConcept,
    HybridKb,
    Nominal,
    NotConcept,
    Ontology,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
    TOP,
    is_variable,
)

_TOKEN = re.compile(
    r"'[^']*'|\[=|==|:-|[A-Za-z_][A-Za-z0-9_]*|[(){},.&~:]|\S"
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_HEADER = re.compile(r"\*{3}\s*([OP])\s*\*{3}")


def render_term(term: str) -> str:
    return term if _NAME.match(term) else f"'{term}'"


class _Tokens:
    __slots__ = ("items", "pos", "name", "lineno")

    def __init__(self, line: str, name: str, lineno: int | None = None) -> None:
        # the None sentinel ends every statement, so reads need no bounds check
        self.items: list[str | None] = _TOKEN.findall(line)
        self.items.append(None)
        self.pos = 0
        self.name = name
        self.lineno = lineno

    @property
    def where(self) -> str:
        """The location that error messages start with."""
        return self.name if self.lineno is None else f"{self.name}:{self.lineno}"

    def peek(self) -> str | None:
        return self.items[self.pos]

    def next(self) -> str:
        tok = self.items[self.pos]
        if tok is None:
            raise KbSyntaxError(f"{self.where}: unexpected end of statement")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise KbSyntaxError(f"{self.where}: expected {tok!r}, found {got!r}")

    def done(self) -> bool:
        return self.items[self.pos] is None

    def fail(self, message: str) -> KbSyntaxError:
        return KbSyntaxError(f"{self.where}: {message}")


def _is_name(tok: str | None) -> bool:
    # the ASCII identifiers are exactly the matches of _NAME
    return tok is not None and tok.isascii() and tok.isidentifier()


def _unquote(tok: str) -> str:
    if len(tok) >= 2 and tok[0] == "'" and tok[-1] == "'":
        return tok[1:-1]
    return tok


def _is_term(tok: str | None) -> bool:
    # tokens are never empty
    return tok is not None and (tok[0] == "'" or (tok.isascii() and tok.isidentifier()))


@dataclass
class ParsedFile:
    name: str
    sorts: dict[str, list[str]] = field(default_factory=dict)
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    axioms: list[Axiom] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    schemas: list[RuleSchema] = field(default_factory=list)


_KEYWORDS = {"exists", "top", "bot", "not", "sort", "pred"}


def _parse_concept_atom(toks: _Tokens) -> Concept:
    tok = toks.next()
    if tok not in _KEYWORDS and _is_name(tok):
        return ConceptName(tok)
    if tok == "top":
        return TOP
    if tok == "bot":
        return BOT
    if tok == "~":
        return NotConcept(_parse_concept_atom(toks))
    if tok == "(":
        inner = _parse_concept(toks)
        toks.expect(")")
        return inner
    if tok == "{":
        const = toks.next()
        if not _is_term(const):
            raise toks.fail(f"expected a constant inside braces, found {const!r}")
        toks.expect("}")
        return Nominal(_unquote(const))
    if tok == "exists":
        role = toks.next()
        if not _is_name(role):
            raise toks.fail(f"expected a role name after 'exists', found {role!r}")
        toks.expect(".")
        return ExistsConcept(role, _parse_concept_atom(toks))
    raise toks.fail(f"expected a concept, found {tok!r}")


def _parse_concept(toks: _Tokens) -> Concept:
    parts = [_parse_concept_atom(toks)]
    while toks.peek() == "&":
        toks.next()
        parts.append(_parse_concept_atom(toks))
    if len(parts) == 1:
        return parts[0]
    return AndConcept(tuple(parts))


def _parse_args(toks: _Tokens) -> tuple[str, ...]:
    # reads toks.items directly, up to the None that ends the statement
    items, pos = toks.items, toks.pos
    if items[pos] != "(":
        toks.expect("(")
    pos += 1
    if items[pos] == ")":
        toks.pos = pos + 1
        return ()
    args = []
    while True:
        tok = items[pos]
        if not _is_term(tok):
            raise toks.fail(_found(tok, "a term"))
        args.append(_unquote(tok))
        tok = items[pos + 1]
        pos += 2
        if tok == ")":
            toks.pos = pos
            return tuple(args)
        if tok != ",":
            raise toks.fail(_found(tok, "',' or ')'"))


def _found(tok: str | None, wanted: str) -> str:
    if tok is None:
        return "unexpected end of statement"
    return f"expected {wanted}, found {tok!r}"


def _parse_assertion(toks: _Tokens) -> Assertion:
    positive = True
    if toks.peek() == "~":
        toks.next()
        positive = False
    pred = toks.next()
    if not _is_name(pred):
        raise toks.fail(f"expected a predicate name, found {pred!r}")
    args = _parse_args(toks) if toks.peek() == "(" else ()
    for term in args:
        if is_variable(term):
            raise toks.fail(f"assertions must be ground, found variable {term}")
    return Assertion(pred, args, positive)


def _parse_rule_literal(toks: _Tokens) -> SchemaLiteral:
    # stacked default negation is absorbed pairwise: "not not p" is just p
    positive = True
    while toks.peek() == "not":
        toks.next()
        positive = not positive
    pred = toks.next()
    if not _is_name(pred) or pred in _KEYWORDS:
        raise toks.fail(f"expected a predicate name, found {pred!r}")
    args = _parse_args(toks) if toks.peek() == "(" else ()
    return SchemaLiteral(positive, SchemaAtom(pred, args))


def _parse_rule(toks: _Tokens) -> RuleSchema:
    head = _parse_rule_literal(toks)
    body: list[SchemaLiteral] = []
    if not toks.done():
        toks.expect(":-")
        while True:
            body.append(_parse_rule_literal(toks))
            if toks.done():
                break
            toks.expect(",")
    return RuleSchema(head, tuple(body))


def _strip_line(raw: str) -> str:
    line = raw
    cut = raw.find("#")
    if cut >= 0 and "'" not in raw[:cut]:
        line = raw[:cut]
    elif cut >= 0:
        # comments start outside quotes only
        out = []
        in_quote = False
        for ch in raw:
            if ch == "'":
                in_quote = not in_quote
            if ch == "#" and not in_quote:
                break
            out.append(ch)
        line = "".join(out)
    line = line.strip()
    if line.endswith(".") and not line.endswith(".."):
        line = line[:-1].rstrip()
    return line


def parse_kb_text(text: str, name: str = "<kb>") -> ParsedFile:
    parsed = ParsedFile(name)
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw or raw[0] == "#":
            continue
        line = _strip_line(raw)
        if not line:
            continue
        if line[0] == "*":
            header = _HEADER.fullmatch(line)
            if header:
                section = header.group(1)
                continue
        toks = _Tokens(line, name, lineno)
        first = toks.peek()
        if section is None:
            if first == "sort":
                toks.next()
                sort = toks.next()
                if not _is_name(sort):
                    raise toks.fail(f"expected a sort name, found {sort!r}")
                toks.expect(":")
                consts = []
                items, pos = toks.items, toks.pos
                while items[pos] is not None:
                    tok = items[pos]
                    if not _is_term(tok):
                        raise toks.fail(f"expected a constant, found {tok!r}")
                    consts.append(_unquote(tok))
                    pos += 2 if items[pos + 1] == "," else 1
                if not consts:
                    raise toks.fail("a sort needs at least one constant")
                parsed.sorts.setdefault(sort, [])
                parsed.sorts[sort].extend(consts)
            elif first == "pred":
                toks.next()
                pred = toks.next()
                if not _is_name(pred):
                    raise toks.fail(f"expected a predicate name, found {pred!r}")
                arg_sorts: tuple[str, ...] = ()
                if toks.peek() == "(":
                    arg_sorts = _parse_args(toks)
                if not toks.done():
                    raise toks.fail(f"unexpected trailing {toks.peek()!r}")
                if pred in parsed.predicates and parsed.predicates[pred] != arg_sorts:
                    raise toks.fail(f"conflicting declarations for {pred}")
                parsed.predicates[pred] = arg_sorts
            else:
                raise toks.fail(
                    "expected 'sort', 'pred', or a section header before statements"
                )
            continue
        if section == "O":
            if "[=" not in toks.items and "==" not in toks.items:
                parsed.assertions.append(_parse_assertion(toks))
                if not toks.done():
                    raise toks.fail(f"unexpected trailing {toks.peek()!r}")
            else:
                left = _parse_concept(toks)
                op = toks.next()
                if op not in ("[=", "=="):
                    raise toks.fail(f"expected '[=' or '==', found {op!r}")
                right = _parse_concept(toks)
                if not toks.done():
                    raise toks.fail(f"unexpected trailing {toks.peek()!r}")
                parsed.axioms.append(Axiom(left, right, two_way=op == "=="))
        else:
            parsed.schemas.append(_parse_rule(toks))
            if not toks.done():
                raise toks.fail(f"unexpected trailing {toks.peek()!r}")
    return parsed


def render_concept(c: Concept, nested: bool = False) -> str:
    """Surface syntax for a concept; nested=True adds parens around '&' chains."""
    if c == TOP:
        return "top"
    if c == BOT:
        return "bot"
    if isinstance(c, ConceptName):
        return c.pred
    if isinstance(c, Nominal):
        return "{%s}" % render_term(c.constant)
    if isinstance(c, NotConcept):
        return "~" + render_concept(c.sub, nested=True)
    if isinstance(c, ExistsConcept):
        return f"exists {c.role}.{render_concept(c.filler, nested=True)}"
    text = " & ".join(render_concept(s, nested=True) for s in c.subs)
    return f"({text})" if nested else text


def render_axiom(axiom: Axiom) -> str:
    op = "==" if axiom.two_way else "[="
    return f"{render_concept(axiom.left)} {op} {render_concept(axiom.right)}."


def render_assertion(assertion: Assertion) -> str:
    sign = "" if assertion.positive else "~"
    args = ", ".join(render_term(t) for t in assertion.args)
    body = f"{assertion.pred}({args})" if assertion.args else assertion.pred
    return f"{sign}{body}."


def _render_schema_atom(atom: SchemaAtom) -> str:
    if not atom.args:
        return atom.pred
    return "%s(%s)" % (atom.pred, ", ".join(render_term(t) for t in atom.args))


def render_schema(schema: RuleSchema) -> str:
    head = _render_schema_atom(schema.head.atom)
    if not schema.head.positive:
        head = "not " + head
    if not schema.body:
        return head + "."
    parts = []
    for lit in schema.body:
        text = _render_schema_atom(lit.atom)
        parts.append(text if lit.positive else "not " + text)
    return f"{head} :- {', '.join(parts)}."


def render_document(parsed: ParsedFile) -> str:
    """Print a parsed file back to surface syntax (comments are not kept)."""
    lines: list[str] = []
    for sort, consts in parsed.sorts.items():
        lines.append(f"sort {sort}: {', '.join(render_term(c) for c in consts)}")
    for pred, arg_sorts in parsed.predicates.items():
        if arg_sorts:
            lines.append(f"pred {pred}({', '.join(arg_sorts)})")
        else:
            lines.append(f"pred {pred}")
    if parsed.axioms or parsed.assertions:
        lines.append("")
        lines.append("*** O ***")
        lines.append("")
        lines.extend(render_axiom(a) for a in parsed.axioms)
        lines.extend(render_assertion(a) for a in parsed.assertions)
    if parsed.schemas:
        lines.append("")
        lines.append("*** P ***")
        lines.append("")
        lines.extend(render_schema(s) for s in parsed.schemas)
    return "\n".join(lines) + "\n"


def merge_signature(files: Sequence[ParsedFile]) -> Signature:
    sorts: set[str] = set()
    constants: dict[str, str] = {}
    predicates: dict[str, tuple[str, ...]] = {}
    for f in files:
        for sort, consts in f.sorts.items():
            sorts.add(sort)
            for c in consts:
                if c in constants and constants[c] != sort:
                    raise KbSyntaxError(
                        f"{f.name}: constant {render_term(c)} declared with sorts "
                        f"{constants[c]} and {sort}"
                    )
                constants[c] = sort
        for pred, arg_sorts in f.predicates.items():
            if pred in predicates and predicates[pred] != arg_sorts:
                raise KbSyntaxError(
                    f"{f.name}: predicate {pred} declared with conflicting sorts"
                )
            predicates[pred] = arg_sorts
    return Signature(sorts, constants, predicates)


def build_kb(parsed: ParsedFile, sig: Signature) -> HybridKb:
    return HybridKb(
        sig,
        Ontology(tuple(parsed.axioms), tuple(parsed.assertions)),
        tuple(parsed.schemas),
    )


def parse_sequence(texts: Sequence[tuple[str, str]]) -> DynamicHybridKb:
    """Parse (name, text) pairs into a sequence over the merged vocabulary."""
    files = [parse_kb_text(text, name) for name, text in texts]
    sig = merge_signature(files)
    return DynamicHybridKb(sig, tuple(build_kb(f, sig) for f in files))


def load_sequence(paths: Sequence[str]) -> DynamicHybridKb:
    texts = []
    for path in paths:
        with open(path, "rb") as fh:
            texts.append((path, fh.read().decode("utf-8")))
    return parse_sequence(texts)


# ---------------------------------------------------------------------------
# queries

# A query is a conjunction of modal literals over ground atoms:
#   K Tomato(c1) & not LowRiskEUCommodity(c2) & K ~CompliantShpmt(s1)
# A bare literal is read as K.


def parse_query(text: str, sig: Signature) -> Sentence:
    toks = _Tokens(text, "<query>")
    parts: list[Sentence] = []
    while True:
        mode = "K"
        if toks.peek() in ("K", "not"):
            mode = toks.next()
        negated = False
        if toks.peek() == "~":
            toks.next()
            negated = True
        pred = toks.next()
        if not _is_name(pred):
            raise toks.fail(f"expected a predicate name, found {pred!r}")
        args = _parse_args(toks) if toks.peek() == "(" else ()
        atom: Sentence = Atom(sig.atom(pred, tuple(_unquote(a) for a in args)))
        if negated:
            atom = Neg(atom)
        parts.append(Known(atom) if mode == "K" else NotKnown(atom))
        if toks.done():
            break
        toks.expect("&")
    return conj(parts)
