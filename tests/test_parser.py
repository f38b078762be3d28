"""Text format: parsing, validation, queries, and the pretty printer
round trip."""

from __future__ import annotations

import pytest

from hybridmknf.errors import KbSyntaxError, UndeclaredSymbol
from hybridmknf.interp import Atom, Conj, Known, Neg, NotKnown
from hybridmknf.kbmodel import AndConcept, ExistsConcept, Nominal, NotConcept
from hybridmknf.parser import (
    build_kb,
    load_sequence,
    merge_signature,
    parse_kb_text,
    parse_query,
    parse_sequence,
    render_document,
    render_term,
)

CARGO = "corpus/cargo.kb"
CARGO_UPD = "corpus/cargo_update.kb"

DEMO = """# demo base
sort obj: a, b
sort charge: '$0', 'x y#z'
pred P(obj)
pred Q(obj)
pred R(obj, charge)
pred Flag

*** O ***
P [= Q.
P == exists R.{'$0'} & ~Q
~Q(b)
P(a)

*** P ***
Q(X) :- P(X), not not Q(X), not P(X).
Flag :- not Flag.
"""


def parse_demo():
    pf = parse_kb_text(DEMO, "demo.kb")
    sig = merge_signature([pf])
    return pf, sig, build_kb(pf, sig)


def test_declarations():
    _, sig, _ = parse_demo()
    assert set(sig.sorts) == {"obj", "charge"}
    # quotes mark constants in the text but are not part of the name
    assert sig.constants["$0"] == "charge"
    assert sig.constants["x y#z"] == "charge"
    assert sig.predicates["Flag"] == ()
    assert sig.predicates["R"] == ("obj", "charge")


def test_statement_counts_and_shapes():
    _, _, kb = parse_demo()
    assert len(kb.ontology.axioms) == 2
    assert len(kb.ontology.assertions) == 2
    assert len(kb.program) == 2
    eq = kb.ontology.axioms[1]
    assert eq.two_way
    assert isinstance(eq.right, AndConcept)
    exists, neg = eq.right.subs
    assert isinstance(exists, ExistsConcept)
    assert isinstance(exists.filler, Nominal)
    assert isinstance(neg, NotConcept)
    assert not kb.ontology.assertions[0].positive


def test_double_negation_absorbed():
    _, _, kb = parse_demo()
    body = [(lit.positive, lit.atom.pred) for lit in kb.program[0].body]
    assert body == [(True, "P"), (True, "Q"), (False, "P")]


def test_trailing_dot_optional():
    with_dot = parse_kb_text("sort s: a\npred P(s)\n*** O ***\nP(a).\n", "x")
    without = parse_kb_text("sort s: a\npred P(s)\n*** O ***\nP(a)\n", "x")
    assert with_dot.assertions == without.assertions


def test_comments_and_quoted_hash():
    pf = parse_kb_text(
        "sort s: 'a#b'  # trailing comment\npred P(s)\n*** O ***\nP('a#b')\n", "x"
    )
    assert pf.assertions[0].args == ("a#b",)


def test_render_term_quoting():
    assert render_term("plain_name") == "plain_name"
    assert render_term("$0") == "'$0'"


def test_render_round_trip_demo():
    pf, _, _ = parse_demo()
    doc = render_document(pf)
    again = parse_kb_text(doc, "again")
    assert (again.axioms, again.assertions, again.schemas) == (
        pf.axioms,
        pf.assertions,
        pf.schemas,
    )
    assert render_document(again) == doc


def test_render_round_trip_corpus():
    for path in (CARGO, CARGO_UPD):
        pf = parse_kb_text(open(path).read(), path)
        doc = render_document(pf)
        again = parse_kb_text(doc, path)
        assert (again.sorts, again.predicates) == (pf.sorts, pf.predicates)
        assert (again.axioms, again.assertions, again.schemas) == (
            pf.axioms,
            pf.assertions,
            pf.schemas,
        )
        assert render_document(again) == doc


def test_syntax_errors_carry_location():
    with pytest.raises(KbSyntaxError, match=r"bad\.kb:4"):
        parse_kb_text("sort s: a\npred P(s)\n*** O ***\nP [= \n", "bad.kb")
    with pytest.raises(KbSyntaxError):
        parse_kb_text("sort s: a\nwhatever here\n", "junk.kb")
    # a predicate over an undeclared sort fails at signature assembly
    with pytest.raises(UndeclaredSymbol):
        merge_signature([parse_kb_text("pred P(s)\n", "nosort.kb")])


def test_merge_conflicts():
    a = parse_kb_text("sort s: a\npred P(s)\n", "a.kb")
    b = parse_kb_text("sort t: a\npred Q(t)\n", "b.kb")
    with pytest.raises(KbSyntaxError, match="sorts s and t"):
        merge_signature([a, b])
    c = parse_kb_text("sort s: a\npred P(s)\n", "c.kb")
    d = parse_kb_text("sort s: b\npred P(s, s)\n", "d.kb")
    with pytest.raises(KbSyntaxError, match="conflicting"):
        merge_signature([c, d])


def test_merged_sequence_shares_signature():
    dkb = parse_sequence(
        [
            ("one.kb", "sort s: a\npred P(s)\n*** O ***\nP(a)\n"),
            ("two.kb", "sort s: b\npred Q(s)\n*** P ***\nQ(X) :- not P(X).\n"),
        ]
    )
    assert len(dkb.stages) == 2
    assert sorted(dkb.sig.constants) == ["a", "b"]
    assert sorted(dkb.sig.predicates) == ["P", "Q"]
    assert dkb.stages[0].sig is dkb.sig


def test_undeclared_predicate_surfaces_at_grounding():
    pf = parse_kb_text("sort s: a\npred P(s)\n*** O ***\nP [= Mystery\n", "m.kb")
    sig = merge_signature([pf])
    kb = build_kb(pf, sig)
    with pytest.raises(UndeclaredSymbol):
        kb.ontology_sentences()


def test_load_sequence_corpus():
    dkb = load_sequence([CARGO, CARGO_UPD])
    assert len(dkb.stages) == 2
    assert len(dkb.sig.predicates) == 30
    assert len(dkb.stages[0].program) == 12


def test_parse_query_forms():
    _, sig, _ = parse_demo()
    q1 = parse_query("K P(a)", sig)
    assert isinstance(q1, Known)
    q2 = parse_query("not Q(b)", sig)
    assert isinstance(q2, NotKnown)
    # a bare objective sentence is read as a knowledge query
    q3 = parse_query("P(a)", sig)
    assert isinstance(q3, Known)
    both = parse_query("K P(a) & not Q(b)", sig)
    assert both is not None


def test_parse_query_negated_literals():
    sig = load_sequence([CARGO]).sig
    s1 = Atom(sig.atom("CompliantShpmt", ("s1",)))
    c1 = Atom(sig.atom("LowRiskEUCommodity", ("c1",)))
    query = "K ~CompliantShpmt(s1) & not ~LowRiskEUCommodity(c1)"
    assert parse_query(query, sig) == Conj((Known(Neg(s1)), NotKnown(Neg(c1))))
    # a bare negated literal is read as a knowledge query too
    assert parse_query("~CompliantShpmt(s1)", sig) == Known(Neg(s1))


def test_parse_query_errors():
    _, sig, _ = parse_demo()
    with pytest.raises(KbSyntaxError):
        parse_query("", sig)
    with pytest.raises(KbSyntaxError):
        parse_query("K P(a) extra", sig)
    with pytest.raises(UndeclaredSymbol):
        parse_query("K Unknown(a)", sig)
