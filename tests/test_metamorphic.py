"""Metamorphic relations that need no reference answer, for inputs far past
the exhaustive oracles: renaming predicates and constants by an
order-reversing map, and reversing the statement order, changes no answer
once atom names are mapped back."""

from __future__ import annotations

from pathlib import Path

import pytest

from hybridmknf import dynamic_models, model_sets_equal, parse_kb_text, parse_sequence
from hybridmknf.interp import Component, ModelSet, lift_bits
from hybridmknf.kbmodel import (
    AndConcept,
    Assertion,
    Axiom,
    ConceptName,
    ExistsConcept,
    Nominal,
    NotConcept,
    RuleSchema,
    SchemaAtom,
    SchemaLiteral,
)
from hybridmknf.parser import ParsedFile, render_document

from helpers import perfbench_module

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
cargo_n = perfbench_module("cargo_n")


def _reversing(names: set[str], prefix: str) -> dict[str, str]:
    """Names mapped to new ones that sort in the opposite order."""
    ordered = sorted(names)
    return {n: f"{prefix}{len(ordered) - i:03d}" for i, n in enumerate(ordered)}


def _concept(c, pred: dict[str, str], const: dict[str, str]):
    if isinstance(c, ConceptName):
        return ConceptName(pred[c.pred])
    if isinstance(c, Nominal):
        return Nominal(const[c.constant])
    if isinstance(c, NotConcept):
        return NotConcept(_concept(c.sub, pred, const))
    if isinstance(c, AndConcept):
        return AndConcept(tuple(_concept(s, pred, const) for s in c.subs))
    if isinstance(c, ExistsConcept):
        return ExistsConcept(pred[c.role], _concept(c.filler, pred, const))
    return c  # top and bot


def _renamed(texts: list[str]) -> tuple[list[str], dict[str, str]]:
    """The texts with predicates and constants renamed by order-reversing
    maps and every declaration and statement list reversed, and the map
    from new names back to old ones."""
    files = [parse_kb_text(t) for t in texts]
    pred = _reversing({p for f in files for p in f.predicates}, "P")
    const = _reversing({c for f in files for cs in f.sorts.values() for c in cs}, "c")

    def literal(lit: SchemaLiteral) -> SchemaLiteral:
        args = tuple(const.get(t, t) for t in lit.atom.args)
        return SchemaLiteral(lit.positive, SchemaAtom(pred[lit.atom.pred], args))

    out = []
    for f in files:
        g = ParsedFile(f.name)
        g.sorts = {s: [const[c] for c in reversed(cs)] for s, cs in reversed(f.sorts.items())}
        g.predicates = {pred[p]: a for p, a in reversed(f.predicates.items())}
        g.axioms = [
            Axiom(_concept(a.left, pred, const), _concept(a.right, pred, const), a.two_way)
            for a in reversed(f.axioms)
        ]
        g.assertions = [
            Assertion(pred[a.pred], tuple(const[t] for t in a.args), a.positive)
            for a in reversed(f.assertions)
        ]
        g.schemas = [
            RuleSchema(literal(r.head), tuple(literal(b) for b in r.body))
            for r in reversed(f.schemas)
        ]
        out.append(render_document(g))
    back = {new: old for names in (pred, const) for old, new in names.items()}
    return out, back


def _mapped_back(m: ModelSet, renamed_sig, sig, back: dict[str, str]) -> ModelSet:
    """A model of the renamed input over the original atom indices."""
    comps = []
    for c in m.components:
        atoms = [renamed_sig.atoms[a] for a in c.atoms]
        index = [sig.atom(back[a.pred], [back[t] for t in a.args]) for a in atoms]
        order = sorted(index)
        comps.append(Component(tuple(order), lift_bits(c.parts, list(map(order.index, index)))))
    return ModelSet(tuple(comps))


def _known_true(m: ModelSet) -> set[int]:
    return {a for c in m.components for i, a in enumerate(c.atoms) if c.fixed_true >> i & 1}


def _hub_chains_kb() -> str:
    """Three disjunction chains of eight unary predicates, each with its
    first link or-ed with a hub predicate H, over two constants.  Each
    constant's 25 atoms exceed the default block size, so H becomes the
    separator; both of its values leave every chain a model."""
    preds = ["H"] + [f"{x}{i}" for x in "ABC" for i in range(1, 9)]
    lines = ["sort obj: k, m"] + [f"pred {p}(obj)" for p in preds] + ["", "*** O ***"]
    for x in "ABC":
        lines.append(f"~H [= {x}1.")
        lines.extend(f"~{x}{i} [= {x}{i + 1}." for i in range(1, 8))
    return "\n".join(lines) + "\n"


def _cases():
    cargo = (CORPUS / "cargo.kb").read_text()
    update = (CORPUS / "cargo_update.kb").read_text()
    return {
        "cargo models": [cargo],
        "cargo update": [cargo, update],
        "cargo-4 models": [cargo_n.cargo_texts(4)[0]],
        "free hub chains": [_hub_chains_kb()],
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_renaming_and_order_change_no_answer(name):
    texts = _cases()[name]
    dkb = parse_sequence([(f"kb{i}", t) for i, t in enumerate(texts)])
    renamed_texts, back = _renamed(texts)
    renamed = parse_sequence([(f"kb{i}", t) for i, t in enumerate(renamed_texts)])
    assert len(renamed.sig.atoms) == len(dkb.sig.atoms)
    assert renamed.sig.atoms != dkb.sig.atoms
    want = dynamic_models(dkb)
    got = [_mapped_back(m, renamed.sig, dkb.sig, back) for m in dynamic_models(renamed)]
    assert want and len(got) == len(want)
    if name == "free hub chains":
        # one union component per constant holds the hub and its chains
        for m in want + got:
            assert [len(c.atoms) for c in m.components] == [25, 25]
    unmatched = list(got)
    for m in want:
        match = next((g for g in unmatched if model_sets_equal(g, m)), None)
        assert match is not None, "a model has no renamed counterpart"
        unmatched.remove(match)
        assert _known_true(match) == _known_true(m)
        free = len(dkb.sig.atoms) - len(m.atom_owner)
        assert len(renamed.sig.atoms) - len(match.atom_owner) == free
