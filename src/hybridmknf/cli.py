"""Command line driver: parse .kb files, solve, answer in JSON.

Commands take one or more knowledge base files; passing several treats them
as a sequence of versions, oldest first.  Output is deterministic JSON on
stdout.  Exit status is 0 for a positive answer, 1 for a semantically
negative one (no model, entailment fails, not updatable), 2 for usage,
parse or resource problems.  Set HYBRIDMKNF_LOG=debug for timing chatter
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from typing import Sequence

from .dynmknf import (
    _DIRECT_LAYER_ATOMS,
    dynamic_models,
    entails,
    is_update_enabling,
    layer_kinds,
)
from .errors import (
    EmptyIntersection,
    EmptyUpdate,
    HybridMknfError,
    MixedLayer,
    NotUpdatable,
    NotUpdateEnabling,
)
from .interp import (
    DEFAULT_LIMITS,
    EngineLimits,
    ModelSet,
    Signature,
    denotation,
    model_sets_equal,
)
from .kbmodel import Axiom, DynamicHybridKb
from .parser import (
    load_sequence,
    parse_query,
    render_axiom,
    render_schema,
    render_term,
)
from .splitting import MIXED_LAYER, LayerPlan, split_check, suggest_plan

log = logging.getLogger("hybridmknf")

_PART_LISTING_CAP = 64

# answers below are "semantically negative": valid runs with a no answer
_SEMANTIC_ERRORS = (
    EmptyUpdate,
    EmptyIntersection,
    MixedLayer,
    NotUpdatable,
    NotUpdateEnabling,
)


def _atom_name(sig: Signature, index: int) -> str:
    atom = sig.atoms[index]
    if not atom.args:
        return atom.pred
    return "%s(%s)" % (atom.pred, ", ".join(render_term(a) for a in atom.args))


def _model_json(m: ModelSet, sig: Signature) -> dict:
    components = []
    known_true: list[str] = []
    for comp in m.components:
        names = [_atom_name(sig, a) for a in comp.atoms]
        entry: dict = {"atoms": names}
        if comp.part_count <= _PART_LISTING_CAP:
            entry["parts"] = sorted(
                sorted(n for i, n in enumerate(names) if part >> i & 1)
                for part in comp.parts.tolist()
            )
        entry["part_count"] = comp.part_count
        components.append(entry)
        known_true.extend(n for i, n in enumerate(names) if comp.fixed_true >> i & 1)
    return {
        "components": components,
        "known_true": sorted(known_true),
        "free_atom_count": len(sig.atoms) - len(m.atom_owner),
    }


def _load(paths: Sequence[str]) -> DynamicHybridKb:
    t0 = time.perf_counter()
    dkb = load_sequence(paths)
    log.debug(
        "parsed %d file(s), %d ground atoms in %.3fs",
        len(paths),
        len(dkb.sig.atoms),
        time.perf_counter() - t0,
    )
    return dkb


def _load_plan(path: str | None, dkb: DynamicHybridKb) -> LayerPlan | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        plan = LayerPlan.from_json(json.load(fh))
    plan.validate(dkb)
    return plan


def _limits(args: argparse.Namespace) -> EngineLimits:
    limits = DEFAULT_LIMITS
    if args.max_component_atoms is not None:
        limits = dataclasses.replace(
            limits, max_component_atoms=args.max_component_atoms
        )
    if args.max_branches is not None:
        limits = dataclasses.replace(limits, max_branches=args.max_branches)
    return limits


def _cross_check(
    dkb: DynamicHybridKb,
    plan: LayerPlan | None,
    limits: EngineLimits,
    models: list[ModelSet],
) -> dict:
    """Re-derive the answer along an independent route when one exists."""
    checks: list[dict] = []
    if len(dkb.stages) == 1 and len(dkb.sig.atoms) <= _DIRECT_LAYER_ATOMS:
        from .oracle import brute_mknf_models

        atoms = tuple(range(len(dkb.sig.atoms)))
        expected = {
            frozenset(model)
            for model in brute_mknf_models(
                dkb.stages[0].modal_sentences(), atoms
            )
        }
        got = {frozenset(denotation(m, atoms)) for m in models}
        checks.append({"method": "exhaustive", "agrees": got == expected})
    if plan is not None:
        other = suggest_plan(dkb)
        if tuple(other.cumulative) != tuple(plan.cumulative):
            redone = dynamic_models(dkb, other, limits)
            agrees = len(redone) == len(models) and all(
                any(model_sets_equal(a, b) for b in redone) for a in models
            )
            checks.append({"method": "alternate-plan", "agrees": agrees})
    if not checks:
        return {"checked": False}
    return {"checked": True, "agrees": all(c["agrees"] for c in checks),
            "methods": [c["method"] for c in checks]}


def _solve_command(args: argparse.Namespace) -> tuple[dict, int]:
    dkb = _load(args.files)
    plan = _load_plan(args.sequence, dkb)
    limits = _limits(args)
    query = None if args.query is None else parse_query(args.query, dkb.sig)
    t0 = time.perf_counter()
    models = dynamic_models(dkb, plan, limits)
    log.debug("solved %d model(s) in %.3fs", len(models), time.perf_counter() - t0)
    payload: dict = {
        "count": len(models),
        "models": [_model_json(m, dkb.sig) for m in models],
    }
    ok = bool(models)
    if query is not None:
        ok = entails(models, query, limits) if models else False
        payload["holds"] = ok
    if args.oracle:
        payload["oracle"] = _cross_check(dkb, plan, limits, models)
        if payload["oracle"].get("agrees") is False:
            ok = False
    return payload, 0 if ok else 1


def _entail_command(args: argparse.Namespace) -> tuple[dict, int]:
    dkb = _load(args.files)
    plan = _load_plan(args.sequence, dkb)
    limits = _limits(args)
    query = parse_query(args.query, dkb.sig)
    models = dynamic_models(dkb, plan, limits)
    if not models:
        return {"holds": False, "reason": "no model"}, 1
    ok = entails(models, query, limits)
    payload: dict = {"holds": ok}
    if args.oracle:
        payload["oracle"] = _cross_check(dkb, plan, limits, models)
        if payload["oracle"].get("agrees") is False:
            ok = False
    return payload, 0 if ok else 1


def _split_sets(args: argparse.Namespace, dkb: DynamicHybridKb) -> list[frozenset[str]]:
    if args.set is not None:
        names = [n.strip() for n in args.set.split(",") if n.strip()]
        for name in names:
            if name not in dkb.sig.predicates:
                raise HybridMknfError(f"undeclared predicate {name} in --set")
        return [frozenset(names)]
    return list(suggest_plan(dkb).cumulative)


def _render_statement(stmt) -> str:
    if isinstance(stmt, Axiom):
        return render_axiom(stmt)
    return render_schema(stmt)


def _split_command(args: argparse.Namespace) -> tuple[dict, int]:
    dkb = _load(args.files)
    sets = _split_sets(args, dkb)
    out = []
    all_ok = True
    for preds in sets:
        violations = []
        for stage, kb in enumerate(dkb.stages):
            for stmt, (inside, outside) in split_check(kb, preds).violations:
                violations.append(
                    {
                        "stage": stage,
                        "statement": _render_statement(stmt),
                        "inside": inside,
                        "outside": outside,
                    }
                )
        ok = not violations
        all_ok = all_ok and ok
        out.append(
            {
                "predicates": sorted(preds),
                "splitting": ok,
                "violations": violations,
            }
        )
    return {"sets": out}, 0 if all_ok else 1


def _layers_command(args: argparse.Namespace) -> tuple[dict, int]:
    dkb = _load(args.files)
    plan = _load_plan(args.sequence, dkb)
    if plan is None:
        plan = suggest_plan(dkb)
        plan.validate(dkb)
    kinds = layer_kinds(dkb, plan)
    layers = []
    lo: frozenset[str] = frozenset()
    for hi, kind in zip(plan.cumulative, kinds):
        layers.append({"predicates": sorted(hi - lo), "kind": kind})
        lo = hi
    enabling = MIXED_LAYER not in kinds
    return {"layers": layers, "update_enabling": enabling}, 0 if enabling else 1


def _check_updatable_command(args: argparse.Namespace) -> tuple[dict, int]:
    dkb = _load(args.files)
    plan = _load_plan(args.sequence, dkb)
    try:
        if plan is None:
            plan = suggest_plan(dkb)
        updatable = is_update_enabling(dkb, plan)
    except (NotUpdatable, ValueError) as err:
        return {"updatable": False, "reason": str(err)}, 1
    payload = {"updatable": updatable, "layers": len(plan)}
    return payload, 0 if updatable else 1


def _positive_int(text: str) -> int:
    """A budget flag's value: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors also answer with a JSON error
    object; argparse then prints its usage on stderr and exits 2."""

    def error(self, message: str):
        _emit({"error": {"type": "UsageError", "message": message}})
        super().error(message)


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="hybridmknf",
        description="Model computation and updates for hybrid MKNF knowledge bases.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(
        name: str, help_text: str, *, plan: bool = True, budgets: bool = True
    ) -> argparse.ArgumentParser:
        """A subcommand taking KB files, with the plan and budget flags that
        its handler reads."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("files", nargs="+", metavar="KB", help=".kb file(s)")
        if plan:
            p.add_argument(
                "--sequence",
                metavar="PLAN.json",
                help="explicit layer plan: JSON list of cumulative "
                "predicate name lists",
            )
        if budgets:
            p.add_argument(
                "--max-component-atoms", type=_positive_int, metavar="N",
                help="per-block enumeration budget",
            )
            p.add_argument(
                "--max-branches", type=_positive_int, metavar="N",
                help="cap on solution branches across layers",
            )
        return p

    p = add("models", "compute the models of a knowledge base")
    p.add_argument("--query", help="also report whether all models entail this")
    p.add_argument("--oracle", action="store_true", help="cross-check the result")

    p = add("update", "compute the models of a version sequence")
    p.add_argument("--query", help="also report whether all models entail this")
    p.add_argument("--oracle", action="store_true", help="cross-check the result")

    p = add("entail", "decide a single entailment question")
    p.add_argument("--query", required=True, help="modal query, e.g. 'K P(a) & not Q(b)'")
    p.add_argument("--oracle", action="store_true", help="cross-check the result")

    p = add(
        "split", "check predicate sets for the splitting conditions",
        plan=False, budgets=False,
    )
    p.add_argument("--set", metavar="P1,P2,...", help="comma separated predicate names")

    add("layers", "classify the layers of a plan", budgets=False)
    add(
        "check-updatable", "report whether a version sequence can be updated",
        budgets=False,
    )

    return ap


_COMMANDS = {
    "models": _solve_command,
    "update": _solve_command,
    "entail": _entail_command,
    "split": _split_command,
    "layers": _layers_command,
    "check-updatable": _check_updatable_command,
}


def _configure_logging() -> None:
    level_name = os.environ.get("HYBRIDMKNF_LOG", "").strip().lower()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _emit(payload: dict) -> None:
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "models" and len(args.files) != 1:
        parser.error("models takes a single file; use update for sequences")
    try:
        payload, status = _COMMANDS[args.command](args)
    except _SEMANTIC_ERRORS as err:
        _emit({"error": {"type": type(err).__name__, "message": str(err)}})
        return 1
    except (HybridMknfError, ValueError, OSError, RecursionError) as err:
        _emit({"error": {"type": type(err).__name__, "message": str(err)}})
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
