"""Layer-wise model computation for knowledge base sequences.

Each layer of a plan is solved per branch of choices made in the layers
below it.  Ontology-like layers update classical theories stage by stage
and contribute one solution set; rule-like layers contribute one branch per
stable model of the combined stage programs.  The final sets are the
intersections across layers that also satisfy the newest stage in full.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EmptyUpdate, MixedLayer, NotUpdateEnabling, ResourceLimit
from .interp import (
    Atom,
    Component,
    DEFAULT_LIMITS,
    EngineLimits,
    Known,
    ModelSet,
    Sentence,
    component_from_models,
    conj,
    model_sets_equal,
    satisfies,
)
from .kbmodel import DynamicHybridKb, HybridKb, modal_rule, single_stage
from .rules import dynamic_stable_models
from .splitting import (
    MIXED_LAYER,
    ONTOLOGY_LAYER,
    RULE_LAYER,
    LayerPlan,
    layer_kind,
    reduce_stage,
    slice_stage,
    suggest_plan,
)
from .winslett import sequence_update_model

_DIRECT_LAYER_ATOMS = 4


def layer_kinds(dkb: DynamicHybridKb, plan: LayerPlan) -> list[str]:
    """Character of each layer across all stages; ontology wins ties."""
    return [
        layer_kind([slice_stage(kb, lo, hi) for kb in dkb.stages], lo)
        for lo, hi in plan.slices()
    ]


def is_update_enabling(dkb: DynamicHybridKb, plan: LayerPlan) -> bool:
    plan.validate(dkb)
    return MIXED_LAYER not in layer_kinds(dkb, plan)


def _direct_layer_models(
    sentences: Sequence[Sentence], scope: Sequence[int]
) -> list[Component]:
    from .oracle import brute_mknf_models

    atoms = tuple(sorted(scope))
    return [
        component_from_models(atoms, model)
        for model in brute_mknf_models(sentences, atoms)
    ]


def dynamic_models(
    dkb: DynamicHybridKb,
    plan: LayerPlan | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[ModelSet]:
    """All models of the sequence under a layer plan.

    With a single stage this computes the models of that base alone.  Layers
    that mix ontology and rule content are only solved directly when they are
    tiny and the sequence has one stage; otherwise they raise MixedLayer or,
    for longer sequences, NotUpdateEnabling.
    """
    if plan is None:
        plan = suggest_plan(dkb)
    plan.validate(dkb)
    sig = dkb.sig
    n_stages = len(dkb.stages)
    branches: list[list[Component]] = [[]]
    for layer_idx, (lo, hi) in enumerate(plan.slices()):
        scope = sig.atoms_of_preds(hi - lo)
        slices = [slice_stage(kb, lo, hi) for kb in dkb.stages]
        kind = layer_kind(slices, lo)
        if kind == MIXED_LAYER and n_stages > 1:
            raise NotUpdateEnabling(
                f"layer {layer_idx} is neither ontology-like nor rule-like "
                "across all stages"
            )
        if kind == MIXED_LAYER and len(scope) > _DIRECT_LAYER_ATOMS:
            raise MixedLayer(
                f"layer {layer_idx} mixes ontology and rule content over "
                f"{len(scope)} atoms, too many to solve directly"
            )

        new_branches: list[list[Component]] = []
        for comps in branches:
            prefix = ModelSet(tuple(comps))
            reduced = [reduce_stage(s, lo, prefix, limits) for s in slices]
            if kind == ONTOLOGY_LAYER:
                theories = []
                for sentences, layer_rules in reduced:
                    facts: list[Sentence] = []
                    for rule in layer_rules:
                        # reduction leaves bare facts in an ontology layer
                        assert rule.head[0] and not rule.body
                        facts.append(Atom(rule.head[1]))
                    theories.append(list(sentences) + facts)
                try:
                    x = sequence_update_model(theories, limits)
                except EmptyUpdate:
                    if n_stages == 1:
                        continue
                    raise
                new_branches.append(comps + list(x.components))
            elif kind == RULE_LAYER:
                programs = [layer_rules for _, layer_rules in reduced]
                for stable in dynamic_stable_models(programs, scope, limits):
                    # the atoms known true, as one component whose single
                    # part sets them all; the rest of the scope stays free
                    extra = []
                    if stable:
                        atoms = tuple(sorted(stable))
                        extra = [Component(atoms, [(1 << len(atoms)) - 1])]
                    new_branches.append(comps + extra)
            else:
                sentences, layer_rules = reduced[0]
                modal = [Known(s) for s in sentences]
                modal.extend(modal_rule(r) for r in layer_rules)
                for comp in _direct_layer_models(modal, sorted(scope)):
                    new_branches.append(comps + [comp])
        if len(new_branches) > limits.max_branches:
            raise ResourceLimit(
                f"layer {layer_idx} split into more than "
                f"{limits.max_branches} branches: {len(new_branches)} branches, "
                f"more than EngineLimits.max_branches = {limits.max_branches}"
            )
        branches = new_branches

    # the newest base read as one conjunction, checked with one call per
    # branch; its first false sentence ends the check
    newest = conj(dkb.newest().modal_sentences())
    out: list[ModelSet] = []
    for comps in branches:
        m = ModelSet(tuple(comps))
        if satisfies(m, newest, limits):
            if not any(model_sets_equal(m, seen) for seen in out):
                out.append(m)
    return out


def static_models(
    kb: HybridKb,
    plan: LayerPlan | None = None,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> list[ModelSet]:
    """Models of a single knowledge base via a one-stage sequence."""
    return dynamic_models(single_stage(kb), plan, limits)


def entails(
    models: Sequence[ModelSet],
    query: Sentence,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> bool:
    """Whether every model satisfies the query; vacuously true without models."""
    return all(satisfies(m, query, limits) for m in models)
