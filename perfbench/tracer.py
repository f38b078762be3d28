"""Outside-in layer trace: spans around the engine's public functions.

The tracer rebinds functions in the namespace of the module that calls
them (``dynmknf.reduce_stage``, ``splitting.holds_known``, ...) and methods on
their classes, so no engine file is edited.  Each wrapper records a span;
a span's self time is its duration minus the time of the spans it encloses.
Counts are read from the arguments and results at the same boundaries.

If a function the tracer expects is gone (renamed or inlined), installing
fails and names it: a layer that vanished must not read as zero.
"""

from __future__ import annotations

import time
from collections import defaultdict

import hybridmknf
from hybridmknf import dynmknf, kbmodel, oracle, splitting, winslett

SOLVE = "dynmknf"
ENTAIL = "interp.entail"
LOAD = "parser.load"


def _parts(m) -> int:
    return sum(len(c.parts) for c in m.components)


def _count_update(c, args, result) -> None:
    c["winslett.update_calls"] += 1
    c["winslett.parts_in"] += _parts(args[0])
    c["winslett.parts_out"] += _parts(result)


def _count_search(c, args, result) -> None:
    programs, scope = args[0], args[1]
    heads = {r.head[1] for prog in programs for r in prog if r.head[0]}
    k = len(heads & scope)
    c["rules.candidate_atoms"] += k
    c["rules.candidates"] += 1 << k
    c["rules.stable_models"] += len(result)
    c["dynmknf.branches"] += len(result)


def _count_fold(c, args, result) -> None:
    c["dynmknf.branches"] += 1


def _count_mixed(c, args, result) -> None:
    c["dynmknf.branches"] += len(result)


def _count_rules(c, args, result) -> None:
    c["kbmodel.rule_instances"] += len(result)


def _count_layers(c, args, result) -> None:
    c["splitting.layers"] += len(args[0])


def _count_load(c, args, result) -> None:
    c["parser.ground_atoms"] += len(result.sig.atoms)


def _count_solve(c, args, result) -> None:
    for m in result:
        for comp in m.components:
            c["interp.largest_component_parts"] = max(
                c["interp.largest_component_parts"], len(comp.parts)
            )


# Layer spans: (owner of the binding, attribute, span name, counter).  The
# owner is the module that looks the name up at call time, or the class of a
# method.
_TARGETS = [
    (dynmknf, "suggest_plan", "splitting.plan", None),
    (splitting.LayerPlan, "validate", "splitting.plan", _count_layers),
    (dynmknf, "slice_stage", "splitting.slice", None),
    (dynmknf, "reduce_stage", "splitting.reduce", None),
    (splitting, "holds_known", "interp.reduce_query", None),
    (splitting, "holds_not", "interp.reduce_query", None),
    (kbmodel.HybridKb, "ground_rules", "kbmodel.ground", _count_rules),
    (kbmodel.Ontology, "ground", "kbmodel.ground", None),
    (dynmknf, "satisfies", "interp.newest_check", None),
    (dynmknf, "model_sets_equal", "interp.dedup", None),
    (dynmknf, "sequence_update_model", "winslett.update", _count_fold),
    (winslett, "update_with_theory", "winslett.update", _count_update),
    (dynmknf, "dynamic_stable_models", "rules.search", _count_search),
    # dynmknf imports this one from .oracle at call time
    (oracle, "brute_mknf_models", "oracle.mixed", _count_mixed),
]

# Spans only taken when the nearest enclosing span is the solve itself:
# satisfies also runs under entails, and brute_mknf_models also computes
# the benchmark's own references.
_SOLVE_ONLY = {"interp.newest_check", "oracle.mixed"}


class Tracer:
    """Span stack with per-span self time, call counts and layer counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, enclosed child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        solve_only = name in _SOLVE_ONLY

        def traced(*args, **kwargs):
            if solve_only and (not stack or stack[-1][0] != SOLVE):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target; fail naming any that no longer exists."""
        missing = [
            f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in _TARGETS
            if attr not in vars(owner)
        ]
        if missing:
            raise RuntimeError("traced functions not found: " + ", ".join(missing))
        for owner, attr, name, counter in _TARGETS:
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def entry_points(self):
        """Traced load_sequence, dynamic_models and entails."""
        return (
            self._wrap(LOAD, hybridmknf.load_sequence, _count_load),
            self._wrap(SOLVE, hybridmknf.dynamic_models, _count_solve),
            self._wrap(ENTAIL, hybridmknf.entails, None),
        )
