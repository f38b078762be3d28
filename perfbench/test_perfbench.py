"""Checks of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random

import pytest

import cargo_n
import kbgen
import run
import workloads
from hybridmknf import dynamic_models, dynmknf, entails, load_sequence, parse_query
from tracer import Tracer, _TARGETS


def test_cargo_3_is_the_corpus_byte_for_byte():
    base, update = cargo_n.cargo_texts(3)
    with open(cargo_n.BASE, encoding="utf-8") as fh:
        assert base == fh.read()
    with open(cargo_n.UPDATE, encoding="utf-8") as fh:
        assert update == fh.read()


def test_cargo_n_clones_blocks_by_pattern(tmp_path):
    base, update = cargo_n.write_cargo(4, str(tmp_path))
    dkb = load_sequence([base, update])
    assert len(dkb.sig.atoms) == 196
    text = open(base, encoding="utf-8").read()
    # k = 4 has pattern 1: a suspected importer with bulk cherry tomatoes
    assert "SuspectedBadGuy(i4)." in text and "CherryTomato(c4)." in text
    assert "GrapeTomato(c4)." in open(update, encoding="utf-8").read()
    queries = cargo_n.clone_queries(workloads.CRITERION_1, 4)
    assert len(queries) == 14 and "K CompliantShpmt(s4)" in queries


def test_cargo_4_models_meet_the_cloned_verdicts(tmp_path):
    base, _ = cargo_n.write_cargo(4, str(tmp_path))
    dkb = load_sequence([base])
    models = dynamic_models(dkb)
    assert len(models) == 1
    for q in cargo_n.clone_queries(workloads.CRITERION_1, 4):
        assert entails(models, parse_query(q, dkb.sig)), q


def test_generated_inputs_agree_with_the_engine(tmp_path):
    rng = random.Random(7)
    cases = [kbgen.static_kb(rng, f"kb {i}", 3, mixed4=i < 2) for i in range(6)]
    cases += [kbgen.sequence(rng, f"seq {i}", 3) for i in range(6)]
    cases += list(kbgen.program_sequence(rng, "prog", 8, 3))
    for i, case in enumerate(cases):
        job = workloads._case_job("models", case, str(tmp_path), f"c{i}")
        dkb = load_sequence(job.paths)
        models = dynamic_models(dkb)
        assert job.wrong_models(models, dkb.sig) is None, case.label
        for text, expected in case.queries:
            assert entails(models, parse_query(text, dkb.sig)) == expected


def test_known_wrong_queries_leave_the_cycle_only(tmp_path):
    asked = [q for job in workloads.cargo(random.Random(1), str(tmp_path)) for q, _ in job.queries]
    known = [q for job in workloads.known_wrong("cargo") for q, _ in job.queries]
    assert known == workloads.KNOWN_WRONG["cargo"]
    assert set(known) <= set(workloads.CRITERION_2)
    assert sorted(set(asked)) == sorted(set(workloads.CRITERION_1 + workloads.CRITERION_2) - set(known))
    assert workloads.known_wrong("programs") == []


def test_tracer_names_a_missing_function(monkeypatch):
    monkeypatch.delattr(dynmknf, "reduce_stage")
    with pytest.raises(RuntimeError, match=r"dynmknf\.reduce_stage"):
        Tracer().install()


def test_tracer_restores_every_binding():
    before = [vars(owner)[attr] for owner, attr, _, _ in _TARGETS]
    tracer = Tracer()
    tracer.install()
    assert all(vars(o)[a] is not f for (o, a, _, _), f in zip(_TARGETS, before))
    tracer.uninstall()
    assert all(vars(o)[a] is f for (o, a, _, _), f in zip(_TARGETS, before))


def test_traced_solve_counts_layers():
    tracer = Tracer()
    load, solve, _ = tracer.entry_points()
    tracer.install()
    try:
        models = solve(load([cargo_n.BASE, cargo_n.UPDATE]))
    finally:
        tracer.uninstall()
    assert len(models) == 1
    assert tracer.calls["winslett.update"] > 0
    assert tracer.counts["interp.largest_component_parts"] == 18432
    assert tracer.counts["parser.ground_atoms"] == 137


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, 90.0)
    assert run.tail(xs[:12]) == (11.0, 100.0)


def test_benchmark_metrics_are_all_produced():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(spec["workloads"])
    assert [m["name"] for m in bench["end_to_end"]] == list(spec["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])
    produced = set(run._TIME_SPANS) | set(run._CALL_SPANS) | set(run._COUNTS) | {
        "interp.entail_s", "interp.largest_component_parts",
        "rules.stable_per_candidate", "trace.overhead", "trace.coverage",
    }
    assert set(spec["per_layer"]) | set(spec["printed_per_layer"]) == produced


def test_expected_spans_are_traced_spans():
    import tracer

    spans = {name for _, _, name, _ in _TARGETS} | {tracer.LOAD, tracer.SOLVE, tracer.ENTAIL}
    assert list(run.EXPECTED_SPANS) == list(run.WORKLOAD_NAMES) == list(run.COVERAGE_FLOOR)
    for names in run.EXPECTED_SPANS.values():
        assert set(names) <= spans
    assert set(run._OUTER_SPANS) <= spans


def test_trace_faults_name_an_idle_span_and_low_coverage():
    tracer = Tracer()
    tracer.calls.update({name: 1 for name in run.EXPECTED_SPANS["cargo"]})
    assert run.trace_faults("cargo", {"trace.coverage": 0.99}, tracer) == []
    tracer.calls["winslett.update"] = 0
    faults = run.trace_faults("cargo", {"trace.coverage": 0.5}, tracer)
    assert faults[0] == "span winslett.update has no calls on cargo"
    assert faults[1].startswith("trace coverage 0.500 is below")
