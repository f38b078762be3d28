"""Cargo-N, the cargo corpus with its block patterns cloned N times, around
the walls the benchmark ladder measures: `models` answers up to the top rung
with every cloned acceptance verdict, and `update` answers for N = 4 to 8
with up to 300,948,541,499,406,024,704 distinct results held as a union of
factored products.  Each factor keeps its own bits, so the widest groups
(78 atoms at N = 7, 96 at N = 8) are wider than one 62-bit mask, while no
factor is."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from hybridmknf import dynamic_models, dynmknf, entails, load_sequence, parse_query
from hybridmknf.cli import main
from hybridmknf.interp import DEFAULT_LIMITS, holds_known

from helpers import perfbench_module

cargo_n = perfbench_module("cargo_n")
perfbench_module("kbgen")
workloads = perfbench_module("workloads")
CRITERION_1, CRITERION_2 = workloads.CRITERION_1, workloads.CRITERION_2
KNOWN_WRONG = workloads.KNOWN_WRONG


def _cli(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, json.loads(out.getvalue())


@pytest.mark.parametrize("n", [5, 8])
def test_cargo_n_models_hold_every_cloned_verdict(n, tmp_path):
    base, _ = cargo_n.write_cargo(n, str(tmp_path))
    dkb = load_sequence([base])
    models = dynamic_models(dkb)
    assert len(models) == 1
    queries = cargo_n.clone_queries(CRITERION_1, n)
    assert len(queries) > len(CRITERION_1)
    wrong = [q for q in queries if not entails(models, parse_query(q, dkb.sig))]
    assert not wrong


def test_cargo_8_models_cli_exits_0(tmp_path):
    base, _ = cargo_n.write_cargo(8, str(tmp_path))
    rc, payload = _cli(["models", base])
    assert rc == 0
    assert payload["count"] == 1


# atoms and distinct results of the widest cargo-N update group
_WIDEST_UPDATE = {
    4: (36, 4_456_448),
    5: (48, 4_429_185_024),
    6: (62, 593_779_228_672),
    7: (78, 4_681_720_511_070_208),
    8: (96, 300_948_541_499_406_024_704),
}


@pytest.mark.parametrize("n", sorted(_WIDEST_UPDATE))
def test_cargo_n_update_answers(n, tmp_path, monkeypatch):
    base, update = cargo_n.write_cargo(n, str(tmp_path))
    rc, payload = _cli(["update", base, update])
    assert rc == 0 and payload["count"] == 1
    (model,) = payload["models"]
    widest = max(model["components"], key=lambda c: c["part_count"])
    assert (len(widest["atoms"]), widest["part_count"]) == _WIDEST_UPDATE[n]
    assert "parts" not in widest

    layers = []
    real = dynmknf.sequence_update_model

    def capture(theories, limits=DEFAULT_LIMITS):
        result = real(theories, limits)
        layers.append((theories[-1], result))
        return result

    monkeypatch.setattr(dynmknf, "sequence_update_model", capture)
    dkb = load_sequence([base, update])
    models = dynamic_models(dkb)
    known_wrong = set(cargo_n.clone_queries(KNOWN_WRONG["cargo"], n))
    queries = cargo_n.clone_queries(CRITERION_2, n)
    assert known_wrong < set(queries)
    if n >= 6:
        assert known_wrong == {"not PartialInspection(s3)", "not PartialInspection(s6)"}
    wrong = {q for q in queries if not entails(models, parse_query(q, dkb.sig))}
    assert wrong == known_wrong
    # U1: each ontology layer's result is a model of its newest theory
    assert layers and any(newest for newest, _ in layers)
    for newest, result in layers:
        for s in newest:
            assert holds_known(result, s), s

