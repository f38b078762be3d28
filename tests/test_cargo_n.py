"""Cargo-N, the cargo corpus with its block patterns cloned N times, around
the walls the benchmark ladder measures: `models` answers up to the top rung
with every cloned acceptance verdict, and N = 4 `update` stops on its parts
budget, counting its 4,456,448 distinct results exactly, without a partial
answer."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from hybridmknf import dynamic_models, entails, load_sequence, parse_query
from hybridmknf.cli import main

from helpers import perfbench_module

cargo_n = perfbench_module("cargo_n")
perfbench_module("kbgen")
CRITERION_1 = perfbench_module("workloads").CRITERION_1


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


def test_cargo_4_update_stops_on_the_parts_budget(tmp_path):
    base, update = cargo_n.write_cargo(4, str(tmp_path))
    rc, payload = _cli(["update", base, update])
    assert rc == 2
    assert payload == {"error": payload["error"]}
    assert payload["error"]["type"] == "ResourceLimit"
    assert payload["error"]["message"] == (
        "update produced too many distinct results: at least 4456448, "
        "more than EngineLimits.max_parts = 2097152"
    )
