"""End-to-end checks of the command line driver: JSON payload shapes,
exit codes, and output determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from hybridmknf import cli, rules
from hybridmknf.cli import main
from hybridmknf.interp import DEFAULT_LIMITS

from helpers import perfbench_module

CARGO = "corpus/cargo.kb"
CARGO_UPDATE = "corpus/cargo_update.kb"
CARGO_PLAN = "corpus/cargo_plan.json"


def run(argv):
    """Invoke main() in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, _ = run(argv)
    return rc, json.loads(out)


@pytest.fixture(scope="module")
def kbdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_kbs")
    (d / "empty.kb").write_text("# nothing declared\n")
    (d / "tiny.kb").write_text(
        "sort obj: a\n"
        "pred P(obj)\n"
        "pred Q(obj)\n"
        "*** O ***\n"
        "P(a).\n"
        "*** P ***\n"
        "Q(X) :- P(X).\n"
    )
    (d / "unsat.kb").write_text(
        "sort obj: a\npred P(obj)\n*** O ***\nP(a).\n~P(a).\n"
    )
    (d / "clash.kb").write_text(
        "sort obj: a\npred P(obj)\n*** P ***\nP(a) :- not P(a).\n"
    )
    (d / "bad.kb").write_text("sort obj a\n")
    # one predicate carrying both an axiom and a default rule: no layer
    # sequence can separate them across two versions
    (d / "mixa.kb").write_text("sort obj: a\npred P(obj)\n*** O ***\ntop [= P .\n")
    (d / "mixb.kb").write_text(
        "sort obj: a\npred P(obj)\n*** P ***\nP(a) :- not P(a).\n"
    )
    # an even negative loop: two stable models
    (d / "even.kb").write_text(
        "sort obj: a\npred A(obj)\npred B(obj)\n*** P ***\n"
        "A(a) :- not B(a).\nB(a) :- not A(a).\n"
    )
    return d


def test_models_cargo_payload():
    rc, payload = run_json(["models", CARGO])
    assert rc == 0
    assert payload["count"] == 1
    (model,) = payload["models"]
    assert set(model) == {"components", "known_true", "free_atom_count"}
    for comp in model["components"]:
        # parts are listed only while small enough to stay readable
        if "parts" in comp:
            assert comp["part_count"] == len(comp["parts"]) <= 64
        else:
            assert comp["part_count"] > 64
        assert set(comp) <= {"atoms", "parts", "part_count"}
    known = set(model["known_true"])
    assert {
        "CompliantShpmt(s1)",
        "CompliantShpmt(s2)",
        "CompliantShpmt(s3)",
        "AdmissibleImporter(i2)",
        "PartialInspection(s1)",
        "LowRiskEUCommodity(c2)",
    } <= known
    assert "AdmissibleImporter(i1)" not in known
    assert len(known) == 64


def test_update_with_query():
    rc, payload = run_json(
        ["update", CARGO, CARGO_UPDATE, "--query", "K FullInspection(s1)"]
    )
    assert rc == 0
    assert payload["count"] == 1
    assert payload["holds"] is True


def test_entail_yes_and_no():
    rc, payload = run_json(["entail", CARGO, "--query", "K CompliantShpmt(s1)"])
    assert rc == 0 and payload == {"holds": True}
    rc, payload = run_json(["entail", CARGO, "--query", "K AdmissibleImporter(i1)"])
    assert rc == 1 and payload == {"holds": False}


def test_entail_without_models(kbdir):
    rc, payload = run_json(["entail", str(kbdir / "clash.kb"), "--query", "K P(a)"])
    assert rc == 1
    assert payload == {"holds": False, "reason": "no model"}


def test_empty_kb_has_one_unconstrained_model(kbdir):
    rc, payload = run_json(["models", str(kbdir / "empty.kb")])
    assert rc == 0
    assert payload["count"] == 1
    assert payload["models"][0] == {
        "components": [],
        "known_true": [],
        "free_atom_count": 0,
    }


def test_inconsistent_kb_reports_no_models(kbdir):
    for name in ("unsat.kb", "clash.kb"):
        rc, payload = run_json(["models", str(kbdir / name)])
        assert rc == 1
        assert payload == {"count": 0, "models": []}


def test_models_rejects_several_files(kbdir):
    rc, out, err = run(["models", str(kbdir / "tiny.kb"), str(kbdir / "empty.kb")])
    assert rc == 2
    assert out == ""
    assert "update" in err


def test_parse_and_io_errors_exit_2(kbdir):
    rc, out, err = run(["models", str(kbdir / "bad.kb")])
    assert rc == 2
    error = json.loads(out)["error"]
    assert error["type"] == "KbSyntaxError"
    assert "bad.kb:1" in error["message"]
    assert err.strip().startswith("error:")

    rc, payload = run_json(["models", str(kbdir / "no_such.kb")])
    assert rc == 2
    assert payload["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "concept",
    ["(" * 3000 + "A" + ")" * 3000, "~" * 3000 + "A"],
    ids=["parentheses", "complements"],
)
def test_deeply_nested_concept_exits_2(tmp_path, concept):
    (tmp_path / "deep.kb").write_text(f"pred A\n*** O ***\n{concept} [= A.\n")
    rc, out, err = run(["models", str(tmp_path / "deep.kb")])
    assert rc == 2
    assert json.loads(out)["error"]["type"] == "RecursionError"
    assert err.startswith("error:") and "Traceback" not in err


def test_deeply_nested_plan_exits_2(tmp_path):
    (tmp_path / "plan.json").write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(["models", CARGO, "--sequence", str(tmp_path / "plan.json")])
    assert rc == 2
    assert json.loads(out)["error"]["type"] == "RecursionError"
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["models"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["split", CARGO, "--sequence", CARGO_PLAN],
        ["split", CARGO, "--max-component-atoms", "1"],
        ["split", CARGO, "--max-branches", "0"],
        ["layers", CARGO, "--max-component-atoms", "1"],
        ["layers", CARGO, "--max-branches", "0"],
        ["check-updatable", CARGO, "--max-component-atoms", "1"],
        ["check-updatable", CARGO, "--max-branches", "0"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_closed_stdout_prints_no_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hybridmknf.cli", "models", CARGO],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 0


def test_split_default_checks_suggested_plan():
    rc, payload = run_json(["split", CARGO])
    assert rc == 0
    sets = payload["sets"]
    assert len(sets) == 4
    assert all(s["splitting"] and s["violations"] == [] for s in sets)
    assert len(sets[0]["predicates"]) == 18


def test_split_named_set():
    rc, payload = run_json(["split", CARGO, "--set", "AdmissibleImporter"])
    assert rc == 1
    (entry,) = payload["sets"]
    assert entry["predicates"] == ["AdmissibleImporter"]
    assert entry["splitting"] is False
    (viol,) = entry["violations"]
    assert viol == {
        "stage": 0,
        "statement": "AdmissibleImporter(I) :- not SuspectedBadGuy(I).",
        "inside": "AdmissibleImporter",
        "outside": "SuspectedBadGuy",
    }

    rc, payload = run_json(["split", CARGO, "--set", "NoSuchPred"])
    assert rc == 2
    assert "NoSuchPred" in payload["error"]["message"]


def test_layers_cargo_sequence():
    rc, payload = run_json(["layers", CARGO, CARGO_UPDATE])
    assert rc == 0
    kinds = [layer["kind"] for layer in payload["layers"]]
    assert kinds == ["ontology", "rules", "ontology", "rules"]
    assert payload["update_enabling"] is True
    seen = [p for layer in payload["layers"] for p in layer["predicates"]]
    assert len(seen) == len(set(seen)) == 30

    rc, with_plan = run_json(
        ["layers", CARGO, CARGO_UPDATE, "--sequence", CARGO_PLAN]
    )
    assert rc == 0
    assert [l["kind"] for l in with_plan["layers"]] == kinds


def test_check_updatable(kbdir):
    rc, payload = run_json(["check-updatable", CARGO, CARGO_UPDATE])
    assert rc == 0
    assert payload == {"updatable": True, "layers": 4}

    rc, payload = run_json(
        ["check-updatable", str(kbdir / "mixa.kb"), str(kbdir / "mixb.kb")]
    )
    assert rc == 1
    assert payload["updatable"] is False
    assert "P" in payload["reason"]


def test_update_without_enabling_plan_is_semantic_failure(kbdir):
    rc, payload = run_json(
        ["update", str(kbdir / "mixa.kb"), str(kbdir / "mixb.kb")]
    )
    assert rc == 1
    assert payload["error"]["type"] == "NotUpdatable"


def test_oracle_cross_checks(kbdir):
    rc, payload = run_json(["models", str(kbdir / "tiny.kb"), "--oracle"])
    assert rc == 0
    assert payload["oracle"] == {
        "checked": True,
        "agrees": True,
        "methods": ["exhaustive"],
    }

    rc, payload = run_json(
        ["update", CARGO, CARGO_UPDATE, "--sequence", CARGO_PLAN, "--oracle"]
    )
    assert rc == 0
    assert payload["oracle"] == {
        "checked": True,
        "agrees": True,
        "methods": ["alternate-plan"],
    }


def test_failed_cross_check_exits_1(kbdir, monkeypatch):
    # a disagreeing cross-check fails the command even when the query holds
    disagree = {"checked": True, "agrees": False, "methods": ["exhaustive"]}
    monkeypatch.setattr(cli, "_cross_check", lambda *args: disagree)
    tiny = str(kbdir / "tiny.kb")
    for argv in (
        ["models", tiny, "--query", "K P(a)"],
        ["update", tiny, tiny, "--query", "K P(a)"],
        ["entail", tiny, "--query", "K P(a)"],
    ):
        rc, payload = run_json(argv + ["--oracle"])
        assert rc == 1, argv
        assert payload["holds"] is True
        assert payload["oracle"] == disagree


@pytest.mark.parametrize("command", ["models", "update", "entail"])
@pytest.mark.parametrize("flag", ["--max-component-atoms", "--max-branches"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_flags_below_one_are_usage_errors(command, flag, value):
    argv = [command, CARGO, flag, value]
    if command == "entail":
        argv += ["--query", "K CompliantShpmt(s1)"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {int(value)}" in err.getvalue()
    assert "Traceback" not in err.getvalue() and not out.getvalue()


def _assert_budget_refusal(argv, field, limit=1):
    """Exit 2 with a ResourceLimit that names its EngineLimits field and
    value, and no partial answer: the payload holds only the error, whose
    message is returned."""
    rc, payload = run_json(argv)
    assert rc == 2
    assert set(payload) == {"error"}
    assert payload["error"]["type"] == "ResourceLimit"
    assert f"EngineLimits.{field} = {limit}" in payload["error"]["message"]
    return payload["error"]["message"]


def test_resource_limit_exits_2():
    _assert_budget_refusal(
        ["models", CARGO, "--max-component-atoms", "1"], "max_component_atoms"
    )


def test_branch_budget_exits_2(kbdir):
    even = str(kbdir / "even.kb")
    rc, payload = run_json(["models", even])
    assert rc == 0 and payload["count"] == 2
    _assert_budget_refusal(["models", even, "--max-branches", "1"], "max_branches")


def test_separator_budget_exits_2(tmp_path):
    # cargo-20 `models` needs a wider separator than the budget, which has
    # no flag
    perfbench_module("kbgen")
    base, _ = perfbench_module("cargo_n").write_cargo(20, str(tmp_path))
    _assert_budget_refusal(
        ["models", base], "max_separator_atoms", DEFAULT_LIMITS.max_separator_atoms
    )


def _some_s_update(tmp_path, base_body=""):
    """A base and an update over A(x) and S(x, y1), ..., S(x, y20); the
    update adds A(x) -> S(x, y1) | ... | S(x, y20)."""
    items = ", ".join(f"y{i}" for i in range(1, 21))
    decl = f"sort obj: x\nsort item: {items}\npred A(obj)\npred S(obj, item)\n"
    base, update = tmp_path / "base.kb", tmp_path / "update.kb"
    base.write_text(decl + base_body)
    update.write_text(decl + "*** O ***\nA [= exists S.top .\n")
    return str(base), str(update)


def test_stored_row_budget_exits_2(tmp_path):
    # Split on A(x), both values are live and keep the 20 S atoms as one
    # block: 2^20 and 2^20 - 1 models plus one separator row each, one row
    # more than EngineLimits.max_parts, which has no flag.
    base, update = _some_s_update(tmp_path)
    argv = ["update", base, update, "--max-component-atoms", "20"]
    message = _assert_budget_refusal(argv, "max_parts", DEFAULT_LIMITS.max_parts)
    assert "need too many stored rows: 2097153," in message


def test_block_table_budget_exits_2(tmp_path):
    # From A(x), the 21-atom block has 2^20 start values, each to be
    # minimised over its 2^21 - 1 models; the product is counted against
    # EngineLimits.max_parts before any of that work starts.
    base, update = _some_s_update(tmp_path, "*** O ***\nA(x).\n")
    t0 = time.perf_counter()
    message = _assert_budget_refusal(
        ["update", base, update], "max_parts", DEFAULT_LIMITS.max_parts
    )
    assert time.perf_counter() - t0 < 2.0
    assert "block table is too large to build: 1048576 start values x 2097151" in message


def test_wide_start_factor_exits_2(tmp_path):
    # The base leaves one union component over the hub A(x) and four chains
    # of 16 equivalent B atoms behind it: 65 atoms, 17 parts.  The update
    # touches the hub, so its start factor is that whole component, wider
    # than one mask; winslett._LONG_BITS is a module cap with no flag.
    decl = "sort obj: x\npred A(obj)\n" + "".join(f"pred B{i}(obj)\n" for i in range(1, 65))
    axioms = []
    for first in range(1, 65, 16):
        axioms.append(f"~A [= B{first}")
        axioms += [f"B{b} == B{b + 1}" for b in range(first, first + 15)]
    base, update = tmp_path / "base.kb", tmp_path / "update.kb"
    base.write_text(decl + "*** O ***\n" + "\n".join(axioms) + "\n")
    update.write_text(decl + "*** O ***\n~A(x)\n")
    rc, payload = run_json(["models", str(base)])
    assert rc == 0
    (wide,) = payload["models"][0]["components"]
    assert (len(wide["atoms"]), wide["part_count"]) == (65, 17)
    rc, payload = run_json(["update", str(base), str(update)])
    assert rc == 2 and set(payload) == {"error"}
    assert payload["error"]["type"] == "ResourceLimit"
    assert payload["error"]["message"] == (
        "update start factor of 65 atoms exceeds the mask width "
        "winslett._LONG_BITS = 62"
    )


def test_candidate_cap_exits_2(tmp_path):
    # 11 independent even loops: the well-founded bounds decide none of the
    # 22 heads, and 2^22 candidates exceed rules._CANDIDATE_CAP, a module cap
    # with no flag
    objs = ", ".join(f"a{i}" for i in range(1, 12))
    loops = tmp_path / "loops.kb"
    loops.write_text(
        f"sort obj: {objs}\npred A(obj)\npred B(obj)\n*** P ***\n"
        "A(X) :- not B(X).\nB(X) :- not A(X).\n"
    )
    t0 = time.perf_counter()
    rc, payload = run_json(["models", str(loops)])
    assert time.perf_counter() - t0 < 0.5
    assert rc == 2 and set(payload) == {"error"}
    assert payload["error"]["type"] == "ResourceLimit"
    message = payload["error"]["message"]
    assert "over 22 undecided of 22 candidate atoms" in message
    assert f"rules._CANDIDATE_CAP = {rules._CANDIDATE_CAP}" in message


def test_explicit_plan_gives_same_answer():
    _, default = run_json(["update", CARGO, CARGO_UPDATE])
    rc, planned = run_json(["update", CARGO, CARGO_UPDATE, "--sequence", CARGO_PLAN])
    assert rc == 0
    assert planned["count"] == default["count"] == 1
    assert planned["models"][0]["known_true"] == default["models"][0]["known_true"]


def test_output_is_deterministic():
    _, first, _ = run(["update", CARGO, CARGO_UPDATE])
    _, second, _ = run(["update", CARGO, CARGO_UPDATE])
    assert first == second
