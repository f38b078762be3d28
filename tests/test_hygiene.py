"""Source hygiene: no unused imports and no unreferenced names in the
engine package, no public engine name that only the tests use, the oracle
imported only where the engine is allowed to call it, every engine
function the benchmark tracer wraps still exists and tiny solves still
enter every span the traced benchmark expects, statements grounded only
through the knowledge-base entry points, and every budget error names the
cap that stopped it."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hybridmknf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _imported(tree):
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def _top_level_private(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in out if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] = reads.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
            elif isinstance(node, ast.alias):
                reads[node.name] = reads.get(node.name, 0) + 1
    unreferenced = [
        f"{name}.{private}"
        for name, tree in sorted(trees.items())
        for private in _top_level_private(tree)
        if not reads.get(private)
    ]
    assert not unreferenced, "unreferenced private names: " + ", ".join(
        unreferenced
    )


def _reference_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced(
    referrers: list[Path], modules: list[Path], methods: bool
) -> list[str]:
    """Public functions and classes of the modules, with their methods when
    asked, that no referrer names outside the definition's own body."""
    trees = {p: ast.parse(p.read_text()) for p in {*referrers, *modules}}
    refs = Counter(n for p in referrers for n in _reference_names(trees[p]))
    unreferenced = []
    for path in modules:
        defs = []
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if methods and isinstance(node, ast.ClassDef):
                defs.extend(n for n in node.body if isinstance(n, ast.FunctionDef))
        for node in defs:
            inside = sum(1 for n in _reference_names(node) if n == node.name)
            if not node.name.startswith("_") and refs[node.name] == inside:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    return unreferenced


def test_every_public_name_is_referenced():
    # a public function, class or method that nothing in the engine, the
    # tests or the benchmark names, outside its own body, is dead code
    referrers = [
        p for folder in ("src", "tests", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    unreferenced = _unreferenced(referrers, MODULES, methods=True)
    assert not unreferenced, "unreferenced public names: " + ", ".join(
        unreferenced
    )


def test_every_public_engine_name_has_a_caller_outside_the_tests():
    # a public function or class that only the tests name is API kept for
    # the tests alone; the package exports and the oracle are exempt
    import hybridmknf

    referrers = sorted(SRC.rglob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").rglob("*.py"))
        if not p.name.startswith("test_") and p.name != "conftest.py"
    ]
    modules = [p for p in MODULES if p.name != "oracle.py"]
    test_only = [
        entry for entry in _unreferenced(referrers, modules, methods=False)
        if entry.split()[-1] not in hybridmknf.__all__
    ]
    assert not test_only, "public names only the tests use: " + ", ".join(test_only)


def _names_oracle(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("hybridmknf.oracle") for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if module in ("oracle", "hybridmknf.oracle"):
        return True
    return module in ("", "hybridmknf") and any(a.name == "oracle" for a in node.names)


def _oracle_imports(tree: ast.Module, stem: str) -> list[tuple[str, int]]:
    """(enclosing function or class, dotted, or the module) and line of
    each import of the oracle module."""
    out = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            if _names_oracle(child):
                out.append((owner, child.lineno))
            visit(child, inner)

    visit(tree, stem)
    return out


def test_oracle_is_imported_only_where_the_engine_may_call_it():
    # the engine calls the exhaustive references in two places: mixed layers
    # of at most four atoms, and the CLI cross-check; no new caller may join
    allowed = {"dynmknf._direct_layer_models", "cli._cross_check"}
    found = [
        (owner, f"{path.name}:{line}")
        for path in sorted(SRC.glob("*.py"))
        for owner, line in _oracle_imports(ast.parse(path.read_text()), path.stem)
    ]
    assert {owner for owner, _ in found} == allowed, found


def _perfbench_module(name: str):
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


def test_tracer_targets_exist():
    # a rename here makes `perfbench/run.py --trace 1` fail on every workload
    tracer = _perfbench_module("tracer")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracer._TARGETS
        if attr not in vars(owner)
    ]
    assert not missing, "traced functions not found: " + ", ".join(missing)


# A mixed layer over two atoms, solved by the exhaustive sweep, and a
# program with two stable models, which the solve compares for duplicates.
_MIXED_KB = """sort obj: k
pred A(obj)
pred B(obj)

*** O ***
A [= B.

*** P ***
B(k) :- not A(k).
"""
_CHOICE_KB = """pred A
pred B

*** P ***
A :- not B.
B :- not A.
"""


def test_traced_solves_enter_every_expected_span(tmp_path):
    # a refactor that stops calling a traced function would otherwise fail
    # only `perfbench/run.py --trace 1`, with "span ... has no calls"
    from hybridmknf.interp import Atom, Known

    tracer = _perfbench_module("tracer").Tracer()
    expected = set().union(*_perfbench_module("run").EXPECTED_SPANS.values())
    inputs = [[str(ROOT / "corpus" / "cargo.kb"), str(ROOT / "corpus" / "cargo_update.kb")]]
    for name, text in (("mixed.kb", _MIXED_KB), ("choice.kb", _CHOICE_KB)):
        (tmp_path / name).write_text(text)
        inputs.append([str(tmp_path / name)])
    load, solve, entail = tracer.entry_points()
    tracer.install()
    try:
        for paths in inputs:
            entail(solve(load(paths)), Known(Atom(0)))
    finally:
        tracer.uninstall()
    missing = sorted(name for name in expected if not tracer.calls.get(name))
    assert not missing, "spans never entered: " + ", ".join(missing)


def _statement_grounding(tree: ast.Module) -> list[int]:
    """Lines that reach a statement's `ground` or `_instances` other than
    through an ontology (`kb.ontology.ground(sig)`)."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "_instances" or (
            node.attr == "ground"
            and not (
                isinstance(node.value, ast.Attribute) and node.value.attr == "ontology"
            )
        ):
            out.append(node.lineno)
    return out


def test_statements_are_grounded_only_inside_kbmodel():
    # Axiom, RuleSchema and Assertion instances are grounded through
    # Ontology.ground and HybridKb.ground_rules, the two functions the
    # benchmark tracer times as `kbmodel.ground`; grounding from anywhere
    # else would be timed as the caller's own work
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name != "kbmodel.py"
        for line in _statement_grounding(ast.parse(path.read_text()))
    ]
    assert not found, "statements grounded outside kbmodel.py: " + ", ".join(found)


def _literal_text(node: ast.expr) -> str:
    """The constant text of a message expression, '{}' for each hole."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(v) for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_text(node.left) + _literal_text(node.right)
    return "{}"


def test_every_budget_error_names_its_cap():
    # a budget error, a ResourceLimit or a CrossComponentFormula, names the
    # EngineLimits field or the module constant that stopped the work; the
    # exhaustive references in oracle.py are exempt
    from hybridmknf.interp import EngineLimits

    fields = [f"EngineLimits.{f.name} =" for f in dataclasses.fields(EngineLimits)]
    unnamed = []
    checked = 0
    for path in MODULES:
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text())
        caps = [
            f"{path.stem}.{name} ="
            for name in _top_level_private(tree)
            if name.lstrip("_").isupper()
        ]
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in ("ResourceLimit", "CrossComponentFormula")
            ):
                continue
            checked += 1
            text = _literal_text(node.exc.args[0]) if node.exc.args else ""
            if not any(name in text for name in fields + caps):
                unnamed.append(f"{path.name}:{node.lineno} {text!r}")
    assert checked, "no ResourceLimit raise found"
    assert not unnamed, "budget errors without their cap: " + "; ".join(unnamed)
