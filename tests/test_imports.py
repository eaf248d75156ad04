"""Every name a library module imports is used by that module.

The package has no linter; this check keeps dead imports out.  Each
module of src/bunkbed except __init__.py (which imports to re-export)
is parsed.  A module-level import fails unless the module refers to the
name elsewhere; an import inside a function fails unless that function
(nested functions included) refers to it, so a stale lazy import is
caught even when another function uses the same name.  from __future__
imports are exempt.

Every name the benchmark tracer patches must also exist in the package:
the tracer skips a missing name and its layer silently reads 0.

Every public name must be reached from the library itself: a name in
bunkbed.__all__ that no other module of src/bunkbed refers to (as an
AST Name or Attribute) fails, unless UNREACHED names it with a reason.
Code only tests call belongs in tests/.

No test may assert a bare is_* attribute, such as `assert poly.is_zero`:
that is a bound method, always true, so the assertion can never fail.
"""

from __future__ import annotations

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

import bunkbed

SOURCE = Path(__file__).resolve().parent.parent / "src" / "bunkbed"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
TRACER = SOURCE.parent.parent / "benchmarks" / "tracer.py"
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_imports(scope: ast.AST) -> dict[str, int]:
    """Name -> line of the imports in scope, leaving out those of nested functions."""
    imported = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return imported


def unused_imports(tree: ast.Module) -> list[str]:
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in scope_imports(scope).items()
                   if name not in used]
    return [f"{name} (line {line})" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom typing import Optional, Any\nx: Any = os\n")
    assert unused_imports(tree) == ["Optional (line 3)"]


def test_stale_function_import_is_caught():
    tree = ast.parse("import math\n"
                     "def f():\n    import numpy as np\n    return math.pi\n"
                     "def g():\n    return np.zeros(1)\n"
                     "def h():\n    import json\n"
                     "    def inner():\n        return json.dumps(1)\n"
                     "    return inner\n")
    assert unused_imports(tree) == ["np (line 3)"]


def tracer_targets() -> tuple:
    """The tracer's TARGETS, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for _, module, path in targets:
        try:
            reduce(getattr, path.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert missing == []


# Public names no library module refers to, each with why it stays public.
UNREACHED = {
    "bound_report": "single-report entry, named in the README",
    "expansion_identity_check": "single-report entry, named in the README",
    "theorem_sign_check": "single-report entry, named in the README",
    "enumerate_tripartitions": "names the Tripartition that updown_f_values takes",
    "iter_line_quantities": "walks n <= 64 at linear cost for the tests",
    "minor": "traced by the benchmark until the contraction span replaces it",
    "updown_f_values": "traced by the benchmark until the _outcomes span replaces it",
}


def referenced_names(paths) -> set[str]:
    """Every Name id and Attribute attr that the given modules load."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_reached():
    unreached = set(bunkbed.__all__) - referenced_names(MODULES)
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []  # no stale allowance


def test_unreached_name_is_caught(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(): pass\ndef g(): return f()\nx = obj.h\nobj.k = 1\n")
    assert {"f", "g", "h", "k", "x"} - referenced_names([path]) == {"g", "k", "x"}


def uncalled_predicates(tree: ast.Module) -> list[str]:
    """The asserts whose whole expression is an is_* attribute with no call."""
    return [f"{node.test.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Assert) and isinstance(node.test, ast.Attribute)
            and node.test.attr.startswith("is_")]


def test_no_assert_on_an_uncalled_predicate():
    found = [f"{path.name}: {hit}" for path in TESTS
             for hit in uncalled_predicates(ast.parse(path.read_text()))]
    assert found == []


def test_uncalled_predicate_is_caught():
    tree = ast.parse("assert p.is_zero\nassert p.is_zero()\nassert q.r.is_one, 'msg'\n"
                     "assert p.is_zero and q\nassert p.degree\n")
    assert uncalled_predicates(tree) == ["is_zero (line 1)", "is_one (line 3)"]
