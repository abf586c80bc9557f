import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticecenters

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latticecenters"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _package_imports(module: str) -> set[str]:
    # the package's modules that this module imports at module level
    out = set()
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            out.update(name.split(".")[0] for name in names if name.split(".")[0] in MODULES)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    nested = [
        (func.name, inner.lineno)
        for func in ast.walk(_tree(module))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_module_imports_form_no_cycle():
    graph = {module: _package_imports(module) for module in MODULES}
    assert graph["search"] and graph["__init__"]  # the walk sees relative imports
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join(path + (module,))
        if module in done:
            return
        for imported in sorted(graph[module]):
            visit(imported, path + (module,))
        done.add(module)

    for module in MODULES:
        visit(module, ())


def _numpy_imports(tree: ast.Module) -> list[ast.stmt]:
    # every statement of this tree, at any depth, that imports numpy
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "numpy")
    ]


def test_only_search_imports_numpy_and_at_module_level():
    trees = {module: _tree(module) for module in MODULES}
    assert [module for module in MODULES if _numpy_imports(trees[module])] == ["search"]
    assert all(node in trees["search"].body for node in _numpy_imports(trees["search"]))


def test_package_root_does_not_reach_search_and_cli_imports_it_at_module_level():
    # the root loads without numpy; the CLI loads it on import, not inside
    # the first incenter-scan call
    seen, todo = set(), ["__init__"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    assert "search" not in seen
    assert "search" in _package_imports("cli")


LIBRARY_CALLS = """\
import json, sys
import latticecenters as lc
t = lc.triangle((0, 0), (14, 2), (21, 51))
lc.exclusion_report(10, lc.CenterCondition.CIRCUMCENTER, lc.ShapeClass.ACUTE)
lc.center_report(t)
lc.lattice_incenter(t)
lc.incenter_report(t)
lc.build_witness(lc.WitnessRequest(lc.CenterCondition.ALL_THREE, lc.ShapeClass.ACUTE, 12))
before = "numpy" in sys.modules
import latticecenters.cli
print(json.dumps([before, "numpy" in sys.modules]))
"""


def test_library_entry_points_run_without_numpy_and_the_cli_loads_it():
    # a fresh interpreter: this one has numpy loaded already
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", LIBRARY_CALLS], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert json.loads(done.stdout) == [False, True]


def test_root_names_resolve_and_search_stays_importable_from_the_root():
    assert [name for name in latticecenters.__all__ if not hasattr(latticecenters, name)] == []
    from latticecenters import search

    assert search.__name__ == "latticecenters.search"
