import ast
from pathlib import Path

import pytest

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
