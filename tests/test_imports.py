"""The package imports without a cycle or scipy.special, and exports what it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dynpanel

PACKAGE = Path(dynpanel.__file__).parent


def sibling_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, function-local imports included."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        targets = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[name] = targets & modules
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a module path that ends where it starts, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph[node]):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start)
        if cycle:
            return cycle
    return None


def test_find_cycle_reports_the_loop():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"b"}}
    assert find_cycle(graph) == ["b", "c", "b"]


def test_package_imports_form_no_cycle():
    graph = sibling_imports()
    assert "estimators" in graph["diagnostics"]
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_all_lists_exactly_the_public_imports():
    listed = dynpanel.__all__
    assert len(set(listed)) == len(listed)
    missing = [name for name in listed if not hasattr(dynpanel, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unlisted = sorted(n for n in imported if not n.startswith("_") and n not in listed)
    assert not unlisted, f"public imports missing from __all__: {unlisted}"


def test_the_package_and_cli_import_without_scipy_special():
    code = "import sys, dynpanel, dynpanel.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
