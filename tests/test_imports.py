"""The package's modules import one another without a cycle."""

import ast
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
