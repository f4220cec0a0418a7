"""The package's modules import each other without a cycle.

Every relative import counts, at module level and inside functions: a lazy
import inside a function only hides a cycle until the function runs.
"""

import ast
from pathlib import Path

import kerr_thermo

PACKAGE = Path(kerr_thermo.__file__).parent


def relative_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules ``path`` imports relatively; ``__init__`` stands for the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        assert node.level == 1, f"{path.name}: import reaches above the package"
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:  # from . import a, b: each name is a module or a package attribute
            found.update(alias.name if alias.name in modules else "__init__" for alias in node.names)
    return found


def import_graph(directory: Path = PACKAGE) -> dict[str, set[str]]:
    paths = {path.stem: path for path in directory.glob("*.py")}
    return {name: relative_imports(path, set(paths)) for name, path in paths.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a list of modules that starts and ends at the same one, or None."""
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> list[str] | None:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        for target in sorted(graph[name]):
            cycle = visit(target, path + [name])
            if cycle:
                return cycle
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name, [])
        if cycle:
            return cycle
    return None


def test_every_relative_import_names_a_package_module():
    graph = import_graph()
    assert {"cli", "config", "estimation", "dynamics"} <= set(graph)
    for name, targets in graph.items():
        assert targets <= set(graph), name


def test_package_import_graph_is_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def test_cycle_finder_sees_a_lazy_import(tmp_path):
    # a cycle closed only by an import inside a function body is still a cycle
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import g\n    return g\n")
    (tmp_path / "c.py").write_text("from . import a\n")
    graph = import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a"}}) is None
