"""The library is what a run executes: no definition in src/fracspec is test-only."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fracspec"
# the benchmark harness, whose traced pass reads the library too (its tests are left out)
HARNESS = Path(__file__).resolve().parents[1] / "perfbench"


def _names(node):
    """The names ``node`` refers to, as an ``ast.Name`` or an ``ast.Attribute``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_task_runner(stmt):
    """``cli``'s ``@_task(...)`` runners are reached through the task table, not by name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_task"
               for d in stmt.decorator_list)


def test_every_top_level_definition_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # the names each top-level statement refers to, so a definition's own body is left out
    refs = {(module, i): _names(stmt)
            for module, tree in trees.items() for i, stmt in enumerate(tree.body)}
    unreferenced = [
        f"{module}:{stmt.name}"
        for module, tree in trees.items() if module != "__init__.py"
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not _is_task_runner(stmt)
        and not any(stmt.name in names for key, names in refs.items() if key != (module, i))
    ]
    assert unreferenced == []


def _attributes(node):
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_method_and_property_is_referenced_as_an_attribute_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    # a read by the harness counts: DiscreteOperator.matrix, the dense view that no run
    # builds, is what the traced pass sizes each eigensolve by
    harness = [ast.parse(path.read_text()) for path in sorted(HARNESS.glob("*.py"))]
    everywhere = sum(map(_attributes, trees + harness), Counter())
    # a method's own body is left out, so a recursive or self-referring one needs another caller
    unreferenced = [
        f"{cls.name}.{method.name}"
        for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
        for method in cls.body if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("__")
        and everywhere[method.name] == _attributes(method)[method.name]
    ]
    assert unreferenced == []
