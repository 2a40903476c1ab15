"""Every definition in the package has a caller in the package.

A function, method or class that only the tests call belongs in
``tests/helpers.py``: the package keeps one implementation of each
construction.  The check is by name: a definition passes when some other
code of ``src/netdes_cuts`` refers to its name as a ``Name`` or an
``Attribute``.
"""

import ast
from pathlib import Path

import netdes_cuts

PACKAGE = Path(netdes_cuts.__file__).resolve().parent

# definitions kept without a caller in the package, each for a caller outside it
KEPT = {
    "partition_cuts.shrink": "perfbench/spans.py wraps it",
    "partition_cuts.three_partition_cut": "perfbench/spans.py wraps it",
    "partition_cuts.three_partition_metric_cut": "perfbench/spans.py wraps it",
    "partition_cuts.separate_metric": "perfbench/spans.py wraps it",
    "partition_cuts.lift_cut": "ROADMAP item 7 shrinks by the LP point and lifts with it",
    "engine.LoopResult.exact_bound": "API: the certified bound of cutting_plane_loop's result",
    "cli.main": "the console script's entry point",
}


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, node)`` of every function, method and class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                found.append((name, child))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _references(node) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _exported(tree: ast.Module) -> set[str]:
    return {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}


def _uncalled() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    exported = _exported(trees["__init__"])
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            own = _references(node).count(name)  # a recursive call is not a caller
            if counts.get(name, 0) - own == 0:
                uncalled.append(qualname)
    return uncalled


def test_every_definition_in_the_package_has_a_caller_in_it():
    """Test-only code lives in ``tests/helpers.py``; the exceptions are
    ``KEPT``, the dunder methods and the exported API (``__init__``)."""
    assert sorted(set(_uncalled()) - set(KEPT)) == []


def test_every_kept_definition_exists():
    defined = {
        qualname
        for path in PACKAGE.glob("*.py")
        for qualname, _ in _definitions(ast.parse(path.read_text()), path.stem)
    }
    assert sorted(set(KEPT) - defined) == []
