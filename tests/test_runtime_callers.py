"""Every definition in the package has a caller in the package.

A function, method or class that only the tests call belongs in
``tests/helpers.py``: the package keeps one implementation of each
construction.  The check is by name.  A method passes when some other
code of ``src/netdes_cuts`` refers to its name as a ``Name`` or an
``Attribute``.  Any other function or class passes only on a ``Name``
or on an ``Attribute`` of a package module's name (``lp.solve_lp_many``),
so a method call ``obj.f`` does not count for a module function ``f``.

The benchmark's tracer (``perfbench/spans.py``) replaces definitions by
name for a traced run, so every name it wraps must exist where it looks.
And each helper of ``tests/helpers.py`` has a caller in the tests.

Two checks read the package's imports.  Every imported name is used
where it is imported or read through that module by another, so a patch
of a module's global reaches the code that calls it.  And the oracles
(``oracle``), which check the cuts, reach no separation module through
any chain of imports, so no cut is checked by code that made it.
"""

import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import netdes_cuts

PACKAGE = Path(netdes_cuts.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"

# definitions kept without a caller in the package, each for a caller outside it
KEPT = {
    "partition_cuts.shrink": "perfbench/spans.py wraps it",
    "partition_cuts.three_partition_cut": "perfbench/spans.py wraps it",
    "partition_cuts.three_partition_metric_cut": "perfbench/spans.py wraps it",
    "partition_cuts.separate_metric": "perfbench/spans.py wraps it",
    "cutset_cuts.separate_multifacility": "perfbench/spans.py wraps it; the single-subset call of separate_relaxation",
    "arc_cuts.separate_residual_capacity": "perfbench/spans.py wraps it; the Fraction call of residual_capacity_set",
    "partition_cuts.lift_cut": "ROADMAP item 7 shrinks by the LP point and lifts with it",
    "engine.LoopResult.exact_bound": "API: the certified bound of cutting_plane_loop's result",
    "cli.main": "the console script's entry point",
}

# names a module imports without using them, each for a caller outside the package
UNUSED_IMPORTS = {
    "engine.validate_cuts": "perfbench/bench.py calls it and perfbench/spans.py wraps it; ROADMAP step 16b",
    "engine.generate_instance": "perfbench/bench.py calls it; ROADMAP step 16b",
    "engine.solve_lp": "perfbench/spans.py wraps it; ROADMAP step 16b",
    "engine.check_feasible_routing": "perfbench/spans.py wraps it; ROADMAP step 16b",
}

# the modules that make cuts, which the oracles must not reach
SEPARATION = {"engine", "cutset_cuts", "arc_cuts", "partition_cuts", "mir"}


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, node, is_method)`` of every function, method and class."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                found.append((name, child, in_class))
                visit(child, name, isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(tree, module, False)
    return found


def _references(node, modules) -> tuple[list[str], list[str]]:
    """The names ``node`` refers to: ``(by name or on a module, by any
    attribute)``; ``modules`` are the package's module names."""
    direct, attributes = [], []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            direct.append(n.id)
        elif isinstance(n, ast.Attribute):
            attributes.append(n.attr)
            if isinstance(n.value, ast.Name) and n.value.id in modules:
                direct.append(n.attr)
    return direct, attributes


def _exported(tree: ast.Module) -> set[str]:
    return {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}


def _uncalled(trees: dict[str, ast.Module]) -> list[str]:
    """Qualified names of the definitions in ``trees`` (module name ->
    parsed source, ``__init__`` among them) that no other code of
    ``trees`` refers to, by the rule of this module's docstring."""
    modules = set(trees)
    direct: dict[str, int] = {}
    loose: dict[str, int] = {}
    for tree in trees.values():
        by_name, by_attribute = _references(tree, modules)
        for name in by_name:
            direct[name] = direct.get(name, 0) + 1
        for name in by_name + by_attribute:
            loose[name] = loose.get(name, 0) + 1
    exported = _exported(trees["__init__"])
    uncalled = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            by_name, by_attribute = _references(node, modules)  # a recursive call is not a caller
            if is_method:
                callers = loose.get(name, 0) - (by_name + by_attribute).count(name)
            else:
                callers = direct.get(name, 0) - by_name.count(name)
            if callers == 0:
                uncalled.append(qualname)
    return uncalled


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_in_the_package_has_a_caller_in_it():
    """Test-only code lives in ``tests/helpers.py``; the exceptions are
    ``KEPT``, the dunder methods and the exported API (``__init__``)."""
    assert sorted(set(_uncalled(_package_trees())) - set(KEPT)) == []


def test_every_kept_definition_exists():
    defined = {qualname for module, tree in _package_trees().items() for qualname, _, _ in _definitions(tree, module)}
    assert sorted(set(KEPT) - defined) == []


def test_a_module_function_reached_only_as_an_object_attribute_has_no_caller():
    """``obj.f`` calls a method ``f``, not the module function ``f``; the
    function counts as called through its name or its module's."""
    a = "def f():\n    return 1\n\n\nclass Box:\n    def f(self):\n        return 2\n"
    through_objects = "from . import a\n\n\ndef g(obj):\n    return obj.f() + a.Box().f()\n"
    through_module = "from . import a\n\n\ndef g():\n    return a.f()\n"
    trees = {"a": ast.parse(a), "b": ast.parse(through_objects), "__init__": ast.parse("from .b import g\n")}
    assert _uncalled(trees) == ["a.f"]
    trees["b"] = ast.parse(through_module)
    assert _uncalled(trees) == ["a.Box"]  # the method matches any attribute ``f``


def _wrap_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.wrap_targets()


def _qualified(owner, attr: str) -> str:
    """``module.attr`` or ``module.Class.attr`` for a wrap target, in the
    package's module names."""
    if inspect.ismodule(owner):
        return f"{owner.__name__.rpartition('.')[2]}.{attr}"
    return f"{owner.__module__.rpartition('.')[2]}.{owner.__qualname__}.{attr}"


def test_every_name_the_benchmark_wraps_exists_where_it_looks():
    """The tracer reads ``owner.__dict__[attr]`` for each wrap target, so a
    name the package drops or moves breaks the traced benchmark run; and
    every ``KEPT`` definition kept for the tracer is one it wraps."""
    targets = _wrap_targets()
    assert [_qualified(owner, attr) for owner, attr, *_ in targets if attr not in owner.__dict__] == []
    wrapped = {_qualified(owner, attr) for owner, attr, *_ in targets}
    assert sorted(name for name, why in KEPT.items() if "perfbench" in why and name not in wrapped) == []


def test_every_helper_has_a_caller_in_the_tests():
    """Each top-level function or class of ``tests/helpers.py`` is referred
    to by name or as an attribute in some test file, ``helpers.py`` itself
    outside the definition among them."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    names = Counter()
    for tree in trees.values():
        names.update(name for refs in _references(tree, set()) for name in refs)
    uncalled = []
    for node in trees["helpers.py"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = [name for refs in _references(node, set()) for name in refs]  # a recursive call is not a caller
            if names[node.name] == own.count(node.name):
                uncalled.append(node.name)
    assert uncalled == []


def _imports(tree: ast.Module) -> dict[str, str]:
    """Each name the module binds by an import, outside ``__future__``,
    with the module it comes from (``.lp`` for ``from .lp import``)."""
    found = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found.update((alias.asname or alias.name.partition(".")[0], alias.name) for alias in n.names)
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            found.update((alias.asname or alias.name, "." * n.level + (n.module or "")) for alias in n.names)
    return found


def _unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each name a module of ``trees`` imports but
    neither refers to nor has read as ``module.name`` by another module;
    ``__init__``'s imports are the package's API."""
    read = {f"{n.value.id}.{n.attr}" for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in trees}
    unused = []
    for module, tree in trees.items():
        if module != "__init__":
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [f"{module}.{name}" for name in _imports(tree) if name not in used and f"{module}.{name}" not in read]
    return unused


def test_every_imported_name_is_used():
    """A stale import would let a test's ``monkeypatch.setattr(module,
    name, ...)`` patch a global that nothing reads."""
    assert sorted(set(_unused_imports(_package_trees())) - set(UNUSED_IMPORTS)) == []


def test_an_import_read_through_its_module_elsewhere_is_used():
    trees = {
        "lp": ast.parse("from .simplex import solve_lp, solve_lp_many, EQ\n\n\ndef f():\n    return solve_lp\n"),
        "oracle": ast.parse("from . import lp\n\n\ndef g():\n    return lp.solve_lp_many\n"),
        "__init__": ast.parse("from .lp import f\n"),
    }
    assert _unused_imports(trees) == ["lp.EQ"]


def test_each_unused_import_is_read_by_the_benchmark_and_is_its_home_object():
    """The benchmark reads each ``UNUSED_IMPORTS`` name, as ``engine.name``
    or as a wrap target, and it is the object its home module defines, so
    a traced span times the real oracle, generator or solver."""
    reads = {_qualified(owner, attr) for owner, attr, *_ in _wrap_targets()}
    for path in sorted(SPANS.parent.glob("*.py")):
        reads |= {f"{n.value.id}.{n.attr}" for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    assert sorted(set(UNUSED_IMPORTS) - reads) == []
    trees = _package_trees()
    for qualname in UNUSED_IMPORTS:
        module, name = qualname.split(".")
        home = importlib.import_module("netdes_cuts" + _imports(trees[module])[name])
        obj = getattr(importlib.import_module(f"netdes_cuts.{module}"), name)
        assert obj is getattr(home, name) and obj.__module__ == home.__name__, qualname


def _separators_reached(trees: dict[str, ast.Module], start: str = "oracle") -> list[str]:
    """The separation modules that ``start`` reaches through ``from . import
    X`` or ``from .X import ...``, directly or through other modules."""
    reached, todo = set(), [start]
    while todo:
        for n in ast.walk(trees[todo.pop()]):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for module in [n.module] if n.module else [alias.name for alias in n.names]:
                    if module in trees and module not in reached:
                        reached.add(module)
                        todo.append(module)
    return sorted(reached & SEPARATION)


def test_the_oracles_reach_no_separation_module():
    """ROADMAP aim 3: the oracles that check the cuts share no code with
    the separators that make them."""
    assert _separators_reached(_package_trees()) == []


def test_a_separation_module_reached_through_another_module_is_found():
    trees = {
        "oracle": ast.parse("from . import lp\n"),
        "lp": ast.parse("from .core import LinearCut\n\n\ndef f():\n    from .partition_cuts import shrink\n"),
        "core": ast.parse(""),
        "partition_cuts": ast.parse("from .core import LinearCut\n"),
    }
    assert _separators_reached(trees) == ["partition_cuts"]
    trees["lp"] = ast.parse("from .core import LinearCut\n")
    assert _separators_reached(trees) == []
