"""Every definition in the package has a caller in the package, every
option a caller that sets it, and every stored field a reader.

A function, method or class that only the tests call belongs in
``tests/helpers.py``: the package keeps one implementation of each
construction.  The check is by name.  A method passes when some other
code of ``src/netdes_cuts`` refers to its name as an ``Attribute``, so
a local variable of the same name does not count.  Any other function
or class passes only on a ``Name`` or on an ``Attribute`` of a package
module's name (``lp.solve_lp_many``), so a method call ``obj.f`` does
not count for a module function ``f``.

A parameter default that only the tests override is an option no run
sets: the package uses a constant or works the value out from its
inputs.  So every default of a ``def`` must be passed by some call in
the package, matched by name as above, by keyword, by position or
through ``*args`` or ``**kwargs``.  A ``*args`` whose name the calling
function binds once, to a tuple display, passes as many positions as
the display has items; any other ``*args`` may pass them all.

A value that a class stores and no code reads is dead weight on every
object.  So each name a class stores, as an annotated class field, by
``self.name = ...`` or by ``object.__setattr__(self, "name", ...)``,
must be read as an ``Attribute`` somewhere in the package.  The match is
by name, so a field that shares its name with a field that is read
passes (an arc-set relaxation's ``capacity`` did, as
``Facility.capacity`` is read); nor can the check see a field that holds
one value or copies one the instance holds.  Those are found by reading.

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

# options kept without a package call that sets them, each for a caller outside it
KEPT_OPTIONS = {
    "arc_cuts.lifted_cover_cut.order": "criterion 5 lifts the paper's table row in the sequence [2, 1]",
    "simplex.solve_lp.max_iter": "ROADMAP item 22: a pivot budget for exact_bound",
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
    direct, attribute = Counter(), Counter()
    for tree in trees.values():
        by_name, by_attribute = _references(tree, modules)
        direct.update(by_name)
        attribute.update(by_attribute)
    exported = _exported(trees["__init__"])
    uncalled = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            by_name, by_attribute = _references(node, modules)  # a recursive call is not a caller
            if is_method:
                callers = attribute.get(name, 0) - by_attribute.count(name)
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


def test_a_method_named_only_by_a_local_variable_has_no_caller():
    """A local ``total`` is not a call of the method ``total``: a method
    counts as called only through an attribute."""
    a = "class Box:\n    def total(self):\n        return 1\n\n\ndef f(items):\n    total = sum(items)\n    return total\n"
    trees = {"a": ast.parse(a), "__init__": ast.parse("from .a import Box, f\n")}
    assert _uncalled(trees) == ["a.Box.total"]
    trees["b"] = ast.parse("from .a import Box\n\n\ndef g():\n    return Box().total()\n")
    assert _uncalled(trees) == ["b.g"]


def _options(node: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each parameter of ``node`` with a default,
    the position among the arguments a call passes (after ``self`` or
    ``cls`` of a method), None for a keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    shift = 1 if is_method and not static else 0
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _tuple_displays(scope) -> dict[str, int]:
    """Each name that the function or module ``scope`` binds once, to a
    tuple display without a starred item, with the display's length."""
    bound = Counter(n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    if not isinstance(scope, ast.Module):
        bound.update(a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg))
    return {target.id: len(n.value.elts) for n in ast.walk(scope) if isinstance(n, ast.Assign)
            for target in n.targets if isinstance(target, ast.Name) and bound[target.id] == 1
            and isinstance(n.value, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in n.value.elts)}


def _calls(tree: ast.Module) -> list[tuple[ast.Call, dict[str, int]]]:
    """Each call in ``tree`` with the ``_tuple_displays`` of the innermost
    function around it, or of the module."""
    found = []

    def visit(node, displays):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, _tuple_displays(child))
            else:
                if isinstance(child, ast.Call):
                    found.append((child, displays))
                visit(child, displays)

    visit(tree, _tuple_displays(tree))
    return found


def _sets(call: ast.Call, displays: dict[str, int], name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``: by
    keyword, by position, or through ``*args`` or ``**kwargs``.  A
    ``*args`` named in ``displays`` passes that many positions."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    passed = 0
    for arg in call.args:
        if not isinstance(arg, ast.Starred):
            passed += 1
        elif isinstance(arg.value, ast.Name) and arg.value.id in displays:
            passed += displays[arg.value.id]
        else:
            return position is not None
    return position is not None and passed > position


def _unset_options(trees: dict[str, ast.Module]) -> list[str]:
    """``definition.parameter`` for each parameter with a default that no
    call in ``trees`` passes, calls matched by name as ``_uncalled`` matches
    references: a method's through an attribute, a class's ``__init__``
    and any other function's by name or on a package module's name.  The
    names ``__init__`` exports and their methods are the package's API and
    are not checked, nor are the other dunder methods."""
    modules = set(trees)
    by_name, by_attribute = {}, {}
    for tree in trees.values():
        for call, displays in _calls(tree):
            func = call.func
            if isinstance(func, ast.Name):
                by_name.setdefault(func.id, []).append((call, displays))
            elif isinstance(func, ast.Attribute):
                by_attribute.setdefault(func.attr, []).append((call, displays))
                if isinstance(func.value, ast.Name) and func.value.id in modules:
                    by_name.setdefault(func.attr, []).append((call, displays))
    exported = _exported(trees["__init__"])
    unset = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree, module):
            if isinstance(node, ast.ClassDef) or qualname.split(".")[1] in exported:
                continue
            if node.name == "__init__" and is_method:
                calls = by_name.get(qualname.split(".")[-2], [])
            elif node.name.startswith("__") and node.name.endswith("__"):
                continue
            else:
                calls = (by_attribute if is_method else by_name).get(node.name, [])
            unset += [f"{qualname}.{name}" for name, position in _options(node, is_method)
                      if not any(_sets(call, displays, name, position) for call, displays in calls)]
    return unset


def test_every_option_in_the_package_is_set_by_a_call_in_it():
    """A default that only the tests override is an option no run sets:
    the package uses a constant or works the value out from its inputs.
    The exceptions are ``KEPT_OPTIONS``, the options of ``KEPT``
    definitions and the exported API.  Dataclass fields are not
    parameters of a ``def``: the stored-fields check covers them."""
    unset = [option for option in _unset_options(_package_trees()) if option.rpartition(".")[0] not in KEPT]
    assert sorted(unset) == sorted(KEPT_OPTIONS)


def test_an_option_only_the_tests_set_is_unset():
    """A default passed by keyword, by position or through ``*args`` or
    ``**kwargs`` is set; one that no package call passes is not."""
    a = ("def f(x, cap=20, *, mode=None):\n    return x\n\n\n"
         "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
         "    def grow(self, by=1):\n        return by\n")
    calls = {
        "none": "f(1)\nBox().grow()\n",
        "keyword": "f(1, cap=2, mode='x')\nBox(size=2).grow(by=2)\n",
        "position": "f(1, 2, mode='x')\nBox(2).grow(2)\n",
        "args": "f(*args)\nBox(*args).grow(*args)\n",
        "kwargs": "f(1, **kwargs)\nBox(**kwargs).grow(**kwargs)\n",
    }
    unset = {}
    for how, body in calls.items():
        b = "from . import a\nfrom .a import Box, f\n\n\ndef g(args, kwargs):\n" + "".join(f"    {line}\n" for line in body.splitlines())
        trees = {"a": ast.parse(a), "b": ast.parse(b), "__init__": ast.parse("from .b import g\n")}
        unset[how] = _unset_options(trees)
    assert unset["none"] == ["a.f.cap", "a.f.mode", "a.Box.__init__.size", "a.Box.grow.by"]
    assert unset["keyword"] == unset["position"] == unset["kwargs"] == []
    assert unset["args"] == ["a.f.mode"]  # a keyword-only option is set by keyword or **kwargs alone


def test_a_starred_tuple_display_sets_only_its_positions():
    """``f(*args)`` with ``args`` bound once to a tuple display passes as
    many positions as the display has items; bound twice, it may pass any
    number."""
    trees = {"a": ast.parse("def f(x, y=1, z=2):\n    return x\n"), "__init__": ast.parse("from .b import g\n")}
    trees["b"] = ast.parse("from .a import f\n\n\ndef g():\n    args = (1, 2)\n    return f(*args)\n")
    assert _unset_options(trees) == ["a.f.z"]
    trees["b"] = ast.parse("from .a import f\n\n\ndef g(args):\n    args = (1, 2)\n    return f(*args)\n")
    assert _unset_options(trees) == []


def _stored(cls: ast.ClassDef) -> list[str]:
    """The names ``cls`` stores: its annotated class fields and each
    ``self.name = ...`` or ``object.__setattr__(self, "name", ...)``."""
    names = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    for n in ast.walk(cls):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            target, name = n.value, n.attr
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "__setattr__" \
                and isinstance(n.func.value, ast.Name) and n.func.value.id == "object" and len(n.args) == 3 \
                and isinstance(n.args[1], ast.Constant):
            target, name = n.args[0], n.args[1].value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "self":
            names.append(name)
    return list(dict.fromkeys(names))


def _unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """``Class.name`` for each name a class of ``trees`` stores that no
    code of ``trees`` reads as an ``Attribute``; the classes ``__init__``
    exports, and the classes in them, are the package's API and are not
    checked."""
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}
    exported = _exported(trees["__init__"])
    return [f"{qualname}.{name}" for module, tree in trees.items()
            for qualname, node, _ in _definitions(tree, module)
            if isinstance(node, ast.ClassDef) and qualname.split(".")[1] not in exported
            for name in _stored(node) if name not in read]


def test_every_stored_field_in_the_package_is_read_in_it():
    """A value that no code reads is not stored; the exported API's fields
    (``Instance.arc_index``, the ``RoundReport`` fields the command line
    writes through ``vars()``) are exempt."""
    assert _unread_fields(_package_trees()) == []


def test_a_stored_field_no_code_reads_is_unread():
    """A name stored by a field, ``self.name =`` or ``object.__setattr__``
    is read only through an attribute: storing it, or a local of the same
    name, does not count."""
    a = ("from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Box:\n    size: int\n    tag: str\n\n"
         "    def __post_init__(self):\n        object.__setattr__(self, 'half', self.size // 2)\n\n\n"
         "class Bag:\n    def __init__(self, items):\n        self.items = items\n        self.count = len(items)\n"
         "        self.count += 1\n\n\ndef f(box, bag):\n    tag = half = count = 0\n    return box.size + len(bag.items)\n")
    trees = {"a": ast.parse(a), "__init__": ast.parse("from .a import f\n")}
    assert _unread_fields(trees) == ["a.Box.tag", "a.Box.half", "a.Bag.count"]
    trees["b"] = ast.parse("def g(box, bag):\n    return box.tag, box.half, bag.count\n")
    assert _unread_fields(trees) == []
    trees["__init__"] = ast.parse("from .a import Box, Bag, f\n")
    del trees["b"]
    assert _unread_fields(trees) == []


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
