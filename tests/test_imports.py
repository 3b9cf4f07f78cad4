"""Static checks on the standard library's ``ast`` alone: every module of the
package, ``__init__.py`` aside, uses each name it imports (a stand-in for a
linter's unused-import rule); every name the package root exports, and every
public function, class, method and property a module defines, is used
outside the tests; every package name a demo uses exists; the record's
formulas are written in one module; and one function steps a trajectory."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcm2d"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    # names inside string annotations, such as "records.DiagnosticsSeries"
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.AnnAssign, ast.arg))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for a in annotations:
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            yield from (n.id for n in ast.walk(ast.parse(a.value, mode="eval")) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .spectral import Grid, norm\nx: 'Grid' = np.zeros(norm)\n"
    assert unused_imports(source) == ["line 1: os"]


# Every name the package root exports, and every public function, class,
# method and property a package module defines, is used by a package module or
# a demo, or is named here with the reason it stays public although neither
# uses it.
# Tests do not count: a name only tests call is test-only public API.
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))
UNUSED_EXPORTS_ALLOWED = {
    "commutator_estimate_ratio": "the commutator estimate that acceptance criterion c5 checks",
    "inv_neg_laplacian": "the (-lap)^-1 multiplier of the spectral module docstring",
    "grad": "the gradient of the operator algebra, the partner of div",
}


def exported_names(init_source: str) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _module_aliases(tree) -> set[str]:
    # names bound to a package module: "import tcm2d as t", "from . import derived"
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "tcm2d")
        elif isinstance(node, ast.ImportFrom) and (node.module is None and node.level or node.module == "tcm2d"):
            aliases.update(a.asname or a.name for a in node.names)
    return aliases


def _references(node, modules, inside=()):
    # names read (not bound: a config field "dealias" is not the function) and
    # attributes of package modules (t.norm, derived.pseudo_baroclinic), except
    # inside the definition of the function or class they name: a recursive
    # call is no use
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside += (node.name,)
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
        name = node.attr
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, modules, inside)


def _used_names(sources) -> set[str]:
    used = set()
    for source in sources:
        tree = ast.parse(source)
        used.update(_references(tree, _module_aliases(tree)))
        used.update(_annotation_names(tree))
    return used


def _attributes(node, inside=()):
    # attribute names read (s.grid, cfg.num_steps()), except inside the
    # definition of the method they name
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside += (node.name,)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in inside:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _attributes(child, inside)


def _public_methods(tree):
    # (class, method) for the public methods and properties of public classes
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def unused_exports(init_source: str, sources) -> list[str]:
    return sorted(exported_names(init_source) - _used_names(sources))


def unused_definitions(modules, demos) -> list[str]:
    """The public module-level functions and classes of ``modules`` that no
    module or demo uses, and the public methods and properties of those
    classes (as ``Class.method``) whose name no module or demo reads as an
    attribute."""
    trees = [ast.parse(source) for source in modules]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = {a for source in modules + demos for a in _attributes(ast.parse(source))}
    methods = {f"{cls}.{name}" for tree in trees for cls, name in _public_methods(tree) if name not in read}
    return sorted((defined - _used_names(modules + demos)) | methods)


def _sources(paths) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in paths]


def test_every_export_is_used():
    unused = unused_exports((SRC / "__init__.py").read_text(encoding="utf-8"), _sources(MODULES + DEMOS))
    assert unused == sorted(UNUSED_EXPORTS_ALLOWED)


def test_every_public_definition_is_used():
    assert unused_definitions(_sources(MODULES), _sources(DEMOS)) == sorted(UNUSED_EXPORTS_ALLOWED)


def test_the_check_finds_an_unused_definition():
    modules = _sources(MODULES)
    modules[0] += "\n\ndef planted_helper(x):\n    return planted_helper(x - 1) if x else 0\n"
    assert unused_definitions(modules, _sources(DEMOS)) == sorted({*UNUSED_EXPORTS_ALLOWED, "planted_helper"})


def test_the_check_finds_an_unused_method():
    modules = _sources(MODULES)
    modules[0] += (
        "\n\nclass Planted:\n    def used(self):\n        return self.used\n\n"
        "    @property\n    def planted(self):\n        return self.planted\n\n\nPlanted().used()\n"
    )
    assert unused_definitions(modules, _sources(DEMOS)) == sorted({*UNUSED_EXPORTS_ALLOWED, "Planted.planted"})


def test_the_check_finds_a_test_only_export():
    init = "from .ops import Grid, helper, planted\n"
    module = (
        "class Grid:\n    def copy(self) -> 'Grid':\n        return Grid()\n"
        "def helper(g: Grid):\n    return g\n"
        "def planted(f):\n    return f if f is None else planted(f.planted)\n"
        "class Config:\n    planted: bool = True\n"
    )
    demo = "import tcm2d as t\nt.helper(t.Grid())\n"
    assert unused_exports(init, [module]) == ["helper", "planted"]
    assert unused_exports(init, [module, demo]) == ["planted"]


def test_record_formulas_are_stated_once():
    # only B reads these norms, so a module that names one restates a formula
    # of records.derived_columns, as check once did
    names = ("grad_lap_u_l2", "grad_lap_w_l2", "lap_theta_l2")
    naming = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(n in node.value for n in names)
    }
    assert naming == {"records.py"}


def unresolved_package_names(source: str) -> list[str]:
    """The ``tcm2d`` names a script uses, as ``alias.name...`` after
    ``import tcm2d as alias`` or through ``from tcm2d... import name``, that
    the package does not have."""
    tree = ast.parse(source)
    roots, missing = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tcm2d":
                    bound = alias.name if alias.asname else "tcm2d"
                    roots[alias.asname or "tcm2d"] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tcm2d":
            module = importlib.import_module(node.module)
            missing.update(f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            obj = roots[node.id]
            for i, attr in enumerate(chain):
                if not hasattr(obj, attr):
                    missing.add(".".join([node.id] + chain[: i + 1]))
                    break
                obj = getattr(obj, attr)
    return sorted(missing)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    assert unresolved_package_names(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_removed_name():
    source = (
        "import tcm2d as t\nfrom tcm2d.storage import write_csv, write_rows\n"
        "g = t.Grid(8)\nt.SpectralField.from_phys(g, 0)\nt.SpectralField.from_grid(g)\nt.removed_operator(g)\n"
    )
    assert unresolved_package_names(source) == ["t.SpectralField.from_grid", "t.removed_operator", "tcm2d.storage.write_rows"]


def test_run_dir_layout_is_stated_once():
    # the file names of a run directory are string constants of storage
    # alone, and only storage makes a snapshot's path
    names = {"config.cfg", "diagnostics.csv", "manifest.json", "snapshots"}
    holding, naming = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names:
                holding.add(path.name)
            if "_snapshot_path" in (getattr(node, "id", None), getattr(node, "attr", None)):
                naming.add(path.name)
    assert holding == {"storage.py"}
    assert naming <= {"storage.py"}


def _callers(attr):
    # (module, innermost enclosing function) of every call of a name or an
    # attribute called attr in the package
    found = set()

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                if attr in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                    found.add((module, func))
            visit(child, module, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_stepping_rule_is_stated_once():
    # runs, twins and sweep members all step through model._trajectory, and
    # the guard runs only there (on the initial state) and in each step
    assert _callers("imex_step") == {("model", "_trajectory")}
    assert _callers("guard") == {("model", "imex_step"), ("model", "_trajectory")}
