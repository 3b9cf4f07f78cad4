"""Static checks on the standard library's ``ast`` alone: every module of the
package, ``__init__.py`` aside, uses each name it imports (a stand-in for a
linter's unused-import rule); every name the package root exports, and every
public function, class, method and property a module defines, is used
outside the tests; every package name a demo uses exists; the record's
formulas are written in one module; one function steps a trajectory; and
the modules every command loads import no module that only some commands
use. Then checks, each in a fresh interpreter, of the modules that
``import tcm2d`` and each command load."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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
    """The names of the package root's ``_EXPORTS`` table (module -> the
    names it exports), read without importing the package."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]:
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("the package root has no _EXPORTS table")


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
    init = '_EXPORTS = {"ops": ("Grid", "helper", "planted")}\n'
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


#: the names of the block layout that only ``spectral`` may use
LAYOUT_NAMES = ("_gather", "_scatter", "spec_shape")


def layout_uses(source: str) -> list[str]:
    """The lines of a module that define, import or read the gather or the
    scatter of the kept block, or read a Grid's ``spec_shape``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names] + [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        found.update((node.lineno, name) for name in names if name in LAYOUT_NAMES)
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in SRC.glob("*.py") if p.name != "spectral.py"], ids=lambda p: p.name)
def test_block_layout_stays_in_spectral(path):
    # fields, states, the step and the snapshot format share one layout,
    # decided in spectral: the others take block spectra, and transform them
    # through spectral._irfft2 and spectral._rfft2
    assert layout_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_layout_use():
    source = (
        "from . import spectral\nfrom .spectral import Grid, _scatter as pad\n\n\ndef _gather(a):\n    return a\n\n\n"
        "shape = Grid(8).spec_shape\nspectral._scatter(pad, shape)\n"
    )
    assert layout_uses(source) == ["line 2: _scatter", "line 5: _gather", "line 9: spec_shape", "line 10: _scatter"]
    assert layout_uses((SRC / "spectral.py").read_text(encoding="utf-8"))


#: the names of the block's constant tables that only ``spectral`` reads, and
#: the wavenumber helpers that no module uses
TABLE_NAMES = ("herm_weight", "kx_int", "ky_int")
FREQ_NAMES = ("fftfreq", "rfftfreq")


def table_uses(source: str, module: str) -> list[str]:
    """The lines of a module that import or read ``fftfreq`` or
    ``rfftfreq``, or, unless the module is ``spectral``, a Grid's
    ``herm_weight``, ``kx_int`` or ``ky_int``."""
    banned = FREQ_NAMES if module == "spectral" else TABLE_NAMES + FREQ_NAMES
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        found.update((node.lineno, name) for name in names if name in banned)
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_block_tables_are_built_in_spectral(path):
    # the Grid owns the block's wavenumbers and Parseval weights, built from
    # exact integers (fftfreq(n, 1 / n) is one ulp off an integer at some n):
    # the other modules read its multipliers and its weights
    assert table_uses(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_finds_a_table_use():
    source = (
        "import numpy as np\nfrom numpy.fft import rfftfreq\n\n\n"
        "def weights(g):\n    band = np.maximum(abs(g.kx_int), abs(g.ky_int))\n"
        "    return g.herm_weight * band, np.fft.fftfreq(g.n, 1.0 / g.n), rfftfreq(g.n)\n"
    )
    assert table_uses(source, "model") == ["line 2: rfftfreq", "line 6: kx_int", "line 6: ky_int",
                                           "line 7: fftfreq", "line 7: herm_weight", "line 7: rfftfreq"]
    assert table_uses(source, "spectral") == ["line 2: rfftfreq", "line 7: fftfreq", "line 7: rfftfreq"]


#: the modules that every command loads (the set-up of a run: parse a config,
#: build the initial state), and the modules that only some commands use,
#: which the first may not import at module level
CORE_MODULES = ("config", "errors", "model", "records", "spectral")
COMMAND_MODULES = ("cli", "derived", "diagnostics", "gronwall", "storage")


def _package_modules(node) -> list[str]:
    # the package modules an import statement names
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("tcm2d.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module != "tcm2d" and not module.startswith("tcm2d."):
            return []
        module = module.partition(".")[2]
    return [module.split(".")[0]] if module else [a.name for a in node.names]


def layering_breaches(source: str) -> list[str]:
    """The lines of a module that import one of ``COMMAND_MODULES`` at
    module level (a class body included), outside every function."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            found.extend((child.lineno, m) for m in _package_modules(child) if m in COMMAND_MODULES)
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}: {module}" for line, module in sorted(found)]


@pytest.mark.parametrize("module", CORE_MODULES)
def test_core_modules_import_no_command_module(module):
    # what a run's set-up imports, every command pays for: the rules these
    # modules share with the others live here or below
    assert layering_breaches((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_check_finds_a_planted_edge():
    source = (
        "from __future__ import annotations\nfrom . import errors, storage\nfrom .derived import _check_eps\n"
        "import tcm2d.gronwall\nfrom tcm2d import diagnostics\nimport numpy\n\n\n"
        "class Config:\n    from .cli import main\n\n    def later(self):\n        from . import diagnostics\n\n\n"
        "def later():\n    from .storage import RunWriter\n"
    )
    assert layering_breaches(source) == ["line 2: storage", "line 3: derived", "line 4: gronwall",
                                         "line 5: diagnostics", "line 10: cli"]


def test_every_export_resolves():
    import tcm2d

    for module, names in tcm2d._EXPORTS.items():
        home = importlib.import_module(f"tcm2d.{module}")
        for name in names:
            assert getattr(tcm2d, name) is getattr(home, name)
    assert set(tcm2d._MODULE_OF) <= set(dir(tcm2d))
    assert not hasattr(tcm2d, "no_such_name")


# Which modules each entry point loads, each in a fresh interpreter.
SMALL_CONFIG = """\
[grid]
n = 16

[time]
dt = 0.01
horizon = 0.04

[model]
eps = 0.1

[init]
preset = random_band
seed = 3
"""
GRONWALL_CSV = "time,A,B,alpha,beta\n0,1.0,1.0,0.5,0.1\n0.1,1.05,1.1,0.5,0.1\n0.2,1.1,1.2,0.5,0.1\n"


def loaded_modules(code: str, cwd) -> set[str]:
    """The package modules a fresh interpreter has loaded once ``code`` ran;
    ``code`` sets ``exit_code``, else 0, which must be 0."""
    script = (f"import sys\nexit_code = 0\n{code}\n"
              "print('loaded', *sorted(m for m in sys.modules if m.startswith('tcm2d.')))\nsys.exit(exit_code)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {name.removeprefix("tcm2d.") for name in proc.stdout.splitlines()[-1].split()[1:]}


def test_package_root_loads_no_module(tmp_path):
    assert loaded_modules("import tcm2d", tmp_path) <= {"errors"}


def test_set_up_loads_the_core_modules(tmp_path):
    # what a command does before its first step: parse its config and build
    # the initial state
    (tmp_path / "run.cfg").write_text(SMALL_CONFIG)
    code = ("import tcm2d\nfrom tcm2d import config, model\n"
            "cfg, _ = config.parse_config_file('run.cfg')\nmodel.make_initial(cfg)")
    assert loaded_modules(code, tmp_path) == set(CORE_MODULES)


RUN_MODULES = {*CORE_MODULES, "cli", "storage"}
HARNESS_MODULES = RUN_MODULES | {"derived", "diagnostics", "gronwall"}


@pytest.mark.parametrize("argv, modules", [
    (["run", "--config", "run.cfg", "--out", "run"], RUN_MODULES),
    (["check", "--config", "run.cfg", "--out", "check"], HARNESS_MODULES),
    (["sweep-eps", "--config", "run.cfg", "--levels", "0.1,0", "--out", "sweep"], HARNESS_MODULES),
    (["twin", "--config", "run.cfg", "--out", "twin"], HARNESS_MODULES),
    (["gronwall", "--csv", "series.csv", "--fit-k"], RUN_MODULES | {"gronwall"}),
], ids=["run", "check", "sweep-eps", "twin", "gronwall"])
def test_each_command_loads_what_it_runs(tmp_path, argv, modules):
    (tmp_path / "run.cfg").write_text(SMALL_CONFIG)
    (tmp_path / "series.csv").write_text(GRONWALL_CSV)
    code = f"from tcm2d.cli import main\nexit_code = main({argv!r})"
    assert loaded_modules(code, tmp_path) == modules
