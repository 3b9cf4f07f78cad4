"""Every module of the package, ``__init__.py`` aside, uses each name it
imports. A stand-in for a linter's unused-import rule, on the standard
library's ``ast`` alone."""

import ast
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
