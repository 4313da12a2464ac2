"""Every name a module of the package or of the tests imports is used in
that module.

No linter runs on this tree, so a deletion that leaves an import behind
is caught here.  The package's `__init__.py` is skipped: its imports are
the package's re-exports.  Test modules are named with their folder.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowtrees"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py") \
    + sorted("tests/" + p.name for p in (ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(name bound, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            hint = node.returns if isinstance(node, ast.FunctionDef) \
                else node.annotation
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= _used(ast.parse(hint.value, mode="eval"))
    return names


def test_modules_are_found():
    assert "embedding.py" in MODULES and "absorption.py" in MODULES
    assert "tests/oracles.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    path = ROOT / module if module.startswith("tests/") else PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "%s imports unused names: %s" % (module,
                                                        ", ".join(unused))
