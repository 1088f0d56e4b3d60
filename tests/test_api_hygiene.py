"""Checks on the package surface: stale exports, unused imports and the
modules a command loads.

The first two parse the source with ``ast``, so they see what is written;
the export check then resolves each listed name on the imported package.
The import check covers the test modules too.  The last one imports the
command line in a fresh process.
"""

import ast
import subprocess
import sys
from pathlib import Path

import sclkit

SRC = Path(sclkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _all_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    raise AssertionError("sclkit/__init__.py defines no __all__")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name -> line of every binding made by an import statement."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read in code, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_all_names_resolve_once():
    names = _all_names()
    duplicates = sorted({n for n in names if names.count(n) > 1})
    assert not duplicates, f"listed more than once in __all__: {duplicates}"
    missing = [n for n in names if not hasattr(sclkit, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_modules_import_only_names_they_use():
    unused = []
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in modules + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.parent.name}/{path.name}:{line} {name}")
    assert not unused, f"imported but never used: {unused}"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is a fresh process; dataclasses (which brings inspect,
    # ast, dis and tokenize) cost each of them about 30 ms at import
    code = "import sys, sclkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
