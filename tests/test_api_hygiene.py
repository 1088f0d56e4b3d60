"""Checks on the package surface: stale exports, unused imports, functions
only the tests call, stored attributes nobody reads and the modules a
command loads.

All but the last parse the source with ``ast``, so they see what is
written; the export check then resolves each listed name on the imported
package.  The import check covers the test modules too, and an attribute
counts as read when ``src``, the tests or ``perfbench`` read it.  The last
one imports the command line in a fresh process.
"""

import ast
import subprocess
import sys
from pathlib import Path

import sclkit

SRC = Path(sclkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


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


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, call position or None, line) of every
    defaulted parameter.  A method's position counts after self or cls, and
    ``__init__`` is called by its class name."""

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = owner if node.name == "__init__" else node.name
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                shift = 1 if owner is not None and not static else 0
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield callee, arg.arg, i - shift, arg.lineno
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield callee, arg.arg, None, arg.lineno
                yield from visit(node.body, None)

    yield from visit(tree.body, None)


def _call_settings(tree: ast.AST) -> tuple[set, dict]:
    """Keywords set per callee name, and the most positional arguments any
    call of that name passes."""
    keywords, positions = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        keywords |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
        positions[name] = max(positions.get(name, 0), len(node.args))
    return keywords, positions


def test_every_defaulted_parameter_is_set_by_some_call():
    # main(argv) is the entry point: the process entry in __main__ calls it
    # bare and the tests pass argv
    exceptions = {("cli.py", "main", "argv")}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    keywords, positions = set(), {}
    for tree in trees.values():
        kw, pos = _call_settings(tree)
        keywords |= kw
        for name, count in pos.items():
            positions[name] = max(positions.get(name, 0), count)
    unset = []
    for filename, tree in trees.items():
        for callee, param, position, line in _defaulted_parameters(tree):
            if (filename, callee, param) in exceptions or (callee, param) in keywords:
                continue
            if position is not None and positions.get(callee, 0) > position:
                continue
            unset.append(f"{filename}:{line} {callee}({param})")
    assert not unset, f"defaulted parameters no call in sclkit sets: {unset}"


def _functions(tree: ast.Module):
    """(qualified name, def node) of every module function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def test_every_function_is_reached_outside_the_tests():
    # a function is reached when src or perfbench reads its name, as a name
    # or an attribute, or when __all__ exports it; the tracer names its
    # targets in strings such as "Word.__mul__".  Dunder methods are called
    # by the interpreter.  Name matching is coarse: a method counts as
    # reached when any attribute of its name is read.
    exceptions: set[str] = set()
    reached = set(_all_names())
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        reached |= _used_names(tree) | _read_attributes(tree)
        if path.parent == PERFBENCH:
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reached |= set(node.value.split("."))
    unreached = [
        f"{path.name}:{qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, node in _functions(ast.parse(path.read_text()))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in reached
    ]
    assert sorted(unreached) == sorted(exceptions), (
        f"functions only the tests reach: {sorted(set(unreached) - exceptions)}; "
        f"exceptions now reached: {sorted(exceptions - set(unreached))}"
    )


def _stored_on_self(tree: ast.AST) -> dict[str, int]:
    """Attribute name -> line of every assignment to ``self.<name>``."""
    stored = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                stored.setdefault(target.attr, target.lineno)
    return stored


def _read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute name loaded, plus each constant name passed to
    ``getattr``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    return read


def test_every_stored_attribute_is_read_somewhere():
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        read |= _read_attributes(ast.parse(path.read_text()))
    unread = [
        f"{path.name}:{line} self.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _stored_on_self(ast.parse(path.read_text())).items()
        if name not in read
    ]
    assert not unread, f"stored on self but never read in src, tests or perfbench: {unread}"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is a fresh process; dataclasses (which brings inspect,
    # ast, dis and tokenize) cost each of them about 30 ms at import
    code = "import sys, sclkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
