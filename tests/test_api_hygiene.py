"""Checks on the package surface: stale exports, unused imports, functions
only the tests call, stored attributes nobody reads, records written by
hand, the exception classes, raised AssertionErrors, ``ok`` verdicts
outside the output records, the places that open files, the functions
``verify`` runs and the modules a command loads.

All but the last two parse the source with ``ast``, so they see what is
written; the export check then resolves each listed name on the imported
package.  The import check covers the test modules too, and an attribute
counts as read when ``src``, the tests or ``perfbench`` read it.  The
``verify`` check profiles the calls it makes, and the last one imports the
command line in a fresh process.
"""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import sclkit
from sclkit import certio, cli, suite

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
    """Attribute name -> line of every assignment to ``self.<name>`` and of
    every field a ``Frozen`` subclass annotates in its body."""
    stored = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases
        ):
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                    stored.setdefault(field.target.id, field.lineno)
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


def _hand_written_record_methods(tree: ast.Module):
    """(class.method, line) of every ``__eq__`` and ``__hash__``, and of
    every ``__init__`` whose body only copies its parameters onto self,
    by assignment or through a setter called as ``setter(self, param)``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in ("__eq__", "__hash__"):
                yield f"{cls.name}.{node.name}", node.lineno
            elif node.name == "__init__":
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args[1:] + args.kwonlyargs}
                body = [
                    stmt for stmt in node.body
                    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                ]
                if body and all(_copies_a_parameter(stmt, params) for stmt in body):
                    yield f"{cls.name}.__init__", node.lineno


def _copies_a_parameter(stmt: ast.stmt, params: set[str]) -> bool:
    def is_self(node):
        return isinstance(node, ast.Name) and node.id == "self"

    def is_param(node):
        return isinstance(node, ast.Name) and node.id in params

    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        return isinstance(target, ast.Attribute) and is_self(target.value) and is_param(stmt.value)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return len(call.args) == 2 and is_self(call.args[0]) and is_param(call.args[1])
    return False


def test_records_come_from_frozen_not_by_hand():
    # words.Frozen builds __init__, == and hash from annotated fields.  Word
    # hashes its bare letter tuple; the INFINITY singleton equals itself only
    allowed = {
        "Frozen.__eq__", "Frozen.__hash__", "Word.__hash__", "_Infinity.__eq__", "_Infinity.__hash__",
    }
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _hand_written_record_methods(ast.parse(path.read_text()))
        if name not in allowed
    ]
    assert not found, f"write these classes as annotated Frozen subclasses: {found}"


def test_the_record_rule_notices_a_hand_written_record():
    source = """
class Pair:
    def __init__(self, left, right):
        self.left = left
        _set_right(self, right)

class Checked:
    def __init__(self, value):
        self.value = value
        self.check()

class Point:
    def __eq__(self, other):
        return True
"""
    found = [name for name, _ in _hand_written_record_methods(ast.parse(source))]
    assert found == ["Pair.__init__", "Point.__eq__"]


def _exception_classes(trees) -> set[str]:
    """Names of the classes that derive from a built-in exception, directly
    or through another class of the given modules."""
    bases = {
        cls.name: {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in cls.bases}
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }
    found = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found & set(bases)
        found |= more


def test_src_defines_one_failure_type_among_three_exception_classes():
    # a check that finds a counterexample raises StepFailure(step, detail);
    # the others refuse input or a hypothesis before any check runs
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _exception_classes(trees) == {"StepFailure", "PreconditionError", "SpecError"}


def test_the_exception_rule_follows_derived_classes():
    source = """
class _StepFailure(Exception):
    pass

class Nested(_StepFailure):
    pass

class Report:
    pass
"""
    assert _exception_classes([ast.parse(source)]) == {"_StepFailure", "Nested"}


def _assertion_errors(tree: ast.Module) -> list[int]:
    """Lines of every ``assert`` statement and every raised AssertionError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return lines


def test_src_raises_no_assertion_error():
    # a failed check is a StepFailure at a named step; an AssertionError
    # reaches the command line as a traceback, and python -O drops asserts
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _assertion_errors(ast.parse(path.read_text()))
    ]
    assert not found, f"raise StepFailure(step, detail) instead: {found}"


def _ok_members(tree: ast.Module) -> list[str]:
    """``Class.ok`` for every class that defines a member named ``ok``: a
    field, a method or property, or a class attribute."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            elif isinstance(node, ast.Assign):
                names = [getattr(t, "id", None) for t in node.targets]
            else:
                continue
            if "ok" in names:
                found.append(f"{cls.name}.ok")
    return found


def test_only_output_records_carry_an_ok_verdict():
    # a check raises at its first counterexample, so only the records that
    # report many checks to the user carry a verdict
    allowed = {"VerificationReport.ok", "SuiteReport.ok", "CheckResult.ok", "ItemResult.ok"}
    found = [
        f"{path.name} {member}"
        for path in sorted(SRC.glob("*.py"))
        for member in _ok_members(ast.parse(path.read_text()))
        if member not in allowed
    ]
    assert not found, f"raise StepFailure(step, detail) instead of reporting ok: {found}"


def test_the_assertion_and_ok_rules_notice_their_targets():
    source = """
class Report:
    ok: bool

class Chain:
    @property
    def ok(self):
        assert self.values
        return True

class Flag:
    ok = False

def check(x):
    if not x:
        raise AssertionError("broken")
    raise AssertionError
"""
    tree = ast.parse(source)
    assert _ok_members(tree) == ["Report.ok", "Chain.ok", "Flag.ok"]
    assert sorted(_assertion_errors(tree)) == [8, 16, 17]


def _file_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call that opens or reads a file:
    ``open``, and any ``.open``, ``.read_bytes``, ``.read_text`` or
    ``.fdopen``.  A nested function counts as the module function or method
    it sits in, and a call outside any function as ``<module>``."""
    owner = {}
    for qualname, node in _functions(tree):
        for sub in ast.walk(node):
            owner[sub] = qualname
    return [
        (owner.get(node, "<module>"), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("open", "read_bytes", "read_text", "fdopen")
            )
        )
    ]


def test_only_certificate_io_opens_files():
    # verify trusts nothing in a file but the statement it checks, so the
    # one file it reads is its certificate; item 11 of the suite writes and
    # reads files of its own in a temporary directory
    allowed = {"certio.load_document", "certio.write_text_atomic", "suite._item_certificates"}
    found = [
        f"{path.name}:{line} {owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner, line in _file_reads(ast.parse(path.read_text()))
        if f"{path.stem}.{owner}" not in allowed
    ]
    assert not found, f"files opened outside the certificate reader and writers: {found}"
    source = """
import os

def load(path):
    def inner():
        return path.read_text()
    return open(path).read(), inner

class Table:
    def rows(self, fd):
        return os.fdopen(fd).read(), self.path.open(), self.path.read_bytes()

HEADER = open("header").read()
"""
    assert sorted(_file_reads(ast.parse(source))) == [
        ("<module>", 13), ("Table.rows", 11), ("Table.rows", 11), ("Table.rows", 11),
        ("load", 6), ("load", 7),
    ]


def _profiled(fn, *args):
    """fn(*args), and the (module, qualified name) of every sclkit function
    called while it runs."""
    ran, modules = set(), {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename not in modules:
                path = Path(code.co_filename).resolve()
                modules[code.co_filename] = path.stem if path.parent == SRC else None
            if modules[code.co_filename] is not None:
                ran.add((modules[code.co_filename], code.co_qualname))

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, ran


def test_verify_runs_no_search_and_no_suite_code(tmp_path):
    # verify recomputes each claim from the certificate alone: on the
    # paper's certificates it runs no search, no suite item and no command
    docs = [certio.document(suite.standalone_certificates())]
    alpha, x = "1,1,2,2,-1,-1,-2,-2", "1,2,-1,-1,2,1,-2,-2"
    for args in (
        ("--group", "braid:3/pure", "--braid", alpha),
        ("--group", "braid:3/pure", "--braid", x),
        ("--group", "braid:3/pure-ordinary", "--braid", alpha,
         "--qm", "pullback(homog(brooks(w=xyXY)), pr1)"),
        ("--group", "free:2", "--word", "abAB"),
    ):
        out = tmp_path / "bounds.json"
        assert cli.main(["scl-bounds", *args, "--format", "json", "--out", str(out)]) == 0
        docs.append(certio.load_document(out))
    ran = set()
    for doc in docs:
        report, calls = _profiled(certio.verify_document, doc)
        assert report.ok and report.checks, report.describe()
        ran |= calls
    searches = {"ProductSearch", "BallValues", "mixed_cl_search", "defect_search"}
    found = sorted(
        f"{module}.{qualname}"
        for module, qualname in ran
        if module in ("suite", "extension", "norms", "cli")
        or qualname.partition(".")[0] in searches
    )
    assert not found, f"verify ran: {found}"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is a fresh process; dataclasses (which brings inspect,
    # ast, dis and tokenize) cost each of them about 30 ms at import
    code = "import sys, sclkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
