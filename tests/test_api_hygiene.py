"""Checks on the package surface: unused and function-local imports,
functions only the tests call, functions no command runs, stored attributes
nobody reads, records written by hand, the exception classes, raised
AssertionErrors, ``ok`` verdicts outside the output records, the places
that open files or read the lower-bound rule's records, the functions
``verify`` runs, the modules a command loads and the size of the verifier
kernel.

Most checks parse the source with ``ast``, so they see what is written.
The ``verify`` check profiles the calls it makes, the reachability check
profiles a corpus of commands in a fresh process, the module checks import
the package in a fresh process, the kernel check counts lines and the
README check runs README's library example.  The unused-import check
covers the test modules too, and an attribute counts as read when ``src``,
the tests or ``perfbench`` read it.
"""

import ast
import builtins
import json
import re
import subprocess
import sys
from pathlib import Path

import sclkit
from sclkit import certio, cli, suite

SRC = Path(sclkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
README = TESTS.parent / "README.md"

# the verifier kernel: the modules ``verify`` imports and runs
KERNEL = ("words", "groups", "braids", "quasimorphisms", "scl", "specs", "certio")


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


def _function_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, module) of every import inside a module
    function or method, nested functions included."""
    found = []
    for qualname, node in _functions(tree):
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom):
                found.append((qualname, "." * sub.level + (sub.module or "")))
            elif isinstance(sub, ast.Import):
                found += [(qualname, alias.name) for alias in sub.names]
    return found


def test_imports_sit_at_module_tops():
    # so the module tops are the whole import graph that the kernel test reads
    found = [
        f"{path.name} {owner} imports {module}"
        for path in sorted(SRC.glob("*.py"))
        for owner, module in _function_imports(ast.parse(path.read_text()))
    ]
    assert not found, f"move these imports to the module top: {found}"
    source = """
import os

def load():
    import json
    def inner():
        from . import words
    return json

class Table:
    def rows(self):
        from .groups import CyclicZ, FreeGroup
"""
    assert sorted(_function_imports(ast.parse(source))) == [
        ("Table.rows", ".groups"), ("load", "."), ("load", "json"),
    ]


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
    # or an attribute; the tracer names its targets in strings such as
    # "Word.__mul__".  Dunder methods are called by the interpreter.  Name
    # matching is coarse: a method counts as reached when any attribute of
    # its name is read.  Exports do not count, as the package root binds no
    # names; no function was reached through an export alone.
    exceptions: set[str] = set()
    reached = set()
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


# Runs in a fresh process: argv is the src directory and a scratch directory.
# The profiler is installed before ``import sclkit.cli``, so code that runs
# at import counts too.  Prints {command line: exit code}, then the (file
# stem, first line) of every src code object that ran outside the
# ``verify-paper`` lines (import included), then of every one those lines ran.
_CORPUS = r"""
import contextlib, io, json, sys
from pathlib import Path

src, tmp = sys.argv[1], Path(sys.argv[2])
ran = {"other": set(), "verify-paper": set()}
codes, current = {}, ran["other"]

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        current.add((code.co_filename, code.co_firstlineno))

sys.setprofile(profile)
from sclkit import cli

def run(*argv):
    global current
    current = ran["verify-paper" if argv[0] == "verify-paper" else "other"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[" ".join(argv)] = cli.main(list(argv))

ALPHA, X = "1,1,2,2,-1,-1,-2,-2", "1,2,-1,-1,2,1,-2,-2"
LOWER_QM = "pullback(homog(brooks(w=xyXY)), pr1)"
flip, lower, search = (tmp / f"{name}.json" for name in ("flip", "lower", "search"))
# the benchmark's request kinds: flip, search found early and beyond reach,
# verify on intact and corrupted files, and paper-suite items
run("scl-bounds", "--group", "braid:3/pure", f"--braid={ALPHA}", "--n-max", "24",
    "--format", "json", "--out", str(flip))
run("scl-bounds", "--group", "braid:3/pure-ordinary", "--qm", LOWER_QM, f"--braid={X}",
    "--radius", "2", "--cap", "1", "--format", "json", "--out", str(lower))
run("scl-bounds", "--group", "free:2", "--word", "abAB", "--radius", "2", "--cap", "3",
    "--qm", "homog(brooks(w=abAB))", "--format", "json", "--out", str(search))
run("scl-bounds", "--group", "free:2", "--word", "abAB" * 7, "--radius", "2", "--cap", "3",
    "--qm", "homog(brooks(w=abAB))", "--format", "json")
corrupt = {"bound": json.loads(flip.read_text()), "value": json.loads(lower.read_text())}
corrupt["bound"]["items"][0]["bound"] = "1/1000"
corrupt["value"]["items"][-1]["witness"]["value"] = "2"
for step, doc in corrupt.items():
    (tmp / f"corrupt-{step}.json").write_text(json.dumps(doc))
for path in (flip, lower, search, *(tmp / f"corrupt-{step}.json" for step in corrupt)):
    run("verify", str(path), "--format", "json")
for k in range(1, 12):
    if k != 10:
        run("verify-paper", "--only", str(k), "--seed", "1", "--format", "json")
# eval on every quasimorphism head and map
run("eval", "--group", "free:2", "--qm", "zero", "--word", "ab")
run("eval", "--qm", "hom(indexsum)", "--braid", "1,2")
run("eval", "--qm", "brooks(w=ab)", "--word", "abab")
run("eval", "--group", "free:xy", "--qm", "homog(brooks(w=xyXY))", "--word", "xyXY")
run("eval", "--qm", LOWER_QM, f"--braid={ALPHA}", "--format", "json")
run("eval", "--group", "product:free:2,z", "--qm", "pullback(brooks(w=ab), proj-left)",
    "--word", "(ab;3)")
run("eval", "--group", "product:free:2,braid:3", "--qm", "pullback(hom(indexsum), proj-right)",
    "--word", "(ab;1,2)")
# scl-bounds on every group head and pair suffix
run("scl-bounds", "--group", "z", "--word", "2", "--radius", "1", "--cap", "1")
run("scl-bounds", "--group", "free:xy", "--word", "xyXY", "--radius", "1", "--cap", "1")
run("scl-bounds", "--group", "perm:3", "--word", "2,3,1", "--n-max", "1")
run("scl-bounds", "--group", "braid:4", "--braid", "1,3,-1,-3")
run("scl-bounds", "--group", "braid:4/comm", "--braid", "1,-2", "--radius", "1", "--cap", "1")
run("scl-bounds", "--group", "braid:3/comm", "--braid", "1,-2", "--radius", "1", "--cap", "1")
run("scl-bounds", "--group", "product:free:2,z/left", "--word", "(abAB;0)",
    "--radius", "1", "--cap", "1")
sys.setprofile(None)
print(json.dumps(codes))
for calls in ran.values():
    print(json.dumps(sorted(
        (Path(f).stem, line) for f, line in calls if str(Path(f).resolve().parent) == src
    )))
"""


def _raises_not_implemented_only(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _all_functions(tree: ast.Module):
    """(qualified name, first line of its code object) of every def, nested
    ones included, leaving out dunder methods and bodies that only raise
    NotImplementedError.  A decorated function's code starts at its first
    decorator."""

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{sub.name}"
                if isinstance(sub, ast.FunctionDef) and not (
                    (sub.name.startswith("__") and sub.name.endswith("__"))
                    or _raises_not_implemented_only(sub)
                ):
                    yield name, min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                yield from visit(sub, f"{name}.")
            else:
                yield from visit(sub, prefix)

    yield from visit(tree, "")


def test_every_function_runs_under_some_command(tmp_path):
    # a call trace of one request of each benchmark kind, the paper-suite
    # items but 10, eval on every quasimorphism head and map and scl-bounds
    # on every group head and pair suffix; a def that none of them runs has
    # no caller that matters, and a kernel def that only the verify-paper
    # lines run belongs in suite or extension
    allowed = {
        "__main__.run": "the process entry; the corpus calls cli.main in process",
        "braids.sl2_image": "a target of the benchmark tracer",
        "suite.SwapProduct.text": "only builds the detail of a failed suite item 5",
        "suite._random_raw": "suite item 10, left out for time; test_acceptance runs it",
        "suite._item_word_algebra": "suite item 10, left out for time; test_acceptance runs it",
        "suite._word_algebra_shard": "suite item 10, left out for time; test_acceptance runs it",
    }
    # kernel defs that only verify-paper runs, or nothing, each with why it
    # stays in the kernel
    tracer = "a target of the benchmark tracer, which resolves it in this module"
    searches = "the defect searches run it, next to defect_search"
    suite_only = {
        "quasimorphisms.defect_search": tracer,
        "quasimorphisms.invariance_check": tracer,
        "braids.sl2_image": tracer,
        "groups.BallValues.pairs": searches,
        "groups.BallValues.pairs.sphere": searches,
        "groups.GroupContext.product_key": searches,
        "groups.FreeGroup.product_key": searches,
    }
    r = subprocess.run(
        [sys.executable, "-c", _CORPUS, str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    codes_line, other_line, suite_line = r.stdout.splitlines()
    # the corrupted files fail verification; every other command passes
    wrong = {argv: code for argv, code in json.loads(codes_line).items()
             if code != (1 if "corrupt-" in argv else 0)}
    assert not wrong, f"unexpected exit codes: {wrong}"
    other = {tuple(entry) for entry in json.loads(other_line)}
    ran = other | {tuple(entry) for entry in json.loads(suite_line)}
    defs = [(path.stem, qualname, line)
            for path in sorted(SRC.glob("*.py"))
            for qualname, line in _all_functions(ast.parse(path.read_text()))]
    kernel_suite_only = sorted(f"{stem}.{qualname}" for stem, qualname, line in defs
                               if stem in KERNEL and (stem, line) not in other)
    assert kernel_suite_only == sorted(suite_only), (
        f"only verify-paper runs these kernel defs: "
        f"{sorted(set(kernel_suite_only) - set(suite_only))}; listed but now run "
        f"by another command: {sorted(set(suite_only) - set(kernel_suite_only))}"
    )
    never = sorted(f"{stem}.{qualname}" for stem, qualname, line in defs
                   if (stem, line) not in ran)
    assert never == sorted(allowed), (
        f"no command runs: {sorted(set(never) - set(allowed))}; "
        f"allowed but now run: {sorted(set(allowed) - set(never))}"
    )


def test_the_reachability_rule_lists_defs_it_must_see():
    source = """
class Shape:
    def __len__(self):
        return 0

    def area(self):
        \"\"\"Subclasses say.\"\"\"
        raise NotImplementedError

    @property
    def name(self):
        def inner():
            return 1
        return inner()

def top():
    raise NotImplementedError("not yet")
"""
    assert sorted(_all_functions(ast.parse(source))) == [
        ("Shape.name", 10), ("Shape.name.inner", 12),
    ]


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


def _attribute_reads(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, name) of every attribute loaded and of each
    constant name passed to ``getattr``.  A nested function counts as the
    module function or method it sits in, and a read outside any function
    as ``<module>``."""
    owner = {}
    for qualname, node in _functions(tree):
        for sub in ast.walk(node):
            owner[sub] = qualname
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((owner.get(node, "<module>"), node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.append((owner.get(node, "<module>"), node.args[1].value))
    return reads


def _read_attributes(tree: ast.Module) -> set[str]:
    """Every attribute name loaded, plus each constant name passed to
    ``getattr``."""
    return {name for _, name in _attribute_reads(tree)}


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
    # hashes its bare letter tuple
    allowed = {"Frozen.__eq__", "Frozen.__hash__", "Word.__hash__"}
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
    # reads its files through these two
    allowed = {"certio.load_document", "certio.write_text_atomic"}
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


def _memo_caches(tree: ast.Module) -> list[int]:
    """Lines that name ``functools.lru_cache`` or ``functools.cache``,
    through the module or imported from it."""
    names = {"lru_cache", "cache"}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "functools")
        or (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in names for alias in node.names))
    )


def test_src_keeps_no_process_wide_memo_cache():
    # the suite and the tests run many commands in one process, and a
    # result must not depend on the calls made before it
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _memo_caches(ast.parse(path.read_text()))
    ]
    assert not found, f"functools memo caches in src: {found}"
    source = """
import functools
from functools import cache, reduce

@functools.lru_cache(maxsize=10)
def f(x):
    return x

g = functools.cache(f)
h = functools.partial(f, 1)
"""
    assert _memo_caches(ast.parse(source)) == [3, 5, 9]


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
    # paper's certificates it runs no search, no producer, no suite item and
    # no command
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
        if module in ("suite", "extension", "norms", "search", "cli")
        or qualname.partition(".")[0] in searches
    )
    assert not found, f"verify ran: {found}"


def test_suite_item_11_runs_no_command_line_code():
    # item 11 checks its files with certio.verify_file, the check sclkit
    # verify runs, so the suite is a client of the kernel, not of cli
    result, ran = _profiled(suite.run_item, suite.find_item("11"), suite.DEFAULT_SEED)
    assert result.ok, result.detail
    assert ("certio", "verify_file") in ran
    found = sorted(qualname for module, qualname in ran if module == "cli")
    assert not found, f"item 11 ran: {found}"


def _sclkit_modules_after(statement: str) -> list[str]:
    """The sclkit modules loaded, sorted, after running statement in a
    fresh process."""
    code = (f"import sys; {statement}; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'sclkit'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_certio_imports_only_the_verifier_kernel():
    # what verify can reach is what a reader must audit; norms, extension,
    # search, suite and cli stay outside it, and the command line loads them
    # all; search loads the kernel alone, so the suite may call it
    kernel = ["sclkit", *(f"sclkit.{m}" for m in KERNEL)]
    assert _sclkit_modules_after("import sclkit") == ["sclkit"]
    assert _sclkit_modules_after("import sclkit.certio") == sorted(kernel)
    assert _sclkit_modules_after("import sclkit.search") == sorted([*kernel, "sclkit.search"])
    everything = sorted(f"sclkit.{p.stem}" for p in SRC.glob("*.py")
                        if p.stem not in ("__init__", "__main__"))
    assert _sclkit_modules_after("import sclkit.cli") == ["sclkit", *everything]


def test_only_verify_payload_compares_a_claimed_bound():
    # each kind's rule meets the claim in one place, at step "bound arithmetic"
    places = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and any(
                    isinstance(a, ast.Constant) and a.value == "bound arithmetic"
                    for a in node.args
                ):
                    places.append(f"{path.stem}.{fn.name}")
    assert sorted(set(places)) == ["certio.verify_payload"], places


# the readers of the quasimorphism records that decide a lower bound:
# scl.lower_refusal states the homogeneity, invariance and domain rule once,
# and extension.homogenize reads homogeneous to evaluate, not to refuse
RULE_READERS = {
    "defined_on": {"scl.lower_refusal"},
    "homogeneous": {"scl.lower_refusal", "extension.homogenize"},
}


def test_only_lower_refusal_states_the_lower_bound_rule():
    # quasimorphisms builds the records, so it may read them to build more
    found: dict[str, set[str]] = {name: set() for name in RULE_READERS}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "quasimorphisms":
            for fn, name in _attribute_reads(ast.parse(path.read_text())):
                if name in RULE_READERS:
                    found[name].add(f"{path.stem}.{fn}")
    assert found == RULE_READERS


def test_the_rule_read_check_notices_a_planted_read():
    source = """
def bavard_lower(qm):
    if not qm.homogeneous:
        raise ValueError

class Extension:
    def check(self, qm):
        return (lambda: getattr(qm, "defined_on"))()

qm.defined_on = None
qm.invariant
"""
    reads = [read for read in _attribute_reads(ast.parse(source)) if read[1] in RULE_READERS]
    assert sorted(reads) == [("Extension.check", "defined_on"), ("bavard_lower", "homogeneous")]


def test_the_verifier_kernel_is_no_longer_than_readme_states():
    # a change that grows or shrinks the kernel moves README's figure with it
    stated = re.search(r"verifier kernel[^.]*? (\d+) lines", README.read_text())
    assert stated, "README states no line count for the verifier kernel"
    lines = sum(len((SRC / f"{m}.py").read_text().splitlines()) for m in KERNEL)
    assert lines == int(stated[1]), f"the kernel has {lines} lines, README states {stated[1]}"


def test_the_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is a fresh process; dataclasses (which brings inspect,
    # ast, dis and tokenize) cost each of them about 30 ms at import, and
    # typing a few ms more.  -S keeps site's .pth files, which may load
    # typing themselves, out of the process; a whole verify request runs
    corpus = Path(__file__).with_name("certificates") / "flip-alpha-n4.json"
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import sclkit.cli as cli; "
            f"code = cli.main(['verify', {str(corpus)!r}]); "
            "print(code, sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"
