"""Every function the benchmark tracer wraps still exists in sclkit.

``perfbench/trace_entry.py`` replaces each entry of its TARGETS with a
timed wrapper and fails at start-up on a name that no longer resolves, so a
deletion in ``src`` can break ``perfbench/run.py --trace 1`` without any
other test noticing.  The table is read with ``ast``: the tracer module
itself is never imported or changed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import sclkit
from sclkit.groups import GroupContext

TRACE_ENTRY = Path(__file__).resolve().parent.parent / "perfbench" / "trace_entry.py"


def _targets() -> tuple:
    tree = ast.parse(TRACE_ENTRY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE_ENTRY} defines no TARGETS")


def _group_contexts() -> list[type]:
    """Every GroupContext subclass bound in a module of the package
    (``__main__`` would run the command line)."""
    modules = [importlib.import_module(f"sclkit.{info.name}")
               for info in pkgutil.iter_modules(sclkit.__path__)
               if info.name != "__main__"]
    return [c for m in modules for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, GroupContext)]


def _unresolved(module_name: str, attr: str) -> str | None:
    module = importlib.import_module(module_name)
    owner, _, member = attr.rpartition(".")
    if owner == "*":
        if not any(member in cls.__dict__ for cls in _group_contexts()):
            return f"no GroupContext subclass defines {member}"
    elif owner:
        cls = getattr(module, owner, None)
        if not isinstance(cls, type):
            return f"{module_name} has no class {owner}"
        if member not in cls.__dict__:
            return f"{owner} does not define {member} itself"
    elif not callable(getattr(module, member, None)):
        return f"{module_name} has no function {member}"
    return None


def test_every_tracer_target_resolves():
    targets = _targets()
    assert len(targets) > 30
    problems = [f"{name}: {why}" for name, module_name, attr in targets
                if (why := _unresolved(module_name, attr)) is not None]
    assert problems == []


def test_the_resolver_notices_a_missing_name():
    assert _unresolved("sclkit.groups", "GroupHom.no_such_method") is not None
    assert _unresolved("sclkit.groups", "*.no_such_method") is not None
    assert _unresolved("sclkit.quasimorphisms", "no_such_function") is not None
    assert _unresolved("sclkit.words", "NoSuchClass.__mul__") is not None
