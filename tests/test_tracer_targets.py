"""Every function the benchmark tracer wraps still exists in sclkit.

``perfbench/trace_entry.py`` replaces each entry of its TARGETS with a
timed wrapper and fails at start-up on a name that no longer resolves, so a
deletion in ``src`` can break ``perfbench/run.py --trace 1`` without any
other test noticing.  The table is read with ``ast``: the tracer module
itself is never imported or changed.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
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


def _traced(tmp_path, name, *argv):
    """Run one sclkit request under the unchanged tracer in a fresh process;
    return its exit code and the stats line it wrote."""
    out = tmp_path / f"{name}.spans"
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    r = subprocess.run(
        [sys.executable, str(TRACE_ENTRY), str(out), name, repr(time.perf_counter()), "--",
         *argv],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert "Traceback" not in r.stderr, r.stderr
    return r.returncode, json.loads(out.read_text().splitlines()[0])


def test_the_tracer_runs_a_lower_bound_request_and_its_verify(tmp_path):
    # a traced call or an attribute read by the tracer's NOTES that broke
    # would otherwise show only when the benchmark runs
    cert = tmp_path / "lower.json"
    code, bounds = _traced(
        tmp_path, "scl-bounds", "scl-bounds", "--group", "braid:3/pure-ordinary",
        "--qm", "pullback(homog(brooks(w=xyXY)), pr1)", "--braid", "1,1,2,2,-1,-1,-2,-2",
        "--radius", "2", "--cap", "1", "--format", "json", "--out", str(cert),
    )
    assert code == 0
    assert "scl.mixed_cl_search.moves" in bounds["counters"]
    code, verify = _traced(tmp_path, "verify", "verify", str(cert))
    assert code == 0
    assert verify["counters"]["certio.load_document.bytes"] == cert.stat().st_size
    for stats in (bounds, verify):
        assert stats["stats"]["specs.parse_qm"][0] > 0


def test_the_tracer_runs_a_suite_item_with_a_defect_chain(tmp_path):
    # the NOTES that read DefectChainReport.pairs_checked and
    # ItemResult.slug and .seconds run only on verify-paper requests
    code, stats = _traced(tmp_path, "paper-suite", "verify-paper", "--only", "7", "--seed", "1")
    assert code == 0
    assert stats["counters"]["extension.defect_chain_check.pairs"] > 0
    assert "section-extension" in stats["suite_items"]
