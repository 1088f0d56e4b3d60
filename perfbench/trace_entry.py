"""Traced entry point: run one sclkit command with its layers timed.

    python3 perfbench/trace_entry.py SPANS_OUT REQUEST_ID SPAWNED_AT -- ARGV...

SPAWNED_AT is the parent's ``time.perf_counter()`` just before the spawn
(the same monotonic clock in every process), so ``cli.import`` covers the
interpreter start and ``import sclkit.cli``.  The tracer then wraps the
functions in TARGETS, replacing each name in every ``sclkit.*`` namespace
that binds it (``from .braids import normal_form`` leaves a copy in the
importing module), and calls ``sclkit.cli.main(ARGV)``.

Every call adds to its function's count and self time (duration minus the
time covered by traced children).  The first SPAN_LIMIT calls of each
function are also kept as spans (id, parent id, name, start, end); later
calls are counted only, which keeps functions called ~10^5 times per
request (``Word.__mul__`` in suite item 10) cheap.  Everything is kept in
memory and written to SPANS_OUT as one JSON line at exit, followed by a line
with the clock reading after the write.
"""

import functools
import json
import os
import sys
import time

SPAN_LIMIT = 2000

# (metric name, module, attribute).  "Cls.meth" is one method; "*.meth" is
# meth on every GroupContext subclass in sclkit that defines it.
TARGETS = (
    ("words.mul", "sclkit.words", "Word.__mul__"),
    ("words.validate", "sclkit.words", "Word.__post_init__"),
    ("words.reduce_letters", "sclkit.words", "reduce_letters"),
    ("groups.ball", "sclkit.groups", "*.ball"),
    ("groups.mul", "sclkit.groups", "*.mul"),
    ("groups.canonical", "sclkit.groups", "*.canonical"),
    ("braids.normal_form", "sclkit.braids", "normal_form"),
    ("braids.cached_normal_form", "sclkit.braids", "cached_normal_form"),
    ("braids.sl2_image", "sclkit.braids", "sl2_image"),
    ("braids.p3_coordinates", "sclkit.braids", "p3_coordinates"),
    ("braids.validate", "sclkit.braids", "BraidWord.__post_init__"),
    ("quasimorphisms.defect_search", "sclkit.quasimorphisms", "defect_search"),
    ("quasimorphisms.count_copies", "sclkit.quasimorphisms", "count_copies"),
    ("quasimorphisms.homogenize_counting_exact", "sclkit.quasimorphisms",
     "homogenize_counting_exact"),
    ("quasimorphisms.invariance_check", "sclkit.quasimorphisms", "invariance_check"),
    ("norms.FragmentationNorm.init", "sclkit.norms", "FragmentationNorm.__init__"),
    ("norms.value_with_witness", "sclkit.norms", "FragmentationNorm.value_with_witness"),
    ("norms.norm_axiom_report", "sclkit.norms", "norm_axiom_report"),
    ("scl.mixed_cl_search", "sclkit.scl", "mixed_cl_search"),
    ("scl.verify_decomposition", "sclkit.scl", "verify_decomposition"),
    ("scl.upper_from_decomposition", "sclkit.scl", "upper_from_decomposition"),
    ("scl.conjugate_flip_decomposition", "sclkit.scl", "conjugate_flip_decomposition"),
    ("scl.bavard_lower", "sclkit.scl", "bavard_lower"),
    ("extension.defect_chain_check", "sclkit.extension", "defect_chain_check"),
    ("extension.restriction_check", "sclkit.extension", "restriction_check"),
    ("extension.extend_via_section", "sclkit.extension", "extend_via_section"),
    ("specs.parse_group_pair", "sclkit.specs", "parse_group_pair"),
    ("specs.parse_qm", "sclkit.specs", "parse_qm"),
    ("certio.verify_document", "sclkit.certio", "verify_document"),
    ("certio.verify_payload", "sclkit.certio", "verify_payload"),
    ("certio.load_document", "sclkit.certio", "load_document"),
    ("certio.dumps", "sclkit.certio", "dumps"),
    ("certio.write_text_atomic", "sclkit.certio", "write_text_atomic"),
    ("suite.run_item", "sclkit.suite", "run_item"),
)


def _add(tracer, name, amount):
    tracer.counters[name] = tracer.counters.get(name, 0) + amount


def _note_ball(tracer, args, result):
    if not any(frame[0] == "groups.ball" for frame in tracer.stack):
        _add(tracer, "groups.ball.elements", len(result))


def _note_normal_form(tracer, args, result):
    _add(tracer, "braids.normal_form.letters", len(args[0]))
    if tracer.stack and tracer.stack[-1][0] == "braids.cached_normal_form":
        _add(tracer, "braids.nf_cache.misses", 1)


def _note_search(tracer, args, result):
    _add(tracer, "scl.mixed_cl_search.moves", result.commutators_used)
    _add(tracer, "scl.mixed_cl_search.found", result.count is not None)


def _note_load(tracer, args, result):
    _add(tracer, "certio.load_document.bytes", os.stat(args[0]).st_size)


def _note_item(tracer, args, result):
    tracer.suite_items[result.slug] = result.seconds


# called after a successful call, with the traced frame already popped
NOTES = {
    "groups.ball": _note_ball,
    "braids.normal_form": _note_normal_form,
    "quasimorphisms.defect_search":
        lambda t, a, r: _add(t, "quasimorphisms.defect_search.pairs", r.pairs_checked),
    "extension.defect_chain_check":
        lambda t, a, r: _add(t, "extension.defect_chain_check.pairs", r.pairs_checked),
    "scl.mixed_cl_search": _note_search,
    "certio.load_document": _note_load,
    "suite.run_item": _note_item,
}


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, self seconds]
        self.counters = {}
        self.suite_items = {}
        self.spans = []        # (span id, parent span id, name, start, end)
        self.stack = []        # [name, child seconds, span id] per open call
        self.next_id = 1

    def parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        spans = self.spans
        note = NOTES.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = None
            if stats[0] < SPAN_LIMIT:
                span_id = tracer.next_id
                tracer.next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if span_id is not None:
                    spans.append((span_id, tracer.parent_span(), name, start, end))
            if note is not None:
                note(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sclkit" or n.startswith("sclkit.")]
        group_context = sys.modules["sclkit.groups"].GroupContext
        classes = {c for m in modules for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith("sclkit")}
        for name, module_name, attr in TARGETS:
            owner, _, member = attr.rpartition(".")
            if owner == "*":
                for cls in classes:
                    if issubclass(cls, group_context) and member in cls.__dict__:
                        setattr(cls, member, self.wrap(name, cls.__dict__[member]))
            elif owner:
                cls = getattr(sys.modules[module_name], owner)
                setattr(cls, member, self.wrap(name, cls.__dict__[member]))
            else:
                original = getattr(sys.modules[module_name], member)
                traced = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)


def main(argv):
    out_path, request_id, spawned_at = argv[1], argv[2], float(argv[3])
    if len(argv) < 5 or argv[4] != "--":
        raise SystemExit("usage: trace_entry.py SPANS_OUT REQUEST_ID SPAWNED_AT -- ARGV...")
    import sclkit.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.stats["cli.import"] = [1, imported - spawned_at]
    tracer.spans.append((0, None, "cli.import", spawned_at, imported))
    tracer.install()
    code = tracer.wrap("cli.main", sclkit.cli.main)(argv[5:])
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({
            "request_id": request_id,
            "spawned_at": spawned_at,
            "stats": tracer.stats,
            "counters": tracer.counters,
            "suite_items": tracer.suite_items,
            "spans": tracer.spans,
        }, fh)
    # a second line: when the dump was done, so the parent can time the exit
    with open(out_path, "a") as fh:
        fh.write("\n" + repr(time.perf_counter()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
