"""Tests of the benchmark's own generator, checks, limits and tracer.

    python3 perfbench/selftest.py

Kept out of the repository's pytest run on purpose: it spawns sclkit
processes, and the benchmark must not change the tier-1 suite.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spawn  # noqa: E402
import steady  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def flip_doc(n_max: int, certs: int | None = None, upper: str | None = None) -> str:
    upper = upper or str(Fraction(1, 2 * n_max))
    items = [{"direction": "upper", "bound": str(Fraction(1, 2 * k))}
             for k in range(1, (certs if certs is not None else n_max) + 1)]
    return json.dumps({"interval": ["0", upper], "items": items})


def search_doc(upper: str | None, notes=()) -> str:
    items = [] if upper is None else [{"direction": "upper", "bound": upper}]
    return json.dumps({"interval": ["1/12", upper], "items": items, "notes": list(notes)})


def verify_doc(failed: dict[int, str], items: int = 3) -> str:
    return json.dumps({"ok": not failed, "items": [
        {"index": i, "ok": i not in failed, "failed_step": failed.get(i)} for i in range(items)]})


class GeneratorTest(unittest.TestCase):
    def test_flip_targets_drop_freely_trivial_ones(self):
        groups = wl.flip_targets()
        self.assertEqual({k: len(v) for k, v in groups.items()}, {"one": 4, "power": 4, "mixed": 4})
        alpha = (1, 1, 2, 2, -1, -1, -2, -2)
        self.assertIn(alpha, groups["one"])
        # u = s1^2 s2^-2 has tau(u) = u^-1, so [u, tau(u)] is empty
        u = (1, 1, -2, -2)
        self.assertEqual(wl.commutator(u, wl._tau(u)), ())
        for targets in groups.values():
            for t in targets:
                self.assertTrue(t)
                self.assertEqual(wl.free_reduce(t), t)

    def test_same_seed_same_inputs(self):
        for name in ("flip", "search", "paper-suite"):
            a, b, c = (wl.WORKLOADS[name](seed) for seed in (3, 3, 4))
            self.assertEqual(a.block(0) + a.block(1), b.block(0) + b.block(1))
            self.assertNotEqual(a.block(0), c.block(0))

    def test_braids_always_passed_with_equals(self):
        for req in wl.FlipWorkload(5).block(0):
            braid = [a for a in req.argv if a.startswith("--braid")]
            self.assertEqual(len(braid), 1)
            self.assertTrue(braid[0].startswith("--braid="))
            self.assertTrue(24 <= req.expect[0] <= 40)

    def test_search_targets_within_and_beyond_reach(self):
        block = wl.SearchWorkload(9).block(0)
        self.assertEqual(sum(r.kind == "search-beyond" for r in block), 1)
        for req in block:
            letters = req.argv[req.argv.index("--word") + 1]
            # every target lies in [F2, F2]: both exponent sums vanish
            for g in "ab":
                self.assertEqual(letters.count(g), letters.count(g.upper()))
            if req.kind == "search-beyond":
                self.assertGreater(len(letters), 24)
            else:
                self.assertLessEqual(len(letters), 8 * req.expect[0])

    def test_paper_block_covers_every_item_once(self):
        block = wl.PaperSuiteWorkload(2).block(0)
        self.assertEqual(sorted(int(r.expect[0]) for r in block), list(range(1, 12)))


class CheckTest(unittest.TestCase):
    def test_flip(self):
        req = wl.flip_request((1, 1, 2, 2, -1, -1, -2, -2), 30)
        self.assertIsNone(wl.check(req, 0, flip_doc(30)))
        self.assertIn("interval", wl.check(req, 0, flip_doc(30, upper="1/58")))
        self.assertIn("certificates", wl.check(req, 0, flip_doc(30, certs=29)))
        self.assertIn("exit", wl.check(req, 1, flip_doc(30)))
        self.assertIn("JSON", wl.check(req, 0, "interval [0, 1/60]"))

    def test_search(self):
        early = wl.search_request("search-early", (1, 2, -1, -2), 1)
        self.assertIsNone(wl.check(early, 0, search_doc("1")))
        self.assertIn("upper bound 2", wl.check(early, 0, search_doc("2")))
        self.assertIn("upper bound None", wl.check(early, 0, search_doc(None)))
        beyond = wl.search_request("search-beyond", (1, 2, -1, -2) * 7, 0)
        self.assertIsNone(wl.check(beyond, 0, search_doc(None, [wl.NOT_FOUND_NOTE])))
        self.assertIn("beyond reach", wl.check(beyond, 0, search_doc("3", [wl.NOT_FOUND_NOTE])))
        self.assertIn("note", wl.check(beyond, 0, search_doc(None)))

    def test_verify(self):
        intact = wl.Request("verify-intact", ("verify", "f.json"), (3,))
        self.assertIsNone(wl.check(intact, 0, verify_doc({})))
        self.assertIn("exit", wl.check(intact, 1, verify_doc({1: "defect"})))
        corrupt = wl.Request("verify-corrupt", ("verify", "g.json"), (3, 1, "qm value"))
        self.assertIsNone(wl.check(corrupt, 1, verify_doc({1: "qm value"})))
        # a corrupted file that passes is a failed request
        self.assertIn("exit 0", wl.check(corrupt, 0, verify_doc({})))
        self.assertIn("expected", wl.check(corrupt, 1, verify_doc({1: "defect"})))
        self.assertIn("expected", wl.check(corrupt, 1, verify_doc({0: "qm value"})))
        self.assertIn("expected", wl.check(corrupt, 1, verify_doc({1: "qm value", 2: "defect"})))

    def test_paper(self):
        req = wl.Request("paper", ("verify-paper", "--only", "4"), ("4",))
        passing = {"ok": True, "items": [{"key": "4", "ok": True}]}
        self.assertIsNone(wl.check(req, 0, json.dumps(passing)))
        failing = {"ok": False, "items": [{"key": "4", "ok": False}]}
        self.assertIsNotNone(wl.check(req, 0, json.dumps(failing)))
        self.assertIn("exit", wl.check(req, 1, json.dumps(failing)))


class LimitTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.scratch = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def child(self, code: str, **limits) -> spawn.Outcome:
        return spawn.run([sys.executable, "-c", code], env=spawn.child_env(run.SRC, self.scratch),
                         cwd=self.scratch, scratch=self.scratch, **limits)

    def test_timeout_kills_the_child(self):
        started = time.perf_counter()
        got = self.child("import time; time.sleep(30)", timeout_s=0.5)
        self.assertLess(time.perf_counter() - started, 10)
        self.assertEqual(got.limit, "timeout")
        self.assertLess(got.returncode, 0)

    def test_memory_cap_fails_the_child(self):
        # the allocation is refused up front, so nothing large is ever touched
        got = self.child("bytearray(1 << 30)", memory_bytes=512 << 20)
        self.assertEqual(got.limit, "memory")
        self.assertNotEqual(got.returncode, 0)

    def test_normal_child(self):
        got = self.child("print('hi')")
        self.assertEqual((got.returncode, got.stdout, got.limit), (0, "hi\n", None))
        self.assertGreater(got.peak_rss_mb, 1)


class StatsTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 31)]
        self.assertEqual(run.tail(values), (20.0, 20))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 3))

    def test_spread_uses_statistics_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / 5.5)
        # the two-set check is symmetric: better or worse, a gap is a gap
        self.assertAlmostEqual(steady.drift([1.0, 1.0, 1.0], [1.1, 1.1, 1.1]), 0.1)
        self.assertAlmostEqual(steady.drift([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]), 0.5)
        self.assertAlmostEqual(steady.drift([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]), 0.5)


class AccountTest(unittest.TestCase):
    def test_self_times_must_add_up_within_the_overhead(self):
        metrics = {"trace.overhead_s": 0.010, "trace.overhead_se_s": 0.005,
                   "trace.unattributed_s": 0.015}
        self.assertTrue(layers.accounted(metrics))
        metrics["trace.unattributed_s"] = 0.021
        self.assertFalse(layers.accounted(metrics))
        # self times larger than the request mean double-counted time
        metrics["trace.unattributed_s"] = -0.001
        self.assertFalse(layers.accounted(metrics))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(wl.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], list(run.E2E_UNITS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, layers.metric_units())
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.E2E_UNITS)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class TracerTest(unittest.TestCase):
    def test_traced_request(self):
        """Every traced name is rebound in every module, and self times add up."""
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "r.json"
            argv = ["verify-paper", "--only", "2", "--format", "json"]
            bench = run.Bench(Path(tmp))
            req = wl.Request("paper", tuple(argv), ("2",))
            record = bench.send(req, trace_to=out)
            self.assertIsNone(record.failure)
            doc = run.read_trace(out, record.outcome.seconds)
        stats = doc["stats"]
        # item 2 calls suite.normal_form, the copy bound by "from .braids import"
        self.assertGreater(stats["braids.normal_form"][0], 0)
        self.assertEqual(doc["suite_items"].keys(), {"flip-identity"})
        metrics = layers.aggregate([doc], [record.outcome.seconds], [record.outcome.seconds])
        self.assertGreater(doc["exit_s"], 0)
        self.assertGreater(metrics["trace.self_sum_s"], 0)
        self.assertLessEqual(metrics["trace.self_sum_s"], record.outcome.seconds)
        ids = {s[0] for s in doc["spans"]}
        self.assertTrue(all(parent is None or parent in ids for _, parent, *_ in doc["spans"]))
        main = next(s for s in doc["spans"] if s[2] == "cli.main")
        inside = [s for s in doc["spans"] if s[1] == main[0]]
        self.assertTrue(all(main[3] <= s[3] <= s[4] <= main[4] for s in inside))


if __name__ == "__main__":
    unittest.main()
