"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 perfbench/selftest.py``.  The
last test imports the package from ``src/``; the others need nothing
but the harness.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

import op as ops
import run
from spans import Hook, Recorder, Span, covered, self_time, span_cost, traced

HERE = Path(__file__).resolve().parent


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_and_clipped_children(self):
        root = Span("op", 0.0, 10.0, None, 0)
        kids = [
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 5.0, 0, 0),  # overlaps a: union [1, 5]
            Span("c", 8.0, 12.0, 0, 0),  # clipped to [8, 10]
            Span("d", 11.0, 13.0, 0, 0),  # outside the parent
        ]
        self.assertAlmostEqual(covered([(1, 3), (2, 5), (8, 10)]), 6.0)
        self.assertAlmostEqual(self_time(root, kids), 4.0)
        self.assertAlmostEqual(self_time(root, []), 10.0)

    def test_totals_count_outermost_of_nested_same_name(self):
        rec = Recorder()
        rec.spans = [
            Span("op", 0.0, 10.0, None, 0),
            Span("x", 1.0, 6.0, 0, 0),
            Span("x", 2.0, 3.0, 1, 0),  # nested in x: not counted again
            Span("y", 3.5, 4.0, 1, 0),
            Span("x", 7.0, 9.0, 0, 0),
        ]
        totals = rec.totals()
        self.assertEqual(totals["x"], (7.0, 2))
        self.assertEqual(totals["y"], (0.5, 1))
        self.assertEqual([s.name for s in rec.children(0)], ["x", "x"])
        self.assertAlmostEqual(self_time(rec.spans[0], rec.children(0)), 3.0)

    def test_recorder_links_parents_in_begin_order(self):
        rec = Recorder()
        with rec.span("op") as root:
            with rec.span("a") as a:
                with rec.span("b"):
                    pass
            with rec.span("c"):
                pass
        self.assertEqual([s.name for s in rec.spans], ["op", "a", "b", "c"])
        self.assertEqual([s.parent for s in rec.spans], [None, root, a, root])
        self.assertTrue(all(s.end >= s.start for s in rec.spans))


def fake_package():
    """A two-module package where ``fakepkg.b`` imports from ``fakepkg.a``."""
    a = types.ModuleType("fakepkg.a")

    def work(x):
        return 2 * x + 1

    def boom():
        raise ValueError("boom")

    a.work, a.boom = work, boom
    b = types.ModuleType("fakepkg.b")
    b.work, b.boom = work, boom
    return {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.a": a, "fakepkg.b": b}


class Wrappers(unittest.TestCase):
    def setUp(self):
        self.mods = fake_package()
        sys.modules.update(self.mods)
        self.originals = {
            (name, attr): value
            for name, mod in self.mods.items()
            for attr, value in vars(mod).items()
        }

    def tearDown(self):
        for name in self.mods:
            sys.modules.pop(name, None)

    def assert_restored(self):
        now = {
            (name, attr): value
            for name, mod in self.mods.items()
            for attr, value in vars(mod).items()
        }
        self.assertEqual(now.keys(), self.originals.keys())
        for key, value in self.originals.items():
            self.assertIs(now[key], value, key)

    def test_every_binding_is_wrapped_then_restored(self):
        rec = Recorder()
        hooks = [
            Hook("w", "fakepkg.a", "work", lambda r, a, res: r.count("n", res + a["x"])),
            Hook("boom", "fakepkg.a", "boom"),
        ]
        with traced(rec, hooks, "fakepkg") as bindings:
            self.assertEqual(len(bindings), 4)  # work and boom, in a and b
            self.assertEqual(self.mods["fakepkg.b"].work(3), 7)
            self.assertEqual(self.mods["fakepkg.a"].work(1), 3)
        self.assertEqual([s.name for s in rec.spans], ["w", "w"])
        self.assertEqual(rec.counts["n"], 7 + 3 + 3 + 1)  # result + x, by name
        self.assert_restored()

    def test_wrappers_are_removed_when_the_op_raises(self):
        rec = Recorder()
        with self.assertRaises(ValueError):
            with traced(rec, [Hook("boom", "fakepkg.a", "boom")], "fakepkg"):
                self.mods["fakepkg.b"].boom()
        self.assertEqual(len(rec.spans), 1)
        self.assertTrue(rec.spans[0].end >= rec.spans[0].start)
        self.assert_restored()


def op_result(distances=None, vf=0.64, digests=None, op_s=1.0, traced=False,
              backward=None, drops=(0, 0)):
    distances = [1.0, 1.5] if distances is None else distances
    res = {
        "error": None,
        "op_s": op_s,
        "rss_mb": 100.0,
        "manifest_bad": [],
        "digests": digests or {"a": "1"},
        "report": {
            "n_reference": 2,
            "distances": distances,
            "forward": distances,
            "backward": backward or [min(d, 0.5) for d in distances],
            "reference_ids": list(range(1, len(distances) + 1)),
            "unmatched_reference": [],
            "vf_mean": vf,
        },
        "end_drops": {str(i + 1): n for i, n in enumerate(drops)},
    }
    if traced:
        res["layers"] = {name: 1.0 for name in run.PER_LAYER}
    return res


class FailureAccounting(unittest.TestCase):
    def test_checks_flag_each_kind_of_failure(self):
        ref = {"a": "1"}
        self.assertEqual(run.check_op("desk", op_result(), "", ref), [])
        self.assertTrue(run.check_op("desk", None, "child exited with code 1", ref))
        raised = dict(op_result(), error="StageError: stage 7 failed")
        self.assertEqual(run.check_op("desk", raised, "", ref), ["StageError: stage 7 failed"])
        self.assertTrue(run.check_op("desk", op_result(digests={"a": "2"}), "", ref))
        self.assertTrue(run.check_op("desk", op_result(distances=[1.0]), "", ref))
        self.assertTrue(run.check_op("desk", op_result(distances=[1.0, 2.5]), "", ref))
        self.assertTrue(run.check_op("fine", op_result(vf=0.7), "", ref))
        bad_manifest = dict(op_result(), manifest_bad=["model.json"])
        self.assertTrue(run.check_op("fine", bad_manifest, "", ref))
        # Degraded data: 95 % of the yarns within 3 vx, not the clean 2 vx.
        self.assertEqual(
            run.check_op("from-detections", op_result(distances=[1.0, 2.5]), "", ref), []
        )
        self.assertTrue(run.check_op("from-detections", op_result(distances=[1.0, 3.5]), "", ref))
        # Three dropped end slices explain 3 vx of forward distance ...
        dropped = op_result(distances=[1.0, 3.5], drops=(0, 3))
        self.assertEqual(run.check_op("from-detections", dropped, "", ref), [])
        self.assertTrue(run.check_op("from-detections", op_result(distances=[1.0, 3.5], drops=(3, 0)), "", ref))
        # ... but never backward distance (reconstruction to reference).
        off = op_result(distances=[1.0, 3.5], backward=[0.5, 3.5], drops=(0, 3))
        self.assertTrue(run.check_op("from-detections", off, "", ref))

    def test_failed_ops_are_counted_not_dropped(self):
        good = {"res": op_result(op_s=2.0), "problems": []}
        raised = {"res": None, "problems": ["child exited with code 1"]}
        wrong = {"res": op_result(op_s=9.0, vf=0.9), "problems": ["Vf"]}
        out = run.summarize([good, raised, wrong], trace=False, setup_s=1.0)
        self.assertEqual((out["correct"], out["attempted"], out["failed"]), (False, 3, 2))
        self.assertEqual(out["metrics"]["run_s"]["value"], 2.0)  # timed on passing ops
        self.assertEqual(set(out["metrics"]), set(run.END_TO_END))

    def test_traced_summary_reports_fail_ratio(self):
        tr = {"res": op_result(traced=True), "problems": []}
        bad = {"res": None, "problems": ["timed out"]}
        out = run.summarize([tr, tr, bad], trace=True, setup_s=0.0)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["fail_ratio"], 1 / 3)
        self.assertEqual((out["attempted"], out["failed"]), (3, 1))

    def test_span_cost_is_small_and_not_negative(self):
        cost = span_cost(2000)
        self.assertGreaterEqual(cost, 0.0)
        self.assertLess(cost, 1e-3)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(ops.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class PackageHooks(unittest.TestCase):
    def test_hooks_bind_and_release_the_real_package(self):
        if not (ops.SRC / ops.PACKAGE).is_dir():
            self.skipTest("no package sources")
        ops.import_package()
        mods = {n: m for n, m in sys.modules.items() if n.startswith(ops.PACKAGE)}
        before = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
        rec = Recorder()
        with traced(rec, ops.hooks(), ops.PACKAGE) as bindings:
            self.assertGreater(len(bindings), len(ops.hooks()))
            from textilemodel.validate import hausdorff

            hausdorff([[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]], n_samples=5)
        self.assertEqual([s.name for s in rec.spans][:1], ["validate.hausdorff"])
        self.assertEqual(
            sum(1 for s in rec.spans if s.name == "geometry.resample_arclength"), 2
        )
        after = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))


if __name__ == "__main__":
    unittest.main()
