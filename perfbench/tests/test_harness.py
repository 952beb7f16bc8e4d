"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m unittest discover -s perfbench/tests -v
"""
from __future__ import annotations

import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (puts the checkout's src on sys.path)
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import clustercert as cc  # noqa: E402

INF = float("inf")


class TailPercentileTest(unittest.TestCase):
    def test_eleventh_largest_with_its_percentile(self):
        self.assertEqual(harness.tail_percentile(list(range(1, 21))), (10, 50.0, 20))
        values = list(range(100))
        random.Random(1).shuffle(values)
        self.assertEqual(harness.tail_percentile(values), (89, 90.0, 100))

    def test_failed_ops_count_as_missing_the_tail(self):
        self.assertEqual(harness.tail_percentile([1.0] * 15 + [INF] * 10)[0], 1.0)
        self.assertEqual(harness.tail_percentile([1.0] * 14 + [INF] * 11)[0], INF)

    def test_small_sample_reports_the_maximum(self):
        self.assertEqual(harness.tail_percentile([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_summary_counts_a_failure_against_the_tail(self):
        ok = [harness.OpResult("ok", wall_s=1.0, cpu_s=1.0, maxrss_kb=1024, interval_s=1.0)
              for _ in range(11)]
        failed = harness.OpResult("bad", wall_s=0.5, error="boom", interval_s=1.0)
        summary = harness.summarize(ok + [failed], timeout_s=30.0)
        self.assertEqual(summary["op_tail_s"], 1.0)
        self.assertAlmostEqual(summary["op_success_ratio"], 11 / 12)
        self.assertAlmostEqual(summary["ops_per_s"], 11 / 12)

    def test_times_are_taken_at_the_reference_speed(self):
        ops = [harness.OpResult("ok", wall_s=2.0, cpu_s=1.0, interval_s=2.0, scale=0.5)
               for _ in range(3)]
        summary = harness.summarize(ops, timeout_s=30.0)
        self.assertEqual(summary["op_p50_s"], 1.0)
        self.assertEqual(summary["op_cpu_p50_s"], 0.5)
        self.assertEqual(summary["ops_per_s"], 1.0)
        self.assertEqual(summary["unscaled_op_p50_s"], 2.0)


class HarnessTestCase(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.dir = Path(self._tmp.name)
        self.spawner = harness.Spawner()

    def tearDown(self):
        self.spawner.close()
        self._tmp.cleanup()

    def planted(self, n=24, k=2, seed=3):
        space = cc.planted_instance(k, workloads._near_equal(n, k), Fraction(1, 20), 1, seed)
        path = self.dir / "planted.space"
        path.write_text(cc.dump_space(space), encoding="utf-8")
        return space, path

    def analyze_op(self, n=24, k=2):
        space, path = self.planted(n, k)
        facts = workloads.SpaceFacts.from_matrix(space.labels, space.dist, Fraction(1), k)
        return workloads.Op(
            label="analyze",
            commands=[["analyze", "--input", str(path), "--r", "1", "--k", str(k)]],
            check=lambda outs: workloads.check_certificate(facts, outs[0]),
        )

    def run_op(self, op, **kwargs):
        kwargs.setdefault("timeout_s", 60)
        return harness.run_op(self.spawner, op.label, op.commands, out_dir=self.dir, **kwargs)


class TracerTest(HarnessTestCase):
    def traced(self, spans_path):
        def argv_of(args):
            return [sys.executable, str(PERFBENCH / "tracer.py"), str(spans_path),
                    repr(__import__("time").monotonic()), *args]
        return argv_of

    def test_wrappers_leave_certificate_bytes_identical(self):
        op = self.analyze_op()
        plain = self.run_op(op)
        spans = self.dir / "spans.json"
        traced = self.run_op(op, argv_of=self.traced(spans))
        self.assertTrue(plain.ok and traced.ok, (plain.error, traced.error))
        self.assertEqual(plain.runs[0].stdout, traced.runs[0].stdout)
        self.assertIsNone(op.check([traced.runs[0].stdout]))
        totals = tracer.op_totals([json.loads(spans.read_text())])
        self.assertEqual(totals["cli.main.calls"], 1)
        self.assertEqual(totals["stats.anticlique_count.calls"], 2)
        self.assertGreater(totals["stats.anticlique_count.k.s"], 0)
        self.assertGreater(totals["stats.anticlique_count.k1.s"], 0)

    def test_wrappers_leave_verify_report_identical(self):
        op = workloads.Op("verify", [["verify", "--seed", "5", "--trials", "6", "--max-n", "8"]], None)
        plain = self.run_op(op)
        spans = self.dir / "spans.json"
        traced = self.run_op(op, argv_of=self.traced(spans))
        self.assertEqual(plain.runs[0].stdout, traced.runs[0].stdout)
        totals = tracer.op_totals([json.loads(spans.read_text())])
        self.assertEqual(totals["verify.run_suite.calls"], 1)
        self.assertGreater(totals["generators.random_metric_instance.calls"]
                           + totals["generators.planted_instance.calls"], 0)

    def test_self_time_subtracts_child_coverage(self):
        spans = [["outer", 0.0, 10.0, None, None], ["inner", 1.0, 4.0, 0, None],
                 ["inner", 3.0, 6.0, 0, None], ["outer", 7.0, 8.0, 0, None]]
        totals = tracer.op_totals([{"import_s": 0.1, "spans": spans}])
        self.assertAlmostEqual(totals["outer.self_s"], 10.0 - 6.0 + 1.0)
        self.assertAlmostEqual(totals["outer.s"], 10.0)  # the nested call is not counted twice
        self.assertAlmostEqual(totals["inner.s"], 6.0)


class FailureCountingTest(HarnessTestCase):
    def test_corrupted_certificate_fails_its_checks(self):
        op = self.analyze_op()
        good = self.run_op(op).runs[0].stdout
        self.assertIsNone(op.check([good]))
        cert = json.loads(good)
        corrupt = [
            dict(cert, counts=dict(cert["counts"], M=cert["counts"]["M"] + 1)),
            dict(cert, greedy=dict(cert["greedy"], measure=cert["greedy"]["measure"] + 1)),
            dict(cert, greedy=dict(cert["greedy"], clusters=[
                cert["greedy"]["clusters"][0] + cert["greedy"]["clusters"][1][:1],
                cert["greedy"]["clusters"][1][1:]])),
        ]
        for bad in corrupt:
            self.assertIsNotNone(op.check([json.dumps(bad).encode()]))

    def test_corrupted_output_counts_as_a_failed_op(self):
        op = self.analyze_op()
        judge = run.Judge([op])
        first = self.run_op(op)
        judge(0, first)
        self.assertTrue(first.ok)
        # Same command, but the output is tampered with before it is judged.
        second = self.run_op(op)
        second.runs[0].stdout = second.runs[0].stdout.replace(b'"valid": true', b'"valid": false', 1)
        judge(0, second)
        self.assertEqual(second.error, "output differs from the reference digest")
        printer = self.run_op(op, argv_of=lambda args: [sys.executable, "-c", "print('{}')"])
        run.Judge([op])(0, printer)
        self.assertFalse(printer.ok)
        for result in (first, second, printer):
            result.interval_s = 1.0
        summary = harness.summarize([first, second, printer], timeout_s=60)
        self.assertAlmostEqual(summary["op_success_ratio"], 1 / 3)

    def test_timed_out_op_counts_as_failed(self):
        op = workloads.Op("sleeper", [["sleep"]], check=lambda outs: None)
        result = self.run_op(op, timeout_s=0.3,
                          argv_of=lambda args: [sys.executable, "-c", "import time; time.sleep(30)"])
        self.assertFalse(result.ok)
        self.assertTrue(result.error.startswith("timeout"))
        self.assertLess(result.wall_s, 5)
        self.assertTrue(result.runs[0].timed_out)

    def test_failing_verify_report_is_named_in_the_failed_op(self):
        op = workloads.Op("verify seed=3", [["verify"]],
                          check=lambda outs: workloads.check_verify_report(outs[0], 3, 5))
        report = {"seed": 3, "trials": 5, "failureCount": 1, "failures": [
            {"prop": "P4", "trial": 2, "lhs": "0", "rhs": "1/3"}]}
        code = f"import sys; print({json.dumps(report)!r}); sys.exit(2)"
        result = self.run_op(op, argv_of=lambda args: [sys.executable, "-c", code])
        run.Judge([op])(0, result)
        self.assertFalse(result.ok)
        self.assertTrue(result.error.startswith("exit 2 in `verify`"))
        self.assertIn("P4 at trial 2 (lhs 0, rhs 1/3)", result.error)

    def test_discretized_space_is_checked_block_by_block(self):
        base = cc.planted_instance(2, [4, 4], Fraction(1, 20), 1, 7)
        weights = [3, 6, 9, 3, 6, 3, 12, 3]
        path = self.dir / "weighted.space"
        path.write_text(cc.dump_weighted_space(cc.WeightedFiniteSpace(base, tuple(weights))))
        out = self.dir / "uniform.space"
        op = workloads.Op("discretize", [["discretize", "--input", str(path), "--eps", "1/10",
                                          "--output", str(out)]], None)
        self.assertTrue(self.run_op(op).ok)
        expected = workloads.Discretized.expect(base.dist, weights, Fraction(1, 10))
        text = out.read_bytes()
        error, labels, block_of = expected.check_space(text)
        self.assertIsNone(error)
        self.assertEqual(len(labels), sum(expected.multiplicities))
        lines = text.decode().splitlines()
        self.assertIsNotNone(expected.check_space("\n".join(lines[:-1]).encode())[0])
        last = lines[-1].split()
        moved = lines[:-1] + [" ".join(["99"] + last[1:])]
        self.assertIsNotNone(expected.check_space("\n".join(moved).encode())[0])


class ManifestTest(unittest.TestCase):
    """BENCHMARK.json, the tracer and predictions.json name the same metrics."""

    def setUp(self):
        self.bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_lists_what_the_benchmark_reports(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]}, run.UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
                         [tuple(m) for m in tracer.LAYER_METRICS])

    def test_every_layer_metric_has_a_prediction(self):
        predictions = json.loads((PERFBENCH / "predictions.json").read_text())["predictions"]
        named = [m for group in predictions for m in group["metrics"]]
        self.assertCountEqual(named, [m for m, _, _ in tracer.LAYER_METRICS])
        end_to_end = set(run.UNITS)
        for group in predictions:
            self.assertLessEqual(set(group["moves"]), end_to_end)
            for names in [*group["moves"].values(), group.get("none", [])]:
                self.assertLessEqual(set(names), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
