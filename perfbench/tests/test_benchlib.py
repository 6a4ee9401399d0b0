"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests

They need no build: the RSS test spawns Python children, and the schema
test checks run.py's result line against BENCHMARK.json.
"""

import hashlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class TailPercentileTest(unittest.TestCase):
    def test_hundred_samples_support_p90(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.tail_percentile(values), (90, 90))

    def test_fewer_samples_lower_the_percentile(self):
        # 50 samples: p80 leaves 10 above it, p81 only 9.
        values = list(range(1, 51))
        self.assertEqual(benchlib.tail_percentile(values), (80, 40))

    def test_exactly_ten_beyond_is_enough(self):
        pct, value = benchlib.tail_percentile(list(range(20)))
        self.assertEqual((pct, value), (50, 9))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3.0, 1.0, 2.0]), (100, 3.0))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(benchlib.tail_percentile(values[::-1]),
                         benchlib.tail_percentile(values))


class LedgerTest(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        ledger = benchlib.Ledger()
        ledger.record(True)
        ledger.record(False, "status not OK")
        ledger.add(8, 1, "one ingest failed")
        self.assertEqual((ledger.attempted, ledger.failed), (10, 2))
        self.assertAlmostEqual(ledger.fail_frac, 0.2)

    def test_late_divergence_fails_an_attempted_operation(self):
        ledger = benchlib.Ledger()
        ledger.add(5, 0)
        ledger.fail("final state differs from batch")
        self.assertEqual((ledger.attempted, ledger.failed), (5, 1))
        self.assertEqual(ledger.reasons, ["final state differs from batch"])

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(benchlib.Ledger().fail_frac, 1.0)


class CheckJobTest(unittest.TestCase):
    """run.check_job: every repetition is an operation, checked against the
    first repetition's bytes and the oracle's; the result says whether
    anything ran to measure."""

    def check(self, same, written, reference, ok=True):
        ledger = benchlib.Ledger()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            out.write_bytes(written)
            report = {"ok": ok, "error": "" if ok else "boom", "same": same}
            expected = reference and hashlib.sha256(reference).hexdigest()
            passed = run.check_job(report, out, expected, ledger)
        return passed, ledger.attempted, ledger.failed

    def test_matching_output(self):
        self.assertEqual(self.check([1, 1, 1], b"{}", b"{}"), (True, 3, 0))

    def test_own_reference(self):
        self.assertEqual(self.check([1, 1], b"{}", None), (True, 2, 0))

    def test_oracle_mismatch_fails_every_repetition(self):
        self.assertEqual(self.check([1, 1], b"{}", b"[]"), (True, 2, 2))

    def test_repetition_mismatch_fails_that_repetition(self):
        self.assertEqual(self.check([1, 0, 1], b"{}", b"{}"), (True, 3, 1))

    def test_failed_job_fails_every_repetition(self):
        self.assertEqual(self.check([1, 1], b"{}", b"{}", ok=False),
                         (True, 2, 2))

    def test_job_that_ran_nothing_is_one_failure(self):
        self.assertEqual(self.check([], b"", None, ok=False), (False, 1, 1))


class PeakRssTest(unittest.TestCase):
    def run_child(self, megabytes):
        code = (f"b = bytearray({megabytes} << 20); "
                "b[::4096] = b'x' * len(b[::4096])")
        with tempfile.TemporaryDirectory() as tmp:
            return benchlib.run_process([sys.executable, "-c", code],
                                        Path(tmp) / "out")

    def test_each_process_reports_its_own_peak(self):
        code_big, big = self.run_child(200)
        code_small, small = self.run_child(1)
        self.assertEqual((code_big, code_small), (0, 0))
        self.assertGreater(big, 200)
        # The small child does not inherit the big one's high-water mark.
        self.assertLess(small, 100)

    def test_exit_code_and_stdout(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, _ = benchlib.run_process(
                [sys.executable, "-c", "print('hi'); raise SystemExit(3)"], out)
            self.assertEqual(code, 3)
            self.assertEqual(out.read_text(), "hi\n")


class LayerMetricsTest(unittest.TestCase):
    def test_spans_and_counters_per_request(self):
        def span(name, d, request=1):
            return {"name": name, "start_s": 0.0, "duration_s": d,
                    "thread": 0, "parent": -1, "request": request}
        trace = {"spans": [span("fine.cluster", 1.0), span("fine.cluster", 3.0),
                           span("core.run", 5.0),
                           span("incremental.ingest", 0.1),
                           span("incremental.ingest", 0.3),
                           span("incremental.ingest", 0.2),
                           span("core.run", 7.0, request=3)],
                 "counters": {"1": {"coarse.edges": 7.0},
                              "3": {"coarse.edges": 7.0}}}
        layers = benchlib.layer_metrics(trace)
        self.assertEqual(sorted(layers), [1, 3])
        m = layers[1]
        self.assertEqual(m["fine.sum_s"], 4.0)
        self.assertEqual(m["fine.max_cluster_s"], 3.0)
        self.assertEqual(m["fine.critical_share"], 0.75)
        self.assertEqual(m["core.run_s"], 5.0)
        self.assertEqual(m["incremental.ingest_s"], 0.2)
        self.assertEqual(m["coarse.edges"], 7.0)
        self.assertEqual(m["tfidf.build_s"], 0.0)
        self.assertEqual(layers[3]["core.run_s"], 7.0)
        self.assertEqual(layers[3]["fine.critical_share"], 0.0)

    def test_median_over_repetitions(self):
        samples = [{"core.run_s": v, "coarse.edges": 9.0}
                   for v in (3.0, 1.0, 2.0)]
        self.assertEqual(benchlib.median_metrics(samples),
                         {"core.run_s": 2.0, "coarse.edges": 9.0})


class SchemaTest(unittest.TestCase):
    def check_line(self, line, specs, ledger):
        result = json.loads(line)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(result["attempted"], ledger.attempted)
        self.assertEqual(result["failed"], ledger.failed)
        self.assertEqual(result["correct"], ledger.failed == 0)
        self.assertEqual(list(result["metrics"]), [s["name"] for s in specs])
        for s in specs:
            entry = result["metrics"][s["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], s["unit"])
            self.assertIsInstance(entry["value"], float)

    def test_end_to_end_and_per_layer_lines(self):
        ledger = benchlib.Ledger()
        ledger.record(True)
        for key in ("end_to_end", "per_layer"):
            specs = SPEC[key]
            values = {s["name"]: i + 0.5 for i, s in enumerate(specs)}
            self.check_line(benchlib.result_line(ledger, values, specs), specs,
                            ledger)

    def test_failure_marks_result_incorrect(self):
        ledger = benchlib.Ledger()
        ledger.record(False, "bytes differ")
        specs = SPEC["end_to_end"]
        line = benchlib.result_line(ledger, {s["name"]: 1 for s in specs},
                                    specs)
        self.assertFalse(json.loads(line)["correct"])

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(KeyError):
            benchlib.result_line(benchlib.Ledger(), {}, SPEC["end_to_end"])

    def test_contract_limits(self):
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in SPEC[k]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)


if __name__ == "__main__":
    unittest.main()
