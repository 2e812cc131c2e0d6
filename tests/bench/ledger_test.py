#!/usr/bin/env python3
"""The microbench ledger (bench/run_benchmarks.py), without running a
benchmark: the committed BENCH files against the writer's validator,
the one row rule, and the equivalence checks.

    python3 tests/bench/ledger_test.py    # or: ctest -R BenchLedger
"""

import glob
import importlib.util
import json
import os
import statistics
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "run_benchmarks", os.path.join(ROOT, "bench", "run_benchmarks.py"))
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def load(path):
    with open(path) as f:
        return json.load(f)


class CommittedFiles(unittest.TestCase):
    def test_every_bench_file_validates(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertEqual(len(paths), len(ledger.FAMILIES))
        for path in paths:
            with self.subTest(file=os.path.basename(path)):
                doc = load(path)
                ledger.validate(doc)
                self.assertEqual(os.path.basename(path),
                                 f"BENCH_{doc['family']}.json")
                self.assertEqual(doc["frozen"],
                                 ledger.FROZEN.get(doc["family"], []))

    def test_validator_rejects_a_broken_document(self):
        good = load(os.path.join(ROOT, "BENCH_control.json"))
        broken = [
            lambda d: d.pop("frozen"),
            lambda d: d["host"].pop("dirty"),
            lambda d: d["rows"][0].update(median=d["rows"][0]["median"] + 1),
            lambda d: d["rows"][0]["subject"]["samples"].pop(),
            lambda d: d["rows"][-1].update(extra=1),
        ]
        for i, breakage in enumerate(broken):
            with self.subTest(breakage=i):
                doc = json.loads(json.dumps(good))
                breakage(doc)
                with self.assertRaises(ValueError):
                    ledger.validate(doc)


class RowRule(unittest.TestCase):
    def test_even_count_median_is_the_mean_of_the_two_middles(self):
        r = ledger.row("x", "items/s", samples=[1.0, 4.0, 2.0, 3.0])
        self.assertEqual(r["median"], 2.5)
        ratios = ledger.row("x", "items/s", base=("b", [1.0, 1.0]),
                            subject=("s", [1.2, 1.4]))
        self.assertEqual(ratios["median"], 1.3)

    def test_ratios_pair_within_a_run(self):
        base, subject = [1.0, 10.0, 4.0], [2.0, 5.0, 8.0]
        r = ledger.row("x", "items/s", base=("b", base),
                       subject=("s", subject))
        self.assertEqual(r["pair_ratios"], [2.0, 0.5, 2.0])
        self.assertEqual(r["median"], 2.0)
        # Pairing across runs (median over median) would say 1.25.
        self.assertEqual(statistics.median(subject) /
                         statistics.median(base), 1.25)

    def test_times_report_the_subjects_speedup(self):
        r = ledger.row("x", "ns", base=("full", [100.0, 300.0, 200.0]),
                       subject=("incremental", [10.0, 20.0, 50.0]))
        self.assertEqual(r["pair_ratios"], [10.0, 15.0, 4.0])
        self.assertEqual(r["median"], 10.0)

    def test_a_bar_below_the_median_is_not_met(self):
        r = ledger.row("x", "pps", base=("off", [10.0, 10.0, 10.0]),
                       subject=("on", [8.0, 9.5, 8.5]), bar=0.9)
        self.assertEqual(r["median"], 0.85)
        self.assertFalse(r["met"])
        self.assertEqual(list(r)[-2:], ["bar", "met"])


class EquivalenceChecks(unittest.TestCase):
    def test_artifact_compare_fails_on_one_differing_byte(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            for d, flows in ((a, b"fct_ms\n1.25\n"), (b, b"fct_ms\n1.35\n")):
                with open(os.path.join(d, "cell_flows.csv"), "wb") as f:
                    f.write(flows)
                with open(os.path.join(d, "cell_metrics.json"), "wb") as f:
                    f.write(b"{}\n")
            self.assertEqual(ledger.artifact_differences(a, a), [])
            self.assertEqual(ledger.artifact_differences(a, b),
                             ["cell_flows.csv differs"])
            self.assertFalse(ledger.check(
                "x", ledger.artifact_differences(a, b), "")["ok"])

    def test_fingerprint_check_fails_on_one_differing_field(self):
        ref = {"result": {"mean_small_ms": 1.5, "p99_small_ms": 3.0,
                          "flows": 100}}
        over = {"result": dict(ref["result"], p99_small_ms=3.0000001)}
        same = ledger.fingerprint_check("c", [(ref, json.loads(
            json.dumps(ref)))] * 3)
        self.assertTrue(same["ok"])
        differs = ledger.fingerprint_check("c", [(ref, ref), (ref, over)])
        self.assertFalse(differs["ok"])
        self.assertIn("pair 1", differs["detail"])


if __name__ == "__main__":
    unittest.main()
