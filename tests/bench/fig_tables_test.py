#!/usr/bin/env python3
"""The figure-table renderer (bench/fig_tables.py) on hand-built fig2 and
fig4 summaries: the table cells, the median and [min–max] spread over
seeds, and a non-zero exit on a summary that lacks a column.

    python3 tests/bench/fig_tables_test.py    # or: ctest -R FigTables
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "bench", "fig_tables.py")
_spec = importlib.util.spec_from_file_location("fig_tables", SCRIPT)
fig_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fig_tables)


def fig4_row(scheme, load, seed, small, large, met):
    return {"scheme": scheme, "load": load, "seed": seed,
            "mean_small_ms": small, "mean_small_lb_ms": small,
            "p99_small_ms": 2 * small, "small_flows": 10,
            "mean_large_ms": large, "mean_large_lb_ms": large,
            "large_flows": 2, "edf_deadline_met": met, "drops": 0,
            "events": 1000}


def fig2_row(scheme, seed, fct, met, adaptations):
    return {"scheme": scheme, "seed": seed,
            "interactive_mean_fct_ms": fct,
            "interactive_p99_fct_ms": 3 * fct, "interactive_flows": 50,
            "deadline_met": met, "background_phase1_gbps": 0.5,
            "background_phase2_gbps": 1.0, "adaptations": adaptations}


class Summaries(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, experiment, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"experiment": experiment, "grid": rows}, f)
        return path

    def run_script(self, *paths):
        return subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True,
                              encoding="utf-8")


class OneSeed(Summaries):
    def test_fig4_tables_have_the_bench_columns(self):
        path = self.write("fig4_summary.json", "fig4", [
            fig4_row("fifo", 0.2, 1, 1.0104, 57.2521, 1.0),
            fig4_row("fifo", 0.8, 1, 2.6456, 181.0349, 0.9996),
            fig4_row("qvisor-pfabric", 0.2, 1, 0.1563, 20.0141, 0.986),
            fig4_row("qvisor-pfabric", 0.8, 1, 0.2024, 92.7031, 0.98),
        ])
        lines = fig_tables.render(path)
        header = ("%-6s" % "load" + " | %26s" % "FIFO: pFabric and EDF"
                  + " | %26s" % "QVISOR: pFabric >> EDF")
        i = lines.index(
            "Fig. 4a — pFabric mean FCT, small flows (0, 100 KB), ms")
        self.assertEqual(lines[i + 1], header)
        self.assertEqual(lines[i + 2],
                         "0.20   | %26.3f | %26.3f" % (1.0104, 0.1563))
        self.assertEqual(lines[i + 3],
                         "0.80   | %26.3f | %26.3f" % (2.6456, 0.2024))
        j = lines.index(
            "Fig. 4b — pFabric mean FCT, big flows [1 MB, inf), ms")
        self.assertEqual(lines[j + 3],
                         "0.80   | %26.3f | %26.3f" % (181.0349, 92.7031))
        k = lines.index("(extra) EDF tenant deadline-met fraction")
        self.assertEqual(lines[k + 3],
                         "0.80   | %26.3f | %26.3f" % (1.0, 0.98))

    def test_fig2_table_has_the_bench_columns(self):
        path = self.write("fig2_summary.json", "fig2", [
            fig2_row("fifo", 1, 14.5241, 0.0321, 0),
            fig2_row("qvisor-adapt", 1, 0.5611, 1.0, 3),
        ])
        lines = fig_tables.render(path)
        self.assertIn("%-20s | %-22s | %-10s | %-22s | %s" % (
            "scheme", "interactive FCT ms", "deadlines",
            "background Gb/s (p1->p2)", "adaptations"), lines)
        self.assertIn("%-20s | %-22s | %9.1f%% | %-22s | %d" % (
            "FIFO", "14.524 (p99 43.572)", 3.21, "0.500 -> 1.000", 0),
            lines)
        self.assertIn("%-20s | %-22s | %9.1f%% | %-22s | %d" % (
            "QVISOR (+runtime)", "0.561 (p99 1.683)", 100.0,
            "0.500 -> 1.000", 3), lines)


class SeveralSeeds(Summaries):
    def test_cells_show_the_median_and_the_spread(self):
        rows = [fig4_row("fifo", 0.5, seed, small, 10.0 * seed, 1.0)
                for seed, small in ((1, 3.0), (2, 1.0), (3, 2.5))]
        lines = fig_tables.render(self.write("fig4_summary.json", "fig4",
                                             rows))
        self.assertIn("1 schemes x 1 loads x 3 seeds", lines[0])
        i = lines.index(
            "Fig. 4a — pFabric mean FCT, small flows (0, 100 KB), ms")
        self.assertEqual(lines[i + 2],
                         "0.50   | " + "2.500 [1.000–3.000]".rjust(26))
        j = lines.index(
            "Fig. 4b — pFabric mean FCT, big flows [1 MB, inf), ms")
        self.assertEqual(lines[j + 2],
                         "0.50   | " + "20.000 [10.000–30.000]".rjust(26))

    def test_fig2_spread_over_seeds(self):
        rows = [fig2_row("qvisor", seed, fct, met, adaptations)
                for seed, fct, met, adaptations in
                ((1, 0.5, 1.0, 2), (2, 0.7, 0.9, 4), (3, 0.6, 0.95, 3))]
        lines = fig_tables.render(self.write("fig2_summary.json", "fig2",
                                             rows))
        row = next(line for line in lines if line.startswith("QVISOR"))
        fields = [f.strip() for f in row.split(" | ")]
        self.assertEqual(fields, [
            "QVISOR (static)",
            "0.600 [0.500–0.700] (p99 1.800 [1.500–2.100])",
            "95.0% [90.0%–100.0%]",
            "0.500 [0.500–0.500] -> 1.000 [1.000–1.000]",
            "3 [2–4]"])

    def test_a_wide_cell_widens_its_column(self):
        rows = [fig4_row("qvisor-share", 0.5, seed, 1.0, large, 1.0)
                for seed, large in ((1, 100.0), (2, 12345.678))]
        lines = fig_tables.render(self.write("fig4_summary.json", "fig4",
                                             rows))
        j = lines.index(
            "Fig. 4b — pFabric mean FCT, big flows [1 MB, inf), ms")
        self.assertEqual(lines[j + 2],
                         "0.50   | 6222.839 [100.000–12345.678]")
        self.assertEqual(len(lines[j + 1]), len(lines[j + 2]))


class Failures(Summaries):
    def test_a_missing_column_exits_non_zero(self):
        row = fig4_row("fifo", 0.5, 1, 1.0, 2.0, 1.0)
        del row["mean_large_lb_ms"]
        result = self.run_script(self.write("fig4_summary.json", "fig4",
                                            [row]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("lacks 'mean_large_lb_ms'", result.stderr)
        self.assertEqual(result.stdout, "")

    def test_a_missing_fig2_column_exits_non_zero(self):
        row = fig2_row("fifo", 1, 1.0, 1.0, 0)
        del row["deadline_met"]
        result = self.run_script(self.write("fig2_summary.json", "fig2",
                                            [row]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("lacks 'deadline_met'", result.stderr)

    def test_an_incomplete_grid_exits_non_zero(self):
        result = self.run_script(self.write("fig4_summary.json", "fig4", [
            fig4_row("fifo", 0.2, 1, 1.0, 2.0, 1.0),
            fig4_row("pifo", 0.8, 1, 1.0, 2.0, 1.0)]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("no cell for scheme", result.stderr)

    def test_another_experiment_exits_non_zero(self):
        result = self.run_script(self.write("chaos_summary.json", "chaos",
                                            [{"seed": 1}]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("not a fig2 or fig4 summary", result.stderr)

    def test_both_summaries_render_in_one_call(self):
        fig2 = self.write("fig2_summary.json", "fig2",
                          [fig2_row("fifo", 1, 1.0, 1.0, 0)])
        fig4 = self.write("fig4_summary.json", "fig4",
                          [fig4_row("fifo", 0.5, 1, 1.0, 2.0, 1.0)])
        result = self.run_script(fig2, fig4)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("FIFO                 | 1.000 (p99 3.000)",
                      result.stdout)
        self.assertIn("Fig. 4a — pFabric mean FCT", result.stdout)


if __name__ == "__main__":
    unittest.main()
