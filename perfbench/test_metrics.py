"""Unit tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench
"""

import unittest

import metrics


def span(name, t0, t1, parent=-1, computed=True):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent,
            "computed": computed}


def cell(kernel, config, work, cycles, digest="d", outcome="ok", **extra):
    c = {"kernel": kernel, "config": config, "work": work, "cycles": cycles,
         "digest": digest, "outcome": outcome}
    c.update(extra)
    return c


class SpanArithmetic(unittest.TestCase):
    def test_union_merges_overlaps_and_skips_empty(self):
        self.assertEqual(metrics.union_length([]), 0.0)
        self.assertAlmostEqual(
            metrics.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]), 4.0)
        self.assertAlmostEqual(metrics.union_length([(0, 10), (2, 3)]), 10.0)
        self.assertAlmostEqual(metrics.union_length([(3, 4), (0, 1)]), 2.0)

    def test_self_time_subtracts_direct_children_once(self):
        spans = [
            span("cell", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),        # overlaps a
            span("c", 1.5, 2.0, parent=1),        # grandchild of cell
            span("d", 9.0, 12.0, parent=0),       # runs past its parent
        ]
        self.assertEqual([round(x, 9) for x in metrics.self_times(spans)],
                         [4.0, 2.5, 3.0, 0.5, 3.0])

    def test_layer_spans_and_other_time_cover_the_wall(self):
        # Two threads; layer spans cover [1, 7] of a 10 s wall.
        spans = [span("cell", 0, 8), span("uarch.run", 1, 5, parent=0),
                 span("store.load", 2, 3, parent=1),
                 span("cell", 0, 6), span("mg.prepare", 4, 7, parent=3)]
        other = metrics.uncovered_time(10.0, spans)
        covered = metrics.union_length(
            (s["t0"], s["t1"]) for s in spans if s["name"] != "cell")
        self.assertAlmostEqual(other, 4.0)
        self.assertAlmostEqual(covered + other, 10.0)

    def test_layer_totals_count_computed_calls_only(self):
        spans = [span("cfg.profile", 0, 2), span("cfg.profile", 0, 1.5,
                                                 computed=False),
                 span("uarch.run", 2, 5), span("store.write", 3, 4, parent=2)]
        t = metrics.layer_totals(spans)
        self.assertEqual(t["cfg.profile"], (2.0, 2.0, 1))
        self.assertEqual(t["uarch.run"], (2.0, 3.0, 1))
        every = metrics.layer_totals(spans, computed_only=False)
        self.assertEqual(every["cfg.profile"][2], 2)


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(1, 12))              # 1..11
        self.assertEqual(metrics.percentile(xs, 50), 6)
        self.assertEqual(metrics.percentile(xs, 90), 10)
        self.assertEqual(metrics.percentile(xs, 100), 11)
        self.assertAlmostEqual(metrics.percentile([0, 10], 25), 2.5)
        self.assertEqual(metrics.percentile([7], 90), 7)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_reportable_percentile_keeps_ten_samples_beyond(self):
        self.assertAlmostEqual(metrics.samples_beyond(115, 90), 11.5)
        self.assertEqual(metrics.reportable_percentile(115), 90.0)
        self.assertEqual(metrics.reportable_percentile(100), 90.0)
        self.assertEqual(metrics.reportable_percentile(99), 50.0)
        self.assertEqual(metrics.reportable_percentile(1000), 99.0)
        self.assertEqual(metrics.reportable_percentile(19), None)


class Accuracy(unittest.TestCase):
    def test_ipc_error_against_the_reference(self):
        ref = [cell("gzip@long", "baseline", 100, 50),       # IPC 2.0
               cell("mcf@long", "baseline", 100, 200),       # IPC 0.5
               cell("crc@long", "baseline", 100, 100, outcome="failed")]
        est = [cell("gzip@long", "baseline", 100, 40),       # IPC 2.5
               cell("mcf@long", "baseline", 100, 200),
               cell("crc@long", "baseline", 100, 100)]
        err = metrics.ipc_errors(est, ref)
        self.assertAlmostEqual(err[("gzip@long", "baseline")], 0.25)
        self.assertEqual(err[("mcf@long", "baseline")], 0.0)
        self.assertNotIn(("crc@long", "baseline"), err)

    def test_cells_of_other_input_sets_line_up(self):
        self.assertEqual(metrics.cell_key(cell("gzip@long#7", "int", 1, 1)),
                         ("gzip@long", "int"))

    def test_coverage_counts_errors_within_their_own_bound(self):
        errors = {("a", "x"): 0.01, ("b", "x"): 0.05, ("c", "x"): 0.02,
                  ("d", "x"): 0.0}
        bounds = {("a", "x"): 0.02, ("b", "x"): 0.04, ("c", "x"): 0.02}
        self.assertEqual(metrics.covered(errors, bounds), 2)
        s = metrics.error_summary(errors, bounds, attempted=5)
        self.assertAlmostEqual(s["bound_cover_frac"], 0.4)
        self.assertAlmostEqual(s["ipc_err_median_pct"], 1.5)
        self.assertAlmostEqual(s["ipc_err_max_pct"], 5.0)
        self.assertAlmostEqual(s["ipc_err_p90_pct"],
                               100 * (0.02 + 0.7 * 0.03))

    def test_critpath_error_is_relative_to_recorded_cycles(self):
        cp = {"actual": 1000, "modeled": 980}
        err = metrics.critpath_errors([cell("k", "int", 1, 1, critpath=cp),
                                       cell("j", "int", 1, 1)])
        self.assertEqual(err, {("k", "int"): 0.02})


class Failures(unittest.TestCase):
    def setUp(self):
        self.run = [cell("a", "base", 1, 1, "d1"), cell("a", "int", 1, 1, "d2"),
                    cell("b", "base", 1, 1, "d3"), cell("b", "int", 1, 1, "d4")]

    def test_clean_runs_fail_nothing(self):
        self.assertEqual(metrics.failed_cells([self.run, self.run]), set())

    def test_each_check_marks_its_cells(self):
        again = [dict(c) for c in self.run]
        again[1]["digest"] = "other"                  # not deterministic
        again[2]["outcome"] = "timed_out"             # not ok
        self.assertEqual(metrics.failed_cells([self.run, again]),
                         {("a", "int"), ("b", "base")})
        # A kernel whose checksum fails fails its whole row.
        self.assertEqual(
            metrics.failed_cells([self.run], kernel_ok={"a": True,
                                                        "b": False}),
            {("b", "base"), ("b", "int")})
        ref = {"a|base": "d1", "a|int": "d2", "b|base": "d3", "b|int": "x"}
        self.assertEqual(
            metrics.failed_cells([self.run], reference_digests=ref),
            {("b", "int")})
        cold = [dict(c) for c in self.run]
        cold[0]["digest"] = "cold"
        self.assertEqual(metrics.failed_cells([self.run], equal_to=cold),
                         {("a", "base")})
        self.assertEqual(
            metrics.failed_cells([self.run],
                                 check=lambda c: c["config"] == "base"),
            {("a", "int"), ("b", "int")})

    def test_a_cell_failing_several_checks_counts_once(self):
        bad = [dict(c, outcome="failed") for c in self.run]
        got = metrics.failed_cells([bad], kernel_ok={"a": False, "b": True})
        self.assertEqual(len(got), 4)
        self.assertAlmostEqual(1 - len(got) / len(self.run), 0.0)


if __name__ == "__main__":
    unittest.main()
