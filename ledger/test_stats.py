#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic (no build, under a second).

    python3 ledger/test_stats.py
"""

import json
import os
import unittest

import diff
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, dur_ms):
    return {"name": name, "dur_ms": dur_ms}


def raw_run(engine="host", kspace=True, constraints=True):
    """A synthetic driver result with round numbers."""
    spans = [span("step", 100.0), span("replay", 50.0)]
    per_call = {"md.neighbor.build": [30.0, 50.0, 40.0],
                "ff.nonbonded": [10.0, 12.0, 11.0]}
    if kspace:
        per_call.update({"ewald.kspace": [20.0, 20.0, 26.0],
                         "fft.forward": [2.0, 2.0, 2.0],
                         "fft.inverse": [3.0, 3.0, 3.0]})
    if constraints:
        per_call.update({"md.constraints.shake": [4.0, 4.0, 4.0],
                         "md.constraints.rattle": [1.0, 1.0, 1.0]})
    if engine == "machine":
        per_call.update({"runtime.redistribute": [6.0, 6.0, 6.0],
                         "runtime.evaluate": [15.0, 15.0, 15.0],
                         "machine.step_time": [0.002, 0.002, 0.002]})
    for name, durs in per_call.items():
        spans += [span(name, d) for d in durs]
    counts = {"md.neighbor.pairs": 12000.0, "md.neighbor.tiles": 300.0,
              "md.neighbor.fill_ratio": 0.5,
              "md.constraints.iterations": [10.0, 12.0, 11.0] if constraints
              else [],
              "runtime.pair_imbalance": [1.5] if engine == "machine" else []}
    if kspace:
        counts.update({"ewald.grid_points": 64.0 ** 3,
                       "ewald.stencil_points": 3375.0,
                       "fft.flops": 1e7, "fft.bytes_computed": 2.5e7})
    return {
        "engine": engine,
        "kspace_interval": 1,
        "setup": {"topo.build_ms": [5.0, 7.0, 6.0],
                  "ff.tables_ms": [1.0, 1.0, 1.0],
                  "md.init_ms": [500.0, 900.0, 700.0]},
        "window": {"wall_s": 2.0, "step_ms": [100.0] * 10},
        "trace": {"step_ms": [110.0] * 10,
                  "rebuilt": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
                  "kspace_due": [1] * 10 if kspace else [0] * 10,
                  "counts": counts, "spans": spans},
        "peak_rss_mb": 123.5,
        "gate": {"kspace_force_rel_err": 3e-5 if kspace else None},
    }


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = stats.quartiles(range(1, 11))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(range(1, 11)), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)

    def test_median_odd_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class CycleMeans(unittest.TestCase):
    def test_interval_two_pairs_steps_and_drops_tail(self):
        self.assertEqual(stats.cycle_means([400, 40, 410, 38, 420], 2),
                         [220, 224])

    def test_interval_one_is_identity(self):
        self.assertEqual(stats.cycle_means([5, 6, 7], 1), [5, 6, 7])


class EndToEnd(unittest.TestCase):
    def test_metrics(self):
        m = stats.end_to_end(raw_run())
        self.assertEqual(set(m), set(stats.END_TO_END))
        self.assertAlmostEqual(m["steps_per_s"], 5.0)
        self.assertAlmostEqual(m["step_ms_p50"], 100.0)
        self.assertAlmostEqual(m["setup_s"], 0.707)  # median of 0.506/0.908/0.707
        self.assertEqual(m["peak_rss_mb"], 123.5)


class PerLayer(unittest.TestCase):
    def test_calls_per_step_and_terms_host(self):
        m, terms = stats.per_layer(raw_run())
        self.assertEqual(m["md.neighbor.rebuilds"], 2)
        # 2 rebuilds in 10 steps at a 40 ms median build.
        self.assertAlmostEqual(terms["md.neighbor.build"], 8.0)
        self.assertAlmostEqual(terms["ff.nonbonded"], 11.0)
        self.assertAlmostEqual(terms["ewald.kspace"], 20.0)
        self.assertAlmostEqual(terms["md.constraints.shake"], 4.0)
        self.assertAlmostEqual(terms["md.constraints.rattle"], 1.0)
        self.assertNotIn("runtime.evaluate", terms)
        self.assertAlmostEqual(m["ewald.non_fft_ms"], 15.0)
        self.assertAlmostEqual(m["ff.nonbonded_pairs_per_us"], 12000 / 11e3)
        self.assertAlmostEqual(m["fft.gflops"], 1e7 / 2e-3 / 1e9)

    def test_machine_path_replaces_nonbonded_with_evaluate(self):
        raw = raw_run(engine="machine")
        raw["kspace_interval"] = 2
        raw["trace"]["kspace_due"] = [0, 1] * 5
        m, terms = stats.per_layer(raw)
        self.assertNotIn("ff.nonbonded", terms)
        self.assertAlmostEqual(terms["ewald.kspace"], 10.0)
        self.assertAlmostEqual(terms["runtime.redistribute"], 1.2)
        self.assertAlmostEqual(terms["runtime.evaluate"], 15.0)
        self.assertAlmostEqual(m["runtime.pair_imbalance"], 1.5)

    def test_residual_reconciles(self):
        for engine in ("host", "machine"):
            m, terms = stats.per_layer(raw_run(engine=engine))
            self.assertAlmostEqual(
                sum(terms.values()) + m["md.residual_ms_per_step"],
                m["md.step_ms_traced"])
        # host: 110 - (8 + 11 + 20 + 4 + 1)
        m, _ = stats.per_layer(raw_run())
        self.assertAlmostEqual(m["md.residual_ms_per_step"], 66.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)

    def test_absent_layers_report_zero_work(self):
        m, terms = stats.per_layer(raw_run(kspace=False, constraints=False))
        self.assertEqual(set(m), set(stats.PER_LAYER))
        for name in ("ewald.kspace_ms", "ewald.non_fft_ms", "fft.forward_ms",
                     "fft.flops", "fft.gflops", "md.constraints.shake_ms",
                     "md.constraints.iterations", "kspace_force_rel_err",
                     "runtime.evaluate_ms", "machine.step_time_us"):
            self.assertEqual(m[name], 0.0, name)
        self.assertEqual(set(terms), {"md.neighbor.build", "ff.nonbonded"})


class Diff(unittest.TestCase):
    def test_classify(self):
        base = [10.0, 10.1, 9.9, 10.0]
        self.assertEqual(diff.classify(base, [10.2] * 4, 0.05, True, False),
                         "ok")
        self.assertEqual(diff.classify(base, [11.0] * 4, 0.05, True, False),
                         "worse")
        self.assertEqual(diff.classify(base, [9.0, 11.0, 8.0, 12.0], 0.05,
                                       True, False), "unresolved")
        self.assertEqual(diff.classify([10.0, 14.0, 6.0, 12.0], [5.0] * 4,
                                       0.05, True, False), "better")
        self.assertEqual(diff.classify(base, base, 0.05, True, True),
                         "unmeasured")


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         stats.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         stats.PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
