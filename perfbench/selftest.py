#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks the self-time arithmetic on a
synthetic span set, and runs every workload traced at a tiny horizon to show
that each layer's spans appear where the layer runs and only there, that every
binding of a wrapped function was replaced, and that the traced artifacts are
byte-identical to those of an untraced run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import unittest
from collections import Counter
from pathlib import Path

from checks import artifact_hashes, check_run
from run import HERE, WORK_ROOT, run_child
from tracer import layer_metrics, load_spans, self_times
from workloads import (END_TO_END, EXPECTED_EDGES, EXPECTED_SPANS, HIGHER_IS_BETTER,
                       LAYER_METRICS, WORKLOADS)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_workloads_py(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in doc["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
                          for name, unit, *_ in LAYER_METRICS])


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] with children a [1, 4] and b [3, 6], which overlap as
    # parallel workers do, and c [8, 12], which outlives it; a has child g.
    SPANS = [
        (1, "harness.run_replications", 0.0, 10.0, None),
        (2, "harness.run_seed", 1.0, 4.0, 1),
        (3, "harness.run_seed", 3.0, 6.0, 1),
        (4, "envs.write_trace_csv", 8.0, 12.0, 1),
        (5, "dp.solve_dp_discrete", 2.0, 3.0, 2),
        (6, "generators.gen_discrete_pareto", 20.0, 20.5, None),
        (7, "generators.gen_gaussian_lowrank", 21.0, 21.25, None),
    ]

    def test_self_times(self):
        got = self_times(self.SPANS)
        # root: 10 minus the union [1, 6] + [8, 10]; a: 3 minus g
        want = {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0, 6: 0.5, 7: 0.25}
        self.assertEqual(got.keys(), want.keys())
        for sid, value in want.items():
            self.assertAlmostEqual(got[sid], value, places=12, msg=f"span {sid}")

    def test_layer_metrics(self):
        counters = {"envs.trace_rows": 8, "elimination.objective_rounds": 4,
                    "elimination.useful_eliminate_calls": 1, "dp.solve_dp_discrete.states": 7}
        names = ["harness.run_seed.calls", "harness.run_seed.self_s", "harness.run_seed.s",
                 "harness.run_replications.self_s", "generators.gen.s",
                 "dp.solve_dp_discrete.states", "envs.trace_rows_per_s",
                 "elimination.useful_eliminate_ratio", "trace.overhead_frac",
                 "elimination.eliminate.calls", "elimination.pd_skips"]
        got = layer_metrics(self.SPANS, counters, names, simulate_wall=12.0,
                            untraced_simulate_s=10.0)
        want = {"harness.run_seed.calls": 2, "harness.run_seed.self_s": 5.0,
                "harness.run_seed.s": 6.0, "harness.run_replications.self_s": 3.0,
                "generators.gen.s": 0.75, "dp.solve_dp_discrete.states": 7,
                "envs.trace_rows_per_s": 2.0, "elimination.useful_eliminate_ratio": 0.25,
                "trace.overhead_frac": 1.2, "elimination.eliminate.calls": 0,
                "elimination.pd_skips": 0}
        self.assertEqual(set(got), set(want))
        for name, value in want.items():
            self.assertAlmostEqual(got[name], value, places=12, msg=name)


class SmokeTest(unittest.TestCase):
    """Every workload traced at its smoke horizon."""

    @classmethod
    def setUpClass(cls):
        root = Path.cwd()
        cls.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        cls.cli = [sys.executable, "-m", "seqtest.cli"]
        cls.base = root / WORK_ROOT / f"selftest-{os.getpid()}"
        cls.runs = {}
        for name, wl in WORKLOADS.items():
            cls.runs[name] = cls._run(wl, cls.base / name)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.base, ignore_errors=True)

    @classmethod
    def _run(cls, wl, work):
        (work / "workers").mkdir(parents=True)
        deadline = time.monotonic() + 600.0
        seed = 0
        untraced = wl.simulate_argv(seed, "out", horizon=wl.smoke_horizon)
        traced = wl.simulate_argv(seed, "traced_out", horizon=wl.smoke_horizon)
        gen_rc, _, _ = run_child(cls.cli + wl.gen_argv(), work, cls.env, work / "log", deadline)
        sim_rc, _, _ = run_child(cls.cli + untraced, work, cls.env, work / "log", deadline)
        cmd = [sys.executable, str(HERE / "traced_main.py"), "--run-id", f"{wl.name}/smoke",
               "--spans", "spans.json", "--worker-dir", "workers",
               "--commands", json.dumps([wl.gen_argv(), traced])]
        traced_rc, _, _ = run_child(cmd, work, cls.env, work / "log", deadline)
        run = {"rc": (gen_rc, sim_rc, traced_rc), "log": (work / "log").read_text()}
        if run["rc"] == (0, 0, 0):
            spans, counters, _ = load_spans(work / "spans.json", work / "workers")
            run["spans"], run["counters"] = spans, counters
            run["untraced"] = artifact_hashes(work / "out")
            run["traced"] = artifact_hashes(work / "traced_out")
            run["checks"] = check_run(work / "traced_out", wl.smoke_horizon,
                                      wl.replication_seeds(seed), wl.emit_dataset)[0]
        return run

    def test_runs_succeed_and_outputs_check(self):
        for name, run in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(run["rc"], (0, 0, 0), run["log"][-2000:])
                self.assertEqual(run["checks"], [])

    def test_traced_artifacts_are_byte_identical(self):
        for name, run in self.runs.items():
            with self.subTest(workload=name):
                self.assertTrue(run.get("untraced"))
                self.assertEqual(run["traced"], run["untraced"])

    def test_spans_appear_where_their_layer_runs(self):
        for name, run in self.runs.items():
            counts = Counter(s[1] for s in run.get("spans", ()))
            for span, where in EXPECTED_SPANS.items():
                with self.subTest(workload=name, span=span):
                    if name in where:
                        self.assertGreater(counts[span], 0)
                    else:
                        self.assertEqual(counts[span], 0)

    def test_every_rebound_name_is_called_through_its_wrapper(self):
        for name, run in self.runs.items():
            spans = run.get("spans", ())
            by_id = {s[0]: s[1] for s in spans}
            edges = Counter((by_id.get(s[4]), s[1]) for s in spans)
            for edge, where in EXPECTED_EDGES.items():
                with self.subTest(workload=name, edge=edge):
                    if name in where:
                        self.assertGreater(edges[edge], 0)
                    else:
                        self.assertEqual(edges[edge], 0)

    def test_every_layer_metric_is_reported(self):
        names = [m for m, *_ in LAYER_METRICS]
        for name, run in self.runs.items():
            with self.subTest(workload=name):
                got = layer_metrics(run.get("spans", ()), run.get("counters", {}), names, 1.0, 1.0)
                self.assertEqual(list(got), names)
                if name in ("etc-known-d10", "etc-doubling-d10"):
                    self.assertGreater(got["dp.solve_dp_discrete.calls"], 0)
                    self.assertGreater(got["dp.solve_dp_discrete.states"], 0)
                else:
                    self.assertEqual(got["dp.solve_dp_discrete.calls"], 0)
                if name == "etc-gauss-d2":
                    self.assertGreater(got["dp.gaussian_memo_entries"], 0)
                if name == "ocmesp-d11":
                    self.assertGreater(got["elimination.candidates_evaluated"], 0)
                    self.assertGreater(got["envs.write_dataset_csv.bytes"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
