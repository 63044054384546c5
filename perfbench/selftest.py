"""Self-tests of the benchmark: seeded inputs and the correctness gate.

    python3 perfbench/selftest.py

Kept out of the package's test suite: the file name is not collected by
pytest, and the tests exercise the benchmark, not the package.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from riskctmdp import gen_example, jsonio, solve_ctmdp  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _solve_report(model) -> dict:
    report, _ = solve_ctmdp(model)
    return jsonio.loads(jsonio.dumps(report.to_dict(model.states,
                                                    model.actions)))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in inputs.WORKLOADS:
                a, b = Path(tmp, name, "a"), Path(tmp, name, "b")
                ops_a = inputs.build_workload(name, 7, a)
                ops_b = inputs.build_workload(name, 7, b)
                self.assertEqual(_files(a), _files(b), name)
                self.assertEqual([op.key for op in ops_a],
                                 [op.key for op in ops_b])

    def test_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a"), Path(tmp, "b")
            inputs.build_workload("solve", 7, a)
            inputs.build_workload("solve", 8, b)
            self.assertNotEqual(_files(a)["random0.json"],
                                _files(b)["random0.json"])
            seeds = [[op.args[-1] for op in inputs.build_workload(
                "simulate", seed, Path(tmp, str(seed)))] for seed in (7, 8)]
            self.assertNotEqual(seeds[0], seeds[1])


class GateTest(unittest.TestCase):
    def test_value_off_by_1e_3_fails(self):
        model = gen_example("random", {"n": 8, "m": 3}, 5)
        report = _solve_report(model)
        self.assertIsNone(gate.check_solve(0, report, model))
        report["values"]["s3"] *= 1 + 1e-3
        self.assertIn("linear evaluation",
                      gate.check_solve(0, report, model))

    def test_flipped_infinite_state_fails(self):
        model = gen_example("birth_death", {"levels": 6, "birth": 3,
                                            "death": 1, "cost": 1}, 0)
        report = _solve_report(model)
        self.assertIsNone(gate.check_solve(0, report, model))
        self.assertIn("6", report["infinite_states"])
        report["infinite_states"].remove("6")
        self.assertIn("infinite states", gate.check_solve(0, report, model))

    def test_differing_simulate_bytes_fail(self):
        op = inputs.Op("simulate.x", "simulate", [], lambda s, r: None)
        samples = {"simulate.x": [run.Sample(1.0, 0, "aa"),
                                  run.Sample(1.0, 0, "aa"),
                                  run.Sample(1.0, 0, "ab")]}
        with tempfile.TemporaryDirectory() as tmp:
            out = {"simulate.x": Path(tmp, "first.json")}
            failures = run.gate_ops(gate, [op], samples, out)
        self.assertEqual([(key, r, declared) for key, r, _, declared
                          in failures], [("simulate.x", 2, False)])

    def test_non_convergence_is_declared(self):
        report = {"converged": False, "values": {}}
        self.assertTrue(gate.is_declared(2, report))
        self.assertFalse(gate.is_declared(0, report))
        self.assertIn("exit status 2",
                      gate.check_closed_form(2, report, q=1.0, c=0.5))


class TracerTest(unittest.TestCase):
    def test_sweeps_are_counted_not_read_from_the_report(self):
        import spans
        from riskctmdp import build_equivalent_dtmdp
        from riskctmdp import solver

        model = gen_example("two_state", {"q": 1, "c": 0.999}, 0)
        dtmdp = build_equivalent_dtmdp(model)
        tracer = spans.Tracer()
        tracer.install()
        try:
            report = solver.value_iterate(dtmdp, max_iters=7)
            solver.evaluate_policy_iterative(dtmdp, report.policy,
                                             max_iters=5)
        finally:
            tracer.uninstall()
        self.assertEqual(report.iterations, 7)
        counted = {s.name: s.counts.get("sweeps") for s in tracer.spans}
        self.assertEqual(counted["solver.value_iterate"], 7)
        self.assertEqual(counted["solver.evaluate_policy_iterative"], 5)
        self.assertFalse(hasattr(solver._iterate, "__wrapped__"))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(inputs.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
