"""Self-tests of the benchmark itself (stdlib unittest, about a minute).

    python3 perfbench/selftest.py

They check that tracing changes no output byte, that the seed changes the
inputs, and that a digest mismatch counts as a failed operation.
"""

from __future__ import annotations

import os
import unittest

import workloads as wl
from run import ROOT, Runner, import_package, load_pins, run_rounds
from spans import Tracer


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        os.chdir(ROOT)
        cls.lab = import_package()

    def test_traced_and_untraced_artifacts_are_identical(self) -> None:
        for workload in wl.WORKLOADS:
            plan = wl.plan_workload(self.lab, workload, 1)
            # two jobs of job_dense suffice; campaigns runs its whole first round
            first = plan.rounds[0][:2] if workload == "job_dense" else plan.rounds[0]
            plain = Runner(self.lab, pins={})
            run_rounds(plain, [first], count=1)
            traced = Runner(self.lab, pins={})
            tracer = Tracer()
            tracer.install(self.lab)
            try:
                run_rounds(traced, [first], count=1, tracer=tracer)
            finally:
                tracer.uninstall()
            self.assertEqual(plain.errors, [], workload)
            self.assertEqual(traced.errors, [], workload)
            self.assertEqual(plain.seen, traced.seen, workload)
            self.assertGreater(len(tracer.spans), len(first), workload)

    def test_seed_changes_the_inputs(self) -> None:
        for workload in wl.WORKLOADS:
            a = wl.plan_workload(self.lab, workload, 1)
            b = wl.plan_workload(self.lab, workload, 2)
            again = wl.plan_workload(self.lab, workload, 1)

            def drawn(plan):
                argv = [op.argv for ops in plan.rounds for op in ops]
                return argv, plan.inputs

            self.assertNotEqual(drawn(a), drawn(b), workload)
            self.assertEqual(drawn(a), drawn(again), workload)

    def test_tampered_digest_is_a_failed_operation(self) -> None:
        plan = wl.plan_workload(self.lab, "campaigns", 1)
        stpa = next(op for op in plan.rounds[0] if op.kind == "stpa")
        pins = load_pins()
        self.assertIn(stpa.key, pins)
        self.assertTrue(Runner(self.lab, pins).run(stpa)["ok"])

        tampered = dict(pins)
        tampered[stpa.key] = "0" * 64
        runner = Runner(self.lab, tampered)
        result = runner.run(stpa)
        self.assertFalse(result["ok"])
        self.assertIn("pinned", runner.errors[0])


if __name__ == "__main__":
    unittest.main()
