"""The benchmark's own tests: generator determinism, negative controls, tracing.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Scratch files go under
``.perfbench_work/`` and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

from run import ROOT, SRC, Op, run_pass, run_passes, scaled_latencies

sys.path.insert(0, str(SRC))
import lgcert  # noqa: E402
import lgcert.cli  # noqa: E402
import lgcert.macrocert  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402

WORK = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def ops_for(workload: str, seed: int = 3) -> list[Op]:
    work = WORK / f"{workload}-{seed}"
    (work / "out").mkdir(parents=True, exist_ok=True)
    return [Op(inp, work, lgcert) for inp in generate(workload, seed, work / "inputs")]


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS:
            first = WORK / "gen-a" / workload
            generate(workload, 11, first)
            generate(workload, 11, WORK / "gen-b" / workload)
            generate(workload, 12, WORK / "gen-c" / workload)
            self.assertEqual(files(first), files(WORK / "gen-b" / workload))
            self.assertNotEqual(files(first), files(WORK / "gen-c" / workload))


class NegativeControlTest(unittest.TestCase):
    def test_shifted_probability_fails_the_oracle(self):
        op = ops_for("certify-exact")[0]
        code = op.call()
        report = json.loads(op.out.read_bytes())
        self.assertEqual(oracle.check_report(report, op.inp["scenario"], code), [])
        table = next(iter(report["experiments"].values()))
        key = next(iter(table["probabilities"]))
        table["probabilities"][key] += 1e-9
        self.assertNotEqual(oracle.check_report(report, op.inp["scenario"], code), [])

    def test_wrong_exit_code_fails(self):
        op = ops_for("certify-exact")[0]
        op.call()
        report = json.loads(op.out.read_bytes())
        self.assertNotEqual(oracle.check_report(report, op.inp["scenario"], 2), [])

    def test_dropped_sweep_row_fails(self):
        for op in ops_for("sweep"):
            code = op.call()
            text = op.out.read_text()
            rows_path = op.out.with_suffix(".rows.json")
            lgcert.cli.main(["sweep", str(op.inp["path"]), "--format", "json", "--out", str(rows_path)])
            rows = json.loads(rows_path.read_text())
            args = (op.inp["spec"], op.inp["error_row"])
            self.assertEqual(oracle.check_sweep(text, *args, rows, code), [])
            lines = text.splitlines(keepends=True)
            dropped = "".join(lines[:5] + lines[6:])
            self.assertNotEqual(oracle.check_sweep(dropped, *args), [])

    def test_infeasible_claim_fails(self):
        op = next(o for o in ops_for("feasibility") if o.inp["set"]["feasible"])
        result = op.call()
        self.assertEqual(oracle.check_feasibility(result, op.moment_set, True), [])
        self.assertNotEqual(oracle.check_feasibility(result, op.moment_set, False), [])

    def test_output_differing_from_warm_up_counts_as_failed(self):
        ops = ops_for("certify-exact")[:2]
        for op in ops:
            op.reference = (op.call(), b"not the report")
        result = run_pass(ops)
        self.assertEqual([op.failures for op in ops], [1, 1])
        self.assertEqual(len(result["latencies_ns"]), 2)


class CalibrationTest(unittest.TestCase):
    def test_every_pass_is_scaled_by_its_own_speed(self):
        ops = ops_for("certify-exact")[:2]
        for op in ops:
            op.reference = op.observe(op.call())
        passes = run_passes(ops, seconds=0.0, min_ops=4)
        self.assertGreaterEqual(len(passes), 2)
        self.assertTrue(all(p["speed"] > 0 for p in passes))
        expected = [x * p["speed"] for p in passes for x in p["latencies_ns"]]
        self.assertEqual(scaled_latencies(passes), expected)
        self.assertEqual(sum(op.failures for op in ops), 0)


class TracingTest(unittest.TestCase):
    def test_traced_outputs_are_byte_identical_and_bindings_restored(self):
        original_main = lgcert.cli.main
        for workload in WORKLOADS:
            ops = ops_for(workload)[:3]
            plain = [op.observe(op.call()) for op in ops]
            tracer = spans.Tracer()
            tracer.install()
            try:
                self.assertIsNot(lgcert.cli.main, original_main)
                for op, expected in zip(ops, plain):
                    tracer.begin_op()
                    self.assertEqual(op.observe(op.call()), expected, op.inp["name"])
            finally:
                tracer.uninstall()
            self.assertIs(lgcert.cli.main, original_main)
            layer = tracer.per_op(len(ops))
            if workload.startswith("certify"):
                self.assertGreater(layer["qcore.eigh_calls"], 0)
                self.assertGreater(layer["cli.run_self_ms"], 0)
            if workload == "sweep":
                self.assertGreater(layer["cli.sweep_overlap"], 0)
                rows = [s for s in tracer.spans if s[1] == "cli._sweep_row"]
                sweeps = {s[0] for s in tracer.spans if s[1] == "cli.run_sweep"}
                self.assertTrue(rows and all(s[4] in sweeps for s in rows))
            if workload == "feasibility":
                self.assertEqual(layer["qcore.eigh_calls"], 0)
                self.assertGreater(layer["macrocert.fm_ms"], 0)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
