"""lgcert benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports lgcert from
``src/`` and writes only under ``.perfbench_work/`` (removed on exit) and
``.perfbench_out/`` (the span file of a traced run).

Each run generates the workload's inputs from ``--seed``, times cold CLI
launches (``setup_s``), executes every input once as a warm-up that becomes
the reference output, then loops over the inputs in whole passes until
``--seconds`` have elapsed and at least 100 ops are done.  The loop's timings
are scaled to a nominal host speed by the calibration block of
``calibrate.py``, run between passes.  An op fails when
it raises, when its exit code or output bytes differ from the warm-up, or
when the warm-up output fails the independent oracle in ``oracle.py``.  With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
are reported instead of the end-to-end ones.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
from generate import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD_LAUNCHES = 9  # timed cold launches per run, after one untimed launch that fills __pycache__
MIN_OPS = 100  # so that latency_p90_ms has at least ten samples beyond it

COLD_FEASIBILITY = """\
import json, sys
from lgcert.macrocert import MomentSet, feasible_completion
s = json.load(open(sys.argv[1]))[0]
m = MomentSet(s["n"], {tuple(map(int, k.split(","))): v for k, v in s["values"].items()})
sys.stdout.write(str(feasible_completion(m)[0]))
"""


class Op:
    """One input and how to run it in-process; ``reference`` is its warm-up outcome."""

    def __init__(self, inp: dict, work: Path, lgcert):
        self.inp = inp
        self.lgcert = lgcert
        self.out = work / "out" / (inp["name"] + (".csv" if inp["kind"] == "sweep" else ".json"))
        if inp["kind"] == "feasibility":
            s = inp["set"]
            values = {tuple(map(int, k.split(","))): v for k, v in s["values"].items()}
            self.moment_set = lgcert.macrocert.MomentSet(s["n"], values)
        self.reference = None
        self.ops = 0
        self.failures = 0

    def call(self):
        """The timed operation; attributes are looked up per call so a tracer can rebind them."""
        if self.inp["kind"] == "feasibility":
            return self.lgcert.macrocert.feasible_completion(self.moment_set)
        return self.lgcert.cli.main([self.inp["kind"], str(self.inp["path"]), "--out", str(self.out)])

    def observe(self, raw):
        """What must repeat exactly: (exit code, output bytes) or the feasibility result."""
        if self.inp["kind"] == "feasibility":
            return raw
        return raw, self.out.read_bytes()

    def cold_command(self, out: Path) -> list[str]:
        if self.inp["kind"] == "feasibility":
            return [sys.executable, "-c", COLD_FEASIBILITY, str(self.inp["path"])]
        return [sys.executable, "-m", "lgcert.cli", self.inp["kind"], str(self.inp["path"]),
                "--out", str(out)]


def run_pass(ops: list[Op], tracer=None) -> dict:
    """One closed-loop pass over ``ops``: the next op starts when the previous one returned."""
    lat_ns, fm_ops, feasible, report_bytes = [], 0, 0, 0
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        op.ops += 1
        t0 = perf_counter_ns()
        try:
            raw = op.call()
        except Exception:  # an op that raises is a counted failure, not the end of the run
            lat_ns.append(perf_counter_ns() - t0)
            op.failures += 1
            traceback.print_exc(file=sys.stderr)
            continue
        lat_ns.append(perf_counter_ns() - t0)
        outcome = op.observe(raw)
        if outcome != op.reference:
            op.failures += 1
        if op.inp["kind"] == "feasibility":
            fm_ops += 1
            feasible += bool(outcome[0])
        else:
            report_bytes += len(outcome[1])
    return {"wall_s": perf_counter() - start, "latencies_ns": lat_ns, "fm_ops": fm_ops,
            "feasible": feasible, "report_bytes": report_bytes}


def run_passes(ops: list[Op], seconds: float, min_ops: int = 0, tracer=None) -> list[dict]:
    """Whole passes for ``seconds`` and at least ``min_ops`` ops; one record per pass.

    The calibration block runs before the first pass and after each one; a
    pass's ``speed`` is the nominal block time over the mean of the two
    blocks around it.  With a tracer, passes alternate untraced and traced
    and end on a traced one, so both halves see the same load on a shared
    machine.
    """
    passes = []
    gc.collect()
    block = calibrate.block_ns()
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(ops, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        after = calibrate.block_ns()
        passes[-1]["speed"] = 2 * calibrate.NOMINAL_NS / (block + after)
        block = after
        done = perf_counter() - start >= seconds and len(latencies(passes)) >= min_ops
        if done and (tracer is None or len(passes) % 2 == 0):
            return passes


def total(passes: list[dict], key: str) -> float:
    return sum(p[key] for p in passes)


def scaled_wall_s(passes: list[dict]) -> float:
    return sum(p["wall_s"] * p["speed"] for p in passes)


def latencies(passes: list[dict]) -> list[int]:
    return [x for p in passes for x in p["latencies_ns"]]


def scaled_latencies(passes: list[dict]) -> list[float]:
    return [x * p["speed"] for p in passes for x in p["latencies_ns"]]


def measure_setup(ops: list[Op], work: Path, env: dict) -> tuple[float, list[str]]:
    """Median wall time of cold launches running the workload's first input.

    Unscaled: a calibration block run right after a launch is slowed by the
    caches the child process evicted, so it does not track the host's speed.
    """
    op = ops[0]
    out = work / "cold-output"
    cmd = op.cold_command(out)
    times, problems = [], []
    for i in range(COLD_LAUNCHES + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        elapsed = perf_counter() - t0
        if i:
            times.append(elapsed)
        if op.inp["kind"] == "feasibility":
            outcome = proc.stdout.decode() == str(op.inp["set"]["feasible"])
        else:
            outcome = (proc.returncode, out.read_bytes() if out.exists() else b"") == op.reference
        if not outcome:
            problems.append(f"cold launch {i} of {op.inp['name']}: exit {proc.returncode}, "
                            f"output differs from the in-process run; {proc.stderr.decode()[-300:]}")
    return statistics.median(times), problems


def check_references(ops: list[Op], sweep_rows: dict) -> list[str]:
    """Run the independent oracle on every warm-up outcome; marks failing inputs bad."""
    import oracle  # imports scipy, so only after peak memory has been read

    problems = []
    for op in ops:
        kind = op.inp["kind"]
        try:
            if op.reference is None:
                found = ["warm-up raised"]
            elif kind == "certify":
                found = oracle.check_report(json.loads(op.reference[1]), op.inp["scenario"],
                                            op.reference[0])
            elif kind == "sweep":
                found = oracle.check_sweep(op.reference[1].decode(), op.inp["spec"],
                                           op.inp["error_row"], sweep_rows[op.inp["name"]],
                                           op.reference[0])
            else:
                found = oracle.check_feasibility(op.reference, op.moment_set,
                                                 op.inp["set"]["feasible"])
        except Exception as exc:  # malformed output is a failed check, not a crashed benchmark
            found = [f"output could not be checked: {exc!r}"]
        if found:
            op.failures = op.ops
            problems.extend(f"{op.inp['name']}: {p}" for p in found[:5])
    return problems


def percentile_ms(latencies_ns: list[float], q: int) -> float:
    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[q - 1] / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lgcert" / "cli.py").is_file():
        sys.stderr.write(f"error: no lgcert sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import lgcert.cli
    import lgcert.macrocert

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work, lgcert)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, lgcert) -> int:
    inputs = generate(args.workload, args.seed, work / "inputs")
    (work / "out").mkdir(parents=True)
    ops = [Op(inp, work, lgcert) for inp in inputs]
    problems = []

    sweep_rows = {}
    for op in ops:  # warm-up pass: its outcomes are the reference every later op must repeat
        try:
            op.reference = op.observe(op.call())
            if op.inp["kind"] == "sweep":
                rows_path = work / "out" / f"{op.inp['name']}.rows.json"
                lgcert.cli.main(["sweep", str(op.inp["path"]), "--format", "json",
                                 "--out", str(rows_path)])
                sweep_rows[op.inp["name"]] = json.loads(rows_path.read_text())
        except Exception:
            traceback.print_exc(file=sys.stderr)

    metrics = {}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        passes = run_passes(ops, args.seconds, tracer=tracer)
        plain, traced = passes[0::2], passes[1::2]
        n = len(latencies(traced))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
        layer = tracer.per_op(n)
        fm_ops = total(traced, "fm_ops")
        layer["macrocert.fm_feasible_ratio"] = total(traced, "feasible") / fm_ops if fm_ops else 0.0
        layer["cli.report_bytes"] = total(traced, "report_bytes") / n
        layer["trace.overhead_pct"] = 100.0 * (scaled_wall_s(traced) / scaled_wall_s(plain) - 1)
        units = {"_ms": "ms", "_calls": "count", "_ratio": "ratio", "_bytes": "bytes",
                 "_overlap": "ratio", "_pct": "%"}
        for name, value in sorted(layer.items()):
            unit = next(u for suffix, u in units.items() if name.endswith(suffix))
            metrics[name] = {"value": value, "unit": unit}
        summary = [f"traced run: {len(plain)} untraced and {len(traced)} traced passes "
                   f"alternating, {n} traced ops, {len(tracer.spans)} spans"]
    else:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup_s, cold_problems = measure_setup(ops, work, env)
        problems += cold_problems
        passes = run_passes(ops, args.seconds, min_ops=MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat, wall = scaled_latencies(passes), latencies(passes)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / scaled_wall_s(passes), "unit": "1/s"},
            "latency_p50_ms": {"value": percentile_ms(lat, 50), "unit": "ms"},
            "latency_p90_ms": {"value": percentile_ms(lat, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        speeds = [p["speed"] for p in passes]
        summary = [f"closed loop, 1 client, {len(lat)} ops over {len(ops)} inputs in "
                   f"{total(passes, 'wall_s'):.2f} s; setup_s is the median of {COLD_LAUNCHES} "
                   "cold launches",
                   f"timings scaled to nominal host speed; pass speed factors "
                   f"{min(speeds):.3f}-{max(speeds):.3f}, median {statistics.median(speeds):.3f}",
                   f"unscaled wall: {len(wall) / total(passes, 'wall_s'):.4g} ops/s, "
                   f"p50 {percentile_ms(wall, 50):.4g} ms, p90 {percentile_ms(wall, 90):.4g} ms"]

    problems += check_references(ops, sweep_rows)
    attempted = len(latencies(passes))
    failed = sum(op.failures for op in ops)
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    summary.append(f"  {'error_rate':16s} {failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        summary.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"lgcert benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(summary))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
