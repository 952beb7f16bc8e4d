"""clustercert benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Each op is a ``clustercert`` command line run in its own child process, one
op at a time (a closed loop with one client). Set-up writes the workload's
inputs from ``--seed``, then the ops cycle over those inputs for ``--seconds``.
Every op's output is checked independently against the input matrix and
must match the reference digest for its input: the one recorded in
``reference.json`` for that seed, else the first output seen in this run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced runs of the same ops and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import clustercert  # noqa: E402,F401  (exits non-zero where the package is absent)

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WORK = HERE / ".work"
UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "op_cpu_p50_s": "s", "peak_rss_mb": "MB", "op_success_ratio": "ratio",
}


def load_reference(name: str, seed: int):
    """Recorded input and output digests for this workload and seed, or None."""
    recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return recorded["workloads"].get(name, {}).get(str(seed))


def build_inputs(workload, seed: int, run_dir: Path):
    """The workload's inputs for ``seed``, written under ``run_dir``."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return workload.build(random.Random(f"{workload.name}:{seed}"), run_dir)


def setup(spawner, workload, seed: int, run_dir: Path):
    """Write the inputs and warm up, SETUP_REPEATS times; median scaled time."""
    times = []
    for _ in range(SETUP_REPEATS):
        run_dir.mkdir(parents=True, exist_ok=True)
        scale = harness.CALIBRATION_REF_S / harness.calibrate(spawner, run_dir)
        start = time.perf_counter()
        inputs = build_inputs(workload, seed, run_dir)
        warm = spawner.run(harness.cli_argv(["--help"]), timeout_s=60, out_dir=run_dir)
        if warm.returncode != 0:
            raise SystemExit(f"warm-up failed: {warm.stderr.decode(errors='replace')}")
        times.append((time.perf_counter() - start) * scale)
    return inputs, median(times)


class Judge:
    """Checks each op's output: independent checks once per distinct output,
    and a digest equal to the input's reference on every op."""

    def __init__(self, ops, recorded_outputs=None):
        self.ops = ops
        self.reference = list(recorded_outputs) if recorded_outputs else [None] * len(ops)
        self.verified: set = set()

    def __call__(self, index: int, result: harness.OpResult) -> None:
        op = self.ops[index]
        if not result.ok:
            self._explain(op, result)
            return
        outs = [run.stdout for run in result.runs] + [p.read_bytes() for p in op.output_files]
        got = harness.digest(*outs)
        if got not in self.verified:
            error = op.check(outs)
            if error:
                result.error = error
                return
            self.verified.add(got)
        if self.reference[index] is None:
            self.reference[index] = got
        elif got != self.reference[index]:
            result.error = "output differs from the reference digest"

    @staticmethod
    def _explain(op, result: harness.OpResult) -> None:
        """Add what the checks read in the output of an op whose last command
        exited non-zero, such as the failing checks a ``verify`` report names."""
        runs = result.runs
        if len(runs) != len(op.commands) or runs[-1].timed_out or op.output_files:
            return
        detail = op.check([run.stdout for run in runs])
        if detail:
            result.error += f"; {detail}"


def run_workload(spawner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-{seed}-{time.time_ns()}"
    try:
        return _run(spawner, workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(spawner, workload, seed, seconds, trace, run_dir) -> dict:
    inputs, setup_s = setup(spawner, workload, seed, run_dir)
    recorded = load_reference(workload.name, seed)
    notes = []
    inputs_changed = bool(recorded) and recorded["inputs"] != inputs.digest
    if inputs_changed:
        notes.append("input set differs from the one recorded in reference.json")
    judge = Judge(inputs.ops, None if inputs_changed or not recorded else recorded["outputs"])
    op_dir = run_dir / "op"
    op_dir.mkdir()

    def run_op(op, index, **kwargs):
        scale = harness.CALIBRATION_REF_S / harness.calibrate(spawner, op_dir)
        start = time.perf_counter()
        result = harness.run_op(spawner, op.label, op.commands, out_dir=op_dir, **kwargs)
        if index is not None:
            judge(index, result)
        result.scale, result.interval_s = scale, time.perf_counter() - start
        return result

    # Closed loop, one client. Whole cycles only, so every input weighs the same.
    results, traced_results, traces = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % len(inputs.ops):
        index = i % len(inputs.ops)
        op = inputs.ops[index]
        if trace:
            spans_files = []
            result = run_op(op, index, timeout_s=workload.timeout_s,
                            argv_of=_traced_argv(op_dir, spans_files))
            traced_results.append(result)
            if result.ok:  # a killed command leaves no spans file
                traces.append({"op": i, "label": op.label, "scale": result.scale,
                               "commands": [json.loads(p.read_text()) for p in spans_files]})
        results.append(run_op(op, index, timeout_s=workload.timeout_s))
        i += 1

    all_results = results + traced_results
    failures = [r for r in all_results if not r.ok]
    summary = harness.summarize(results, workload.timeout_s)
    notes.append(f"op_p50_s unscaled {summary['unscaled_op_p50_s']:.6g} s; median scale "
                 f"{median(r.scale for r in all_results):.4f}")
    if trace:
        metrics = tracer.layer_metrics(
            [tracer.scaled(tracer.op_totals(t["commands"]), t["scale"]) for t in traces])
        traced = harness.summarize(traced_results, workload.timeout_s)
        metrics["trace.op_p50_s"] = traced["op_p50_s"]
        metrics["trace.untraced_op_p50_s"] = summary["op_p50_s"]
        metrics["trace.overhead_ratio"] = traced["op_p50_s"] / summary["op_p50_s"]
        hang = workloads.hang_case_op(run_dir)
        probe = run_op(hang, None, timeout_s=workloads.HANG_PROBE_TIMEOUT_S)
        if probe.ok:
            probe.error = hang.check([probe.runs[0].stdout])
        metrics["clustering.hang_case.completed"] = int(probe.ok)
        metrics["clustering.hang_case.s"] = probe.wall_s * probe.scale
        notes.append(f"hang case probe: {'completed' if probe.ok else probe.error}")
        spans_out = WORK / f"spans-{workload.name}-{seed}.json"
        spans_out.write_text(json.dumps(traces), encoding="utf-8")
        notes.append(f"spans written to {spans_out.relative_to(HERE.parent)}")
        units = {m: u for m, u, _ in tracer.LAYER_METRICS}
    else:
        metrics = {m: summary[m] for m in UNITS if m != "setup_s"}
        metrics["setup_s"] = setup_s
        units = UNITS
        notes.append(
            f"op_tail_s is the p{summary['op_tail_percentile']:.1f} of "
            f"{summary['op_tail_samples']} ops; error_rate {summary['error_rate']:g}"
        )
    print(f"== {workload.name}  seed {seed}  {inputs.size}  {len(inputs.ops)} inputs  "
          f"{'traced' if trace else 'untraced'}  {len(all_results)} ops")
    for metric in units:
        print(f"  {metric:45s} {metrics[metric]:14.6g} {units[metric]}")
    for result in failures:
        print(f"  FAILED {result.label}: {result.error}")
    for note in notes:
        print(f"  note: {note}")
    return {
        "correct": not failures and not inputs_changed,
        "attempted": len(all_results),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def _traced_argv(op_dir: Path, spans_files: list):
    """Command lines that run the tracer in place of the CLI, one spans file each."""
    def argv_of(args):
        spans_files.append(op_dir / f"spans{len(spans_files)}.json")
        return [sys.executable, str(HERE / "tracer.py"), str(spans_files[-1]),
                repr(time.monotonic()), *args]
    return argv_of


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with harness.Spawner() as spawner:
        results = {name: run_workload(spawner, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
