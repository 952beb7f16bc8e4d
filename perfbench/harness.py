"""Child-process runner and the statistics the benchmark reports.

Every op is one or more ``clustercert`` commands, each in its own child
process so the library's memo caches start cold as they do for a real
invocation. A command is timed from just before spawn to the moment the
child exits; its CPU time and peak RSS come from the child's own rusage
(``os.wait4``). A watchdog kills a command that outlives its timeout.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """Environment for a child: the package comes from the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(args) -> list[str]:
    """The command line a user runs (``clustercert ARGS``), under this interpreter."""
    return [sys.executable, "-m", "clustercert.cli", *args]


@dataclass
class CommandRun:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int | None  # None when the watchdog killed the child
    stdout: bytes
    stderr: bytes

    @property
    def timed_out(self) -> bool:
        return self.returncode is None


class Spawner:
    """Starts every command from a small helper process.

    Linux carries a process's peak RSS across exec, and a child forked from
    the benchmark itself would inherit the benchmark's peak (it holds every
    input matrix). The helper runs without ``site`` and imports little, so it
    stays below any ``clustercert`` command and a child's ``ru_maxrss`` is the
    command's own peak.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
        )

    def run(self, argv, *, timeout_s: float, out_dir: Path) -> CommandRun:
        request = {"argv": [str(a) for a in argv], "timeout_s": timeout_s, "out_dir": str(out_dir)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        return CommandRun(
            **json.loads(reply),
            stdout=(out_dir / "stdout").read_bytes(),
            stderr=(out_dir / "stderr").read_bytes(),
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class OpResult:
    """One op: its commands run in order, times summed, RSS maximized."""

    label: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    runs: list = field(default_factory=list)
    error: str | None = None
    scale: float = 1.0  # reference speed over machine speed, from the op's calibration sample
    interval_s: float = 0.0  # client time spent on the op: run plus checks

    @property
    def ok(self) -> bool:
        return self.error is None


def run_op(spawner: Spawner, label: str, commands, *, timeout_s: float, out_dir: Path,
           argv_of=cli_argv) -> OpResult:
    """Run an op's commands in order under one shared timeout.

    A command that times out or exits non-zero fails the op; the remaining
    commands are skipped. Output checks are the caller's job.
    """
    result = OpResult(label)
    for args in commands:
        run = spawner.run(argv_of(args), timeout_s=timeout_s - result.wall_s, out_dir=out_dir)
        result.runs.append(run)
        result.wall_s += run.wall_s
        result.cpu_s += run.cpu_s
        result.maxrss_kb = max(result.maxrss_kb, run.maxrss_kb)
        if run.timed_out:
            result.error = f"timeout after {timeout_s:g} s in `{' '.join(args[:1])}`"
            break
        if run.returncode != 0:
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
            result.error = f"exit {run.returncode} in `{' '.join(args[:1])}`" + "".join(f": {t}" for t in tail)
            break
    return result


# A fixed command of the same shape as an op, without the package under
# test: start an interpreter, import what the CLI imports, parse rationals.
CALIBRATION_CODE = (
    "import argparse, decimal, json\n"
    "from fractions import Fraction\n"
    "values = [Fraction(f'{(i * 7919) % 5000 / 1000:.3f}') for i in range(6000)]\n"
)
# Its wall time on the machine the benchmark was defined on (2-vCPU Intel
# Xeon at 2.0 GHz, Python 3.11), median of many runs back to back.
CALIBRATION_REF_S = 0.095


def calibrate(spawner: Spawner, out_dir: Path) -> float:
    """Wall time of one run of CALIBRATION_CODE in a child process.

    The benchmark's host changes speed by tens of percent within a minute,
    and the program's times move with it. Before each op the benchmark runs
    this command, and every time measured for the op is multiplied by
    CALIBRATION_REF_S over the calibration time: it is reported at the
    reference speed. A calibration in a child tracks those swings about
    twice as closely as a loop inside the benchmark's own process.
    """
    run = spawner.run([sys.executable, "-c", CALIBRATION_CODE], timeout_s=60, out_dir=out_dir)
    if run.returncode != 0:
        raise RuntimeError(f"calibration failed: {run.stderr.decode(errors='replace')}")
    return run.wall_s


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def tail_percentile(values, *, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``. With N samples sorted
    ascending, the value is the (beyond+1)-th largest and the percentile is
    100*(N-beyond)/N. Failed ops enter as ``inf``, so they always count as
    missing the tail. Too small a sample falls back to the maximum, reported
    as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def summarize(ops: list[OpResult], timeout_s: float) -> dict:
    """End-to-end figures for the measured ops (units as in BENCHMARK.json).

    Every time is taken at the reference speed: multiplied by its op's scale.
    """
    done = [op for op in ops if op.ok]
    walls = [op.wall_s * op.scale if op.ok else float("inf") for op in ops]
    tail, pct, count = tail_percentile(walls)
    return {
        "op_p50_s": median(op.wall_s * op.scale for op in done) if done else float(timeout_s),
        "op_tail_s": min(tail, float(timeout_s)),
        "op_tail_percentile": pct,
        "op_tail_samples": count,
        "ops_per_s": len(done) / sum(op.interval_s * op.scale for op in ops),
        "op_cpu_p50_s": median(op.cpu_s * op.scale for op in done) if done else float(timeout_s),
        "unscaled_op_p50_s": median(op.wall_s for op in done) if done else float(timeout_s),
        "peak_rss_mb": max(op.maxrss_kb for op in ops) / 1024,
        "op_success_ratio": len(done) / len(ops),
        "error_rate": 1 - len(done) / len(ops),
    }
