"""Record the reference digests that the benchmark checks its runs against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py --seeds 0-15

For each workload and seed this builds the inputs exactly as set-up does,
runs every op once, checks its output independently, and stores in
``perfbench/reference.json`` the digest of the input set and of each op's
output, together with the machine the record was made on. Record again only
when a change to the program is meant to change its inputs or outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

import run  # first: puts the checkout's src on sys.path
import harness
import workloads


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def record(spawner, workload, seed: int) -> dict:
    run_dir = run.WORK / f"record-{workload.name}-{seed}"
    try:
        inputs = run.build_inputs(workload, seed, run_dir)
        judge = run.Judge(inputs.ops)
        op_dir = run_dir / "op"
        op_dir.mkdir()
        for index, op in enumerate(inputs.ops):
            result = harness.run_op(spawner, op.label, op.commands, out_dir=op_dir,
                                    timeout_s=workload.timeout_s)
            judge(index, result)
            if not result.ok:
                raise SystemExit(f"{workload.name} seed {seed}: {op.label}: {result.error}")
        return {"inputs": inputs.digest, "outputs": judge.reference}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    recorded = {"machine": machine(), "workloads": {}}
    with harness.Spawner() as spawner:
        for name, workload in workloads.WORKLOADS.items():
            recorded["workloads"][name] = {str(seed): record(spawner, workload, seed) for seed in seeds}
            print(f"{name}: seeds {seeds.start}-{seeds.stop - 1} recorded", file=sys.stderr)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
