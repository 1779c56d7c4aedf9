#!/usr/bin/env python3
"""Benchmark command: run one workload (or all three) against the tripleforge
sources of the checkout this file sits in.

    python3 perfbench/run.py --workload test-batch --seed 3 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
summarize the run.  ``--workload all`` runs each workload in a fresh process.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pool-index", "test-batch", "replay-sweep")
# set-up, the last pass's overrun and start-up, beyond --seconds
CHILD_SLACK_S = 150


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + CHILD_SLACK_S, check=False,
        )
        print(child.stdout, end="")
        if child.returncode != 0:
            print(f"{name}: exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "tripleforge" / "__init__.py").is_file():
        print(f"no tripleforge sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # one BLAS thread: a second one competes with the host's other tenants
    # for the two cores and makes the times jump; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import tripleforge
    import workloads

    if Path(tripleforge.__file__).resolve().parent != (src / "tripleforge").resolve():
        print(f"imported tripleforge from {tripleforge.__file__}, not {src}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                               trace_dir=scratch / "traces")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(result['metrics']))}")
    print(json.dumps(result.pop("summary"), sort_keys=True))
    for key, value in result["metrics"].items():
        print(f"{args.workload:<13} {key:<34} {value:>16.6f} {units[key]}")
    if not result["correct"]:
        print(f"{args.workload}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    result["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
