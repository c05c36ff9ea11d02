"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs ``run.py`` once per seed for each named workload (sequentially, one
process at a time), then prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (interquartile distance
over the median) and the bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads mine,ingest --seeds 1-10

A spread marked ``!`` is at or above a third of the metric's bound.  The
runs are untraced (``--trace 0``): only end-to-end metrics carry bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: every declared one)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    workloads = args.workloads or ",".join(w["name"] for w in spec["workloads"])
    for workload in workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", f"{seconds:g}", "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                status = 1
            results.append(result)
            values = " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds[name]
            flag = "!" if spread >= bound / 3 else " "
            print(f"  {flag} {workload:9} {name:28} median {q2:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} (bound {bound})")
    return status


if __name__ == "__main__":
    sys.exit(main())
