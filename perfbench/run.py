"""perfbench — the repeatable benchmark of the NeuroRule reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload mine --seed 1 --seconds 10 --trace 0

Workloads (see NOTES.md for why each exists and which layers it stresses):
``mine`` (rule mining, closed loop), ``ingest`` (bulk generate → classify →
store) and ``pushdown`` (in-database rule queries) are the ones
``BENCHMARK.json`` declares.  ``serve`` (open-loop single-record requests)
runs the same way but is not declared: its latency follows the host's load
more than the program's speed (NOTES.md).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it measures once untraced and once with ``repro.obs`` tracing on, and
reports the per-layer metrics plus the tracing overhead.  Either way a table
goes to standard output, details to ``perfbench/out/``, and the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``setup_s`` times cold starts: ``run.py --workload W --seed N --setup-only``
in a fresh interpreter, which imports the program, makes the inputs, runs the
workload's set-up and exits.

The exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark could not run (bad arguments, program sources missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import uuid

from harness import (
    Recorder,
    adopt_processes,
    end_processes,
    format_table,
    load_repro,
    metric,
    peak_rss_mb,
    quantile,
    self_times,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A set-up child that takes longer than this is a failed run.
SETUP_TIMEOUT_S = 120


def workload_classes():
    from ingest import IngestWorkload
    from mine import MineWorkload
    from pushdown import PushdownWorkload
    from serve import ServeWorkload

    return {
        cls.name: cls for cls in (MineWorkload, IngestWorkload, ServeWorkload, PushdownWorkload)
    }


WORKLOAD_NAMES = ("mine", "ingest", "serve", "pushdown")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="get the workload ready, then exit (what setup_s times, in a fresh process)",
    )
    args = parser.parse_args(argv)
    if not args.setup_only:
        if args.seconds is None or args.trace is None:
            parser.error("--seconds and --trace are required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
    return args


def cold_starts(args) -> list:
    """Seconds for a fresh interpreter to import the program and get ready.

    Each sample spawns ``run.py --setup-only`` (imports, input generation,
    the workload's set-up) and waits for it to exit.  Millisecond in-process
    set-ups read up to 2x apart between processes on a shared VM; whole cold
    starts are both steadier and what a user of the system waits for.
    """
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    seconds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S
        )
        seconds.append(time.perf_counter() - started)
    return seconds


def setup_only(args, obs) -> int:
    workdir = os.path.join(HERE, ".work", uuid.uuid4().hex[:12])
    os.makedirs(workdir)
    workload = workload_classes()[args.workload](args.seed, workdir, Recorder(obs, "setup"))
    try:
        workload.prepare()
        workload.setup()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args, obs) -> int:
    end_to_end, per_layer = declared_metrics()
    run_id = uuid.uuid4().hex[:12]
    workdir = os.path.join(HERE, ".work", run_id)
    outdir = os.path.join(HERE, "out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    recorder = Recorder(obs, run_id)
    workload = workload_classes()[args.workload](args.seed, workdir, recorder)
    try:
        setups = [] if args.trace else cold_starts(args)
        workload.prepare()
        workload.setup()

        untraced = workload.measure(args.seconds)
        attempted, failed = workload.counts(untraced)
        problems = workload.check(untraced)
        e2e, report, notes = workload.end_to_end(untraced)
        lines = [
            f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} run={run_id}"
        ]

        if args.trace:
            obs.reset_tracing()
            obs.enable_tracing()
            try:
                traced = workload.measure(args.seconds)
            finally:
                obs.disable_tracing()
            records = recorder.export()
            more_attempted, more_failed = workload.counts(traced)
            attempted += more_attempted
            failed += more_failed
            problems += workload.check(traced)
            if hasattr(workload, "compare"):
                problems += workload.compare(untraced, traced)
            traced_e2e, _, _ = workload.end_to_end(traced)
            before = e2e["latency_p50_ms"]["value"]
            after = traced_e2e["latency_p50_ms"]["value"]
            layers = workload.layers(traced, records)
            layers["tracing.overhead_pct"] = metric(100.0 * (after - before) / before, "%")
            trace_path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            obs.write_trace_jsonl(records, trace_path)
            # Layers this workload never calls did no work: they read 0.
            metrics = {d["name"]: layers.get(d["name"], metric(0.0, d["unit"])) for d in per_layer}
            # An undeclared workload (serve) reports its own layers as well.
            metrics.update({name: m for name, m in layers.items() if name not in metrics})
            lines.append(
                f"tracing overhead: p50 operation latency {before:.3f} ms untraced, "
                f"{after:.3f} ms traced ({after - before:+.3f} ms); "
                f"{len(records)} span records in {os.path.relpath(trace_path, ROOT)}"
            )
            rows = [("per-layer metric", "value", "unit")]
            rows += [(name, f"{m['value']:.6g}", m["unit"]) for name, m in layers.items()]
            lines.append(format_table(rows))
            selfs = sorted(self_times(records).items(), key=lambda kv: -kv[1])[:12]
            rows = [("span (top self time)", "self_s")] + [(n, f"{s:.4f}") for n, s in selfs]
            lines.append(format_table(rows))
        else:
            metrics = dict(e2e)
            metrics["setup_s"] = metric(quantile(setups, 0.5), "s")
            metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
            missing = [d["name"] for d in end_to_end if d["name"] not in metrics]
            if missing:
                raise RuntimeError(f"workload {args.workload} left metrics unset: {missing}")
            metrics = {d["name"]: metrics[d["name"]] for d in end_to_end}
            rows = [("metric", "value", "unit")]
            rows += [(name, f"{m['value']:.6g}", m["unit"]) for name, m in metrics.items()]
            rows.append(("error_rate", f"{failed / attempted:.6g}", "ratio"))
            rows += [(name, f"{value:.6g}", unit) for name, (value, unit) in report.items()]
            lines.append(format_table(rows))
            lines.append(f"cold starts: {', '.join(f'{s:.4f}s' for s in setups)}")
        lines.extend(notes)
        lines.append(f"attempted {attempted}, failed {failed}")
        for problem in problems:
            lines.append(f"CHECK FAILED: {problem}")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    summary = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(summary, "w", encoding="utf-8") as handle:
        json.dump({"result": result, "report": lines}, handle, indent=2)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    obs = load_repro(ROOT)
    if obs is None or not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        print(
            "perfbench: run from a checkout holding src/repro and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    adopt_processes()
    try:
        if args.setup_only:
            return setup_only(args, obs)
        return run(args, obs)
    finally:
        end_processes()


if __name__ == "__main__":
    sys.exit(main())
