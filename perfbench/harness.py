"""Shared machinery of the perfbench workloads.

Everything a workload needs besides the calls into the system under test:

* :class:`Recorder` — the benchmark's own spans around each public call into
  a layer.  They are :mod:`repro.obs` spans, so with tracing enabled the
  program's internal spans (``pipeline.run``, ``serve.batch``,
  ``fastload.write``, ...) nest under them; with tracing disabled they are
  plain stopwatches (two clock reads) and nothing is recorded.
* statistics helpers (:func:`quantile`, :func:`span_totals`,
  :func:`self_times`) used identically by every workload;
* :func:`peak_rss_mb` — the memory high-water mark of the benchmark process
  and its fan-out children;
* :func:`adopt_processes` / :func:`end_processes` — every process a run
  starts, directly or through the program (fan-out workers, the
  ``multiprocessing`` resource tracker), has ended when the run returns.

The module imports nothing from ``repro`` at import time; :func:`load_repro`
does, so ``run.py`` can fail cleanly when the program is missing.
"""

from __future__ import annotations

import ctypes
import os
import resource
import signal
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence


def load_repro(root: str):
    """Import ``repro.obs`` from the checkout's ``src`` tree; ``None`` if absent."""
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        return None
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro import obs

    return obs


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric as the result line carries it."""
    return {"value": float(value), "unit": unit}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB.

    ``ru_maxrss`` is in KiB on Linux.  ``RUSAGE_CHILDREN`` covers reaped
    children only — the fan-out pool is joined before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: ``prctl`` option that makes orphaned descendants re-parent to this process.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_processes() -> None:
    """Make this process the reaper of every process it starts, at any depth.

    The program's fan-out forks pool workers, and shared-memory segments
    start the ``multiprocessing`` resource tracker, a separate interpreter
    that otherwise outlives the run by a second or more.  Starting the
    tracker here, before anything forks, gives the whole run one tracker
    that :func:`end_processes` can stop; becoming a child subreaper (Linux)
    means anything orphaned below this process is still ours to end.  A
    SIGTERM leaves through ``sys.exit``, so the caller's ``finally`` that
    calls :func:`end_processes` runs on that way out too.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def _children() -> List[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int) -> bool:
    """Collect ``pid`` if it has exited; True when it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def _wait_children(seconds: float) -> List[int]:
    """Reap exited children for up to ``seconds``; the pids still alive."""
    deadline = time.monotonic() + seconds
    while True:
        alive = [pid for pid in _children() if not _reap(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def end_processes(grace_s: float = 5.0) -> None:
    """Stop the resource tracker, then end and reap every remaining child.

    Children get ``grace_s`` seconds to exit by themselves, then SIGTERM,
    then SIGKILL; each is waited for, so none outlives the run.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # closes its pipe, waits
    except Exception:  # tracker already gone
        pass
    alive = _wait_children(grace_s)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        alive = _wait_children(2.0)
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class Recorder:
    """Spans the benchmark opens around each public call into a layer.

    All spans carry the run id, so one run's trace file holds one tree per
    workload pass.  ``obs`` is the :mod:`repro.obs` module.
    """

    def __init__(self, obs, run_id: str) -> None:
        self.obs = obs
        self.run_id = run_id

    def span(self, name: str, **attrs):
        return self.obs.trace(name, run=self.run_id, **attrs)

    def export(self) -> List[dict]:
        """Recorded spans of this process, each stamped with the run id."""
        records = self.obs.export_spans()
        for record in records:
            record["run"] = self.run_id
        return records


def span_totals(records: Iterable[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(
        r["seconds"] for r in records if r.get("type") == "span" and r["name"] == name
    )


def _covered(intervals: List[List[float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(records: Sequence[dict]) -> Dict[str, float]:
    """Per span name: summed duration minus the time its children cover.

    A child's interval is clipped to its parent's, so spans of worker
    processes and threads that outlive their parent never produce negative
    self time.
    """
    spans = [r for r in records if r.get("type") == "span"]
    children: Dict[int, List[List[float]]] = {}
    by_id = {r["id"]: r for r in spans}
    for record in spans:
        parent = by_id.get(record.get("parent"))
        if parent is None:
            continue
        start = max(record["start"], parent["start"])
        end = min(record["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append([start, end])
    totals: Dict[str, float] = {}
    for record in spans:
        own = record["seconds"] - _covered(children.get(record["id"], []))
        totals[record["name"]] = totals.get(record["name"], 0.0) + max(own, 0.0)
    return totals


def format_table(rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
