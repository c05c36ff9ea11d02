"""Workload ``ingest``: bulk generate → classify → store of clean function-1 tuples.

A batch job.  Each job is one :func:`repro.pipeline.run_pipeline` call that
pushes 1M perturbation-free function-1 tuples through the chunk fabric —
generation fanned out over 2 processes, classification by the reference rule
set on the serving layer, and a raw-page write into a fresh file-backed
store.  Jobs repeat until the measuring window is spent; the reported job
time is the median job's, and throughput is the tuples of every completed
job over the whole window (the two differ when job times vary).

Output check: the last job's stored columns and labels must equal the chunk
stream the same generator delivers directly (the check of
``benchmarks/test_bench_pipeline.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

from harness import Recorder, metric, quantile, span_totals

N_TUPLES = 1_000_000
FUNCTION = 1
CHUNK_SIZE = 200_000
PROCESSES = 2


@dataclass
class Job:
    seconds: float
    result: object = None
    error: str = ""
    db_bytes: int = 0
    path: str = ""


@dataclass
class Window:
    jobs: List[Job] = field(default_factory=list)
    last_db: str = ""
    seconds: float = 0.0


class IngestWorkload:
    name = "ingest"

    def __init__(self, seed: int, workdir: str, recorder: Recorder) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self._count = 0

    def prepare(self) -> None:
        pass

    def _path(self) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"ingest-{self._count}.db")

    def _remove(self, path: str) -> None:
        if os.path.exists(path):
            os.remove(path)

    def setup(self) -> None:
        """One full-size warm-up job into a scratch store, then deleted.

        The first full-size job of a process pays for growing the allocator's
        arenas to the job's ~0.6 GB working set and for first-touch page
        faults; later jobs reuse them.  That one-off cost is set-up, not
        steady-state ingest.
        """
        from repro.pipeline import run_pipeline

        path = self._path()
        try:
            run_pipeline(
                N_TUPLES,
                function=FUNCTION,
                seed=self.seed,
                chunk_size=CHUNK_SIZE,
                processes=PROCESSES,
                db_path=path,
            )
        finally:
            self._remove(path)

    def _job(self, index: int) -> Job:
        from repro.pipeline import run_pipeline

        path = self._path()
        with self.recorder.span("bench.ingest.job", job=index) as span:
            try:
                result = run_pipeline(
                    N_TUPLES,
                    function=FUNCTION,
                    perturbation=0.0,
                    seed=self.seed,
                    chunk_size=CHUNK_SIZE,
                    processes=PROCESSES,
                    db_path=path,
                )
            except Exception as exc:  # counted as a failed job
                self._remove(path)
                return Job(seconds=span.seconds, error=f"{type(exc).__name__}: {exc}")
        return Job(
            seconds=span.seconds, result=result, db_bytes=os.path.getsize(path), path=path
        )

    def measure(self, seconds: float) -> Window:
        window = Window()
        with self.recorder.span("bench.ingest.window") as span:
            while True:
                job = self._job(len(window.jobs))
                window.jobs.append(job)
                if not job.error:
                    # Keep only the newest store on disk; it is the one checked.
                    self._remove(window.last_db)
                    window.last_db = job.path
                if span.seconds >= seconds:
                    break
        window.seconds = span.seconds
        return window

    @staticmethod
    def counts(window: Window):
        return len(window.jobs), sum(1 for job in window.jobs if job.error)

    def check(self, window: Window) -> List[str]:
        import numpy as np

        from repro.data.agrawal import AgrawalGenerator
        from repro.db.store import TupleStore

        if not window.last_db:
            return ["no ingest job completed"]
        generator = AgrawalGenerator(function=FUNCTION, perturbation=0.0, seed=self.seed)
        expected = generator.iter_chunks(N_TUPLES, chunk_size=CHUNK_SIZE, processes=PROCESSES)
        problems: List[str] = []
        with TupleStore(generator.schema, path=window.last_db) as store:
            if store.count() != N_TUPLES:
                return [f"stored {store.count()} of {N_TUPLES} tuples"]
            stored = store.iter_chunks(chunk_size=CHUNK_SIZE)
            for index, (got, want) in enumerate(zip(stored, expected)):
                for name in generator.schema.attribute_names:
                    if not np.array_equal(got.column(name), want.column(name)):
                        problems.append(f"chunk {index}: stored column {name!r} differs")
                if got.label_array().tolist() != want.label_array().tolist():
                    problems.append(f"chunk {index}: stored labels differ from generated")
        return problems

    def end_to_end(self, window: Window):
        latencies = [job.seconds * 1000.0 for job in window.jobs]
        typical = quantile(latencies, 0.5)
        done = sum(1 for job in window.jobs if not job.error)
        rate = N_TUPLES * done / window.seconds
        metrics = {
            "latency_p50_ms": metric(typical, "ms"),
            "throughput_per_s": metric(rate, "1/s"),
        }
        report = {"ingest_tuples_per_s": (rate, "1/s")}
        notes = [
            f"job {i}: {job.seconds:.3f}s"
            + (f" FAILED {job.error}" if job.error else "")
            for i, job in enumerate(window.jobs)
        ]
        return metrics, report, notes

    def layers(self, window: Window, records: List[dict]) -> Dict[str, Dict[str, object]]:
        done = [job for job in window.jobs if not job.error]
        n = max(len(done), 1)

        def per_job(total: float) -> Dict[str, object]:
            return metric(total / n, "s")

        return {
            "data.generate_wait_s": per_job(sum(j.result.generate_seconds for j in done)),
            "serving.classify_wait_s": per_job(sum(j.result.classify_seconds for j in done)),
            "db.store_s": per_job(sum(j.result.store_seconds for j in done)),
            "data.fanout.produce_s": per_job(span_totals(records, "fanout.produce")),
            "db.fastload.assemble_s": per_job(span_totals(records, "fastload.assemble")),
            "db.fastload.write_s": per_job(span_totals(records, "fastload.write")),
            "db.bytes_per_tuple": metric(done[-1].db_bytes / N_TUPLES if done else 0.0, "B"),
        }

    def close(self) -> None:
        pass
