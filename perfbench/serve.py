"""Workload ``serve``: open-loop single-record requests on the prediction service.

Independent users make an open loop: request arrival times are drawn up
front (Poisson, i.e. exponential gaps) for each rate of a fixed ladder, and
the generator sends each request when it is due whether or not earlier ones
have completed.  Requests go one record at a time through
``PredictionService.submit_many(model, [record])`` with the default
``ServiceConfig`` to the four reference rule sets f1–f4, split 70/10/10/10 so
that f1 is hot.

Each request is timed from its *due* time to the moment its batch future
completes, stamped by a done-callback on the public batch future — so a
stalled generator charges its delay to the requests it held back, and a
cold model's delay-flush is never charged to a hot request.  Between due
times the generator sleeps; it never spins.

A rate *holds* when the 99th percentile latency is within ``LATENCY_LIMIT_S``
and the generator's lag did not grow over the step.  Gated end-to-end
numbers: p50 latency at the reading rate (``LADDER[MIDDLE]``) and the
completed-request rate at the top rate, where the service is near its limit
and completions fall behind arrivals when it cannot keep up.  Reported
alongside: p99 at the reading rate and ``serve_max_rps``, the highest ladder
rate that holds — see NOTES.md for why those two are not gated.

Output check: every served label equals the reference rule set's
``predict_batch`` label for the same record.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from harness import Recorder, metric, quantile

LADDER = (5_000, 20_000, 40_000, 80_000)  # requests per second
#: The rate whose latency and per-layer numbers are reported; it gets the
#: most samples.
MIDDLE = 1
#: Share of the measuring window each step gets.
STEP_SHARES = (0.1, 0.4, 0.15, 0.35)
MODELS = ("f1", "f2", "f3", "f4")
SHARES = (0.7, 0.1, 0.1, 0.1)
POOL = 20_000  # distinct request records; requests draw from them
LATENCY_LIMIT_S = 0.050
#: A step's lag "grows" when its last tenth of requests was sent this much
#: later (relative to due time) than its first tenth.
LAG_GROWTH_S = 0.005
WARMUP_S = 0.5  # an unreported step at the lowest rate before the ladder
LEAD_S = 0.020  # gap between step start-up and the first due time
#: Latency charged to a failed request: it misses every limit.
FAILED_LATENCY_S = 3600.0


@dataclass
class Step:
    rate: int
    n: int = 0
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    failed: int = 0
    completed_per_s: float = 0.0
    submit_s: float = 0.0
    holds: bool = False
    layer: Dict[str, float] = field(default_factory=dict)
    wrong: int = 0


@dataclass
class Ladder:
    steps: List[Step] = field(default_factory=list)
    warmup: Optional[Step] = None  # counted and checked, never timed

    @property
    def all_steps(self) -> List[Step]:
        return [self.warmup] + self.steps


def max_rate(steps: List[Step]) -> int:
    """The highest ladder rate that holds, counting up from the bottom (0: none)."""
    best = 0
    for step in steps:
        if not step.holds:
            break
        best = step.rate
    return best


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, workdir: str, recorder: Recorder) -> None:
        self.seed = seed
        self.recorder = recorder

    def prepare(self) -> None:
        import numpy as np

        from repro.data.agrawal import AgrawalGenerator
        from repro.serving.reference import reference_ruleset

        pool = AgrawalGenerator(function=1, seed=self.seed).generate(POOL)
        self.records = pool.records
        self.expected = {
            name: reference_ruleset(i + 1).predict_batch(pool).tolist()
            for i, name in enumerate(MODELS)
        }
        self.rng = np.random.default_rng(self.seed)
        # The request pool and reference labels live for the whole run:
        # keep them out of the collector's scans so a full collection does
        # not stall the load generator on the benchmark's own data.
        gc.collect()
        gc.freeze()

    def setup(self) -> None:
        """Registry build and rule compilation for the four served models."""
        from repro.serving.models import KIND_RULES, ServableModel
        from repro.serving.registry import ModelRegistry
        from repro.serving.reference import reference_ruleset

        registry = ModelRegistry()
        for i, name in enumerate(MODELS):
            model = registry.register(
                ServableModel(
                    name=name,
                    kind=KIND_RULES,
                    predictor=reference_ruleset(i + 1),
                    source="reference",
                )
            )
            model.predict_batch(self.records[:64])  # compiles the rule masks
        self.registry = registry

    # -- measurement ----------------------------------------------------------

    def _arrivals(self, rate: int, seconds: float):
        """Poisson arrival offsets, model names and record indexes for one step."""
        import numpy as np

        expected = int(rate * seconds * 1.2) + 100
        offsets = np.cumsum(self.rng.exponential(1.0 / rate, size=expected))
        offsets = offsets[offsets < seconds]
        models = self.rng.choice(len(MODELS), size=len(offsets), p=SHARES)
        picks = self.rng.integers(0, POOL, size=len(offsets))
        return offsets.tolist(), models.tolist(), picks.tolist()

    def _step(self, rate: int, seconds: float, layer: bool) -> Step:
        from repro import obs
        from repro.serving.service import PredictionService

        offsets, models, picks = self._arrivals(rate, seconds)
        n = len(offsets)
        step = Step(rate=rate, n=n)
        futures = [None] * n
        slots = [0] * n
        lags = [0.0] * n
        stamps = {}  # batch future -> completion time
        registered = set()
        clock = time.perf_counter
        sleep = time.sleep
        records = self.records
        names = MODELS

        def stamp(future) -> None:
            stamps[future] = clock()

        if layer:
            obs.reset_metrics()
        gc.collect()
        service = PredictionService(self.registry)
        submit_s = 0.0
        with self.recorder.span("bench.serve.step", rate=rate, requests=n):
            start = clock() + LEAD_S
            try:
                for i in range(n):
                    at = start + offsets[i]
                    now = clock()
                    if at > now:
                        sleep(at - now)
                        now = clock()
                    lags[i] = now - at
                    try:
                        groups = service.submit_many(names[models[i]], [records[picks[i]]])
                    except Exception:  # a refused request counts as failed
                        continue
                    finally:
                        submit_s += clock() - now
                    future, slots[i], _ = groups[0]
                    if future not in registered:
                        registered.add(future)
                        future.add_done_callback(stamp)
                    futures[i] = future
            finally:
                service.close()  # flushes the tail and joins the dispatch pool

        last = 0.0
        for i in range(n):
            future = futures[i]
            if future is None or future not in stamps or future.exception() is not None:
                step.failed += 1
                step.latencies.append(FAILED_LATENCY_S)
                continue
            if future.result()[slots[i]] != self.expected[names[models[i]]][picks[i]]:
                step.wrong += 1
            done = stamps[future]
            step.latencies.append(done - (start + offsets[i]))
            last = max(last, done)
        step.lags = lags
        step.submit_s = submit_s
        ok = n - step.failed
        step.completed_per_s = ok / (last - start) if last > start else 0.0
        tenth = max(n // 10, 1)
        growing = quantile(lags[-tenth:], 0.5) - quantile(lags[:tenth], 0.5) > LAG_GROWTH_S
        step.holds = (
            step.failed == 0
            and quantile(step.latencies, 0.99) <= LATENCY_LIMIT_S
            and not growing
        )
        if layer:
            step.layer = self._layer_numbers(service, step)
        return step

    def _layer_numbers(self, service, step: Step) -> Dict[str, float]:
        from repro import obs

        stats = [service.stats(name) for name in MODELS]
        records = sum(s.records for s in stats)
        batches = sum(s.batches for s in stats)

        def flushes(reason: str) -> float:
            return sum(
                obs.counter("repro_serve_flush_total", model=name, reason=reason).value
                for name in MODELS
            )

        wait = obs.histogram("repro_serve_queue_wait_seconds", model=MODELS[0])
        return {
            "serving.submit_us": 1e6 * step.submit_s / max(step.n, 1),
            "serving.exec_us_per_record": (
                1e6 * sum(s.batch_seconds for s in stats) / max(records, 1)
            ),
            "serving.queue_wait_p50_ms": 1000.0 * wait.quantile(0.5),
            "serving.mean_batch_size": records / max(batches, 1),
            "serving.flush_full": flushes("full"),
            "serving.flush_delay": flushes("delay"),
            "loadgen.lag_p99_ms": 1000.0 * quantile(step.lags, 0.99),
        }

    def measure(self, seconds: float) -> Ladder:
        ladder = Ladder()
        with self.recorder.span("bench.serve.window"):
            # Thread start-up, first-call caches, allocator growth.
            ladder.warmup = self._step(LADDER[0], WARMUP_S, layer=False)
            for index, (rate, share) in enumerate(zip(LADDER, STEP_SHARES)):
                ladder.steps.append(self._step(rate, share * seconds, layer=index == MIDDLE))
        return ladder

    # -- reporting --------------------------------------------------------------

    @staticmethod
    def counts(ladder: Ladder):
        steps = ladder.all_steps
        return sum(s.n for s in steps), sum(s.failed for s in steps)

    def check(self, ladder: Ladder) -> List[str]:
        return [
            f"{s.rate} req/s: {s.wrong} served label(s) differ from the reference rules"
            for s in ladder.all_steps
            if s.wrong
        ]

    def end_to_end(self, ladder: Ladder):
        middle = ladder.steps[MIDDLE]
        best = max_rate(ladder.steps)
        p50 = 1000.0 * quantile(middle.latencies, 0.5)
        p99 = 1000.0 * quantile(middle.latencies, 0.99)
        metrics = {
            "latency_p50_ms": metric(p50, "ms"),
            "throughput_per_s": metric(ladder.steps[-1].completed_per_s, "1/s"),
        }
        report = {
            "serve_p50_ms": (p50, "ms"),
            "serve_p99_ms": (p99, "ms"),
            "serve_max_rps": (best, "1/s"),
        }
        notes = [
            f"{s.rate:>6} req/s: n={s.n} p50 {1000 * quantile(s.latencies, 0.5):.2f}ms "
            f"p99 {1000 * quantile(s.latencies, 0.99):.2f}ms lag p99 "
            f"{1000 * quantile(s.lags, 0.99):.2f}ms completed {s.completed_per_s:.0f}/s "
            + ("holds" if s.holds else "misses")
            + (" (reading rate)" if i == MIDDLE else "")
            for i, s in enumerate(ladder.steps)
        ]
        return metrics, report, notes

    def layers(self, ladder: Ladder, records: List[dict]) -> Dict[str, Dict[str, object]]:
        units = {
            "serving.submit_us": "us",
            "serving.exec_us_per_record": "us",
            "serving.queue_wait_p50_ms": "ms",
            "serving.mean_batch_size": "count",
            "serving.flush_full": "count",
            "serving.flush_delay": "count",
            "loadgen.lag_p99_ms": "ms",
        }
        numbers = ladder.steps[MIDDLE].layer
        return {name: metric(numbers[name], unit) for name, unit in units.items()}

    def close(self) -> None:
        pass
