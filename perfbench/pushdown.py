"""Workload ``pushdown``: in-database rule queries over a resident tuple store.

One client, closed loop.  Set-up loads 250k function-4 tuples with 5%
perturbation into a file-backed store.  Each pass then runs, for each of the
reference rule sets f1–f4, the four read paths of the database layer:

* ``SqlRulePredictor.classify_into`` — labels materialised in a table;
* ``db.queries.rule_quality`` — per-rule coverage/support in one scan;
* ``db.queries.confusion_matrix`` — one ``GROUP BY`` against stored labels;
* ``SqlRulePredictor.classify_stored`` — labels fetched into Python.

The four queries of one rule set make one *evaluation* — what a user who
scores a rule set against the stored table waits for.  Every query scans
the whole tuple relation once, so a pass scans 16 × 250k stored rows
(~3–4 s).  Passes repeat until the measuring window is spent, so a 10 s
window runs three or four.  Gated: the median evaluation time, and stored rows scanned
per second over the whole window.

Output check: for every rule set, the ``classify_into`` table, the
``classify_stored`` labels and the confusion counts must agree with the
compiled NumPy rules evaluated on the same stored rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

from harness import Recorder, metric, quantile, span_totals

N_TUPLES = 250_000
FUNCTION = 4
PERTURBATION = 0.05
CHUNK_SIZE = 200_000
PROCESSES = 2
RULESETS = (1, 2, 3, 4)
QUERIES = ("classify_into", "rule_quality", "confusion", "classify_stored")


def label_table(function: int) -> str:
    return f"labels_f{function}"


@dataclass
class Window:
    latencies: List[float] = field(default_factory=list)
    #: Milliseconds per rule-set evaluation (its four queries).
    evaluations: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    passes: int = 0
    pass_seconds: List[float] = field(default_factory=list)
    rows_fetched: int = 0
    seconds: float = 0.0
    #: The last pass's outputs per rule set, for the output check.
    stored: Dict[int, object] = field(default_factory=dict)
    confusion: Dict[int, object] = field(default_factory=dict)


class PushdownWorkload:
    name = "pushdown"

    def __init__(self, seed: int, workdir: str, recorder: Recorder) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.store = None
        self._count = 0

    def prepare(self) -> None:
        from repro.serving.reference import reference_ruleset

        self.rulesets = {f: reference_ruleset(f) for f in RULESETS}

    def setup(self) -> None:
        """Load a fresh resident store (replacing the previous set-up's)."""
        from repro.data.agrawal import AgrawalGenerator
        from repro.db.predictor import SqlRulePredictor
        from repro.db.store import TupleStore

        self.close()
        self._count += 1
        self.path = os.path.join(self.workdir, f"pushdown-{self._count}.db")
        generator = AgrawalGenerator(
            function=FUNCTION, perturbation=PERTURBATION, seed=self.seed
        )
        store = TupleStore(generator.schema, path=self.path)
        store.create()
        store.load(generator.iter_chunks(N_TUPLES, chunk_size=CHUNK_SIZE, processes=PROCESSES))
        # Make the loaded file durable now: otherwise the first commit in the
        # window (classify_into) pays for flushing the whole store to disk.
        with open(self.path, "rb") as handle:
            os.fsync(handle.fileno())
        self.store = store
        self.predictors = {
            f: SqlRulePredictor(rules, store=store) for f, rules in self.rulesets.items()
        }

    def _query(self, window: Window, function: int, query: str) -> None:
        from repro.db import queries

        predictor = self.predictors[function]
        rules = self.rulesets[function]
        window.attempted += 1
        with self.recorder.span(f"bench.pushdown.{query}", function=function) as span:
            try:
                if query == "classify_into":
                    predictor.classify_into(label_table(function), drop=True)
                    fetched = 1  # the COUNT(*) row
                elif query == "rule_quality":
                    queries.rule_quality(self.store, rules)
                    fetched = 1
                elif query == "confusion":
                    matrix = queries.confusion_matrix(self.store, rules)
                    window.confusion[function] = matrix
                    fetched = int((matrix.matrix > 0).sum())
                else:
                    labels = predictor.classify_stored()
                    window.stored[function] = labels
                    fetched = len(labels)
            except Exception as exc:  # counted as a failed query
                window.failed += 1
                window.errors.append(f"f{function} {query}: {type(exc).__name__}: {exc}")
                fetched = 0
        window.latencies.append(span.seconds * 1000.0)
        window.rows_fetched += fetched

    def measure(self, seconds: float) -> Window:
        window = Window()
        with self.recorder.span("bench.pushdown.window") as span:
            while True:
                with self.recorder.span("bench.pushdown.pass") as one:
                    for function in RULESETS:
                        with self.recorder.span("bench.pushdown.evaluate") as evaluation:
                            for query in QUERIES:
                                self._query(window, function, query)
                        window.evaluations.append(evaluation.seconds * 1000.0)
                window.passes += 1
                window.pass_seconds.append(one.seconds)
                if span.seconds >= seconds:
                    break
        window.seconds = span.seconds
        return window

    @staticmethod
    def counts(window: Window):
        return window.attempted, window.failed

    def check(self, window: Window) -> List[str]:
        import numpy as np

        problems = list(window.errors)
        chunks = list(self.store.iter_chunks(chunk_size=CHUNK_SIZE))
        truth = np.concatenate([chunk.label_array() for chunk in chunks])
        for function, rules in self.rulesets.items():
            expected = np.concatenate([rules.predict_batch(chunk) for chunk in chunks])
            into = [
                row[0]
                for row in self.store.connection.execute(
                    f"SELECT * FROM {label_table(function)} ORDER BY rowid"
                )
            ]
            if into != expected.tolist():
                problems.append(f"f{function}: classify_into labels differ from NumPy rules")
            stored = window.stored.get(function)
            if stored is None or stored.tolist() != expected.tolist():
                problems.append(f"f{function}: classify_stored labels differ from NumPy rules")
            matrix = window.confusion.get(function)
            if matrix is None:
                problems.append(f"f{function}: no confusion matrix")
                continue
            classes = list(matrix.classes)
            for i, actual in enumerate(classes):
                for j, predicted in enumerate(classes):
                    want = int(np.sum((truth == actual) & (expected == predicted)))
                    if int(matrix.matrix[i, j]) != want:
                        problems.append(
                            f"f{function}: confusion[{actual}][{predicted}] differs "
                            "from NumPy rules"
                        )
        return problems

    def end_to_end(self, window: Window):
        scanned = N_TUPLES * window.attempted
        rate = scanned / window.seconds
        # Single queries are bimodal (0.4-0.6 s label/quality scans, 1-2 s
        # confusion and fetch scans), so their median flips between the two
        # groups; a rule-set evaluation holds one query of each kind.
        metrics = {
            "latency_p50_ms": metric(quantile(window.evaluations, 0.5), "ms"),
            "throughput_per_s": metric(rate, "1/s"),
        }
        report = {"pushdown_rows_per_s": (rate, "1/s")}
        notes = [
            f"{window.passes} pass(es), {window.attempted} queries over {N_TUPLES} "
            f"stored rows, {window.seconds:.2f}s; median single query "
            f"{quantile(window.latencies, 0.5):.1f} ms, slowest {max(window.latencies):.1f} ms",
            "pass seconds: " + ", ".join(f"{s:.3f}" for s in window.pass_seconds),
            "evaluation ms: " + ", ".join(f"{ms:.0f}" for ms in window.evaluations),
        ]
        return metrics, report, notes

    def layers(self, window: Window, records: List[dict]) -> Dict[str, Dict[str, object]]:
        per_pass = max(window.passes, 1)
        layer = {
            f"db.{name}_s": metric(
                span_totals(records, f"bench.pushdown.{query}") / per_pass, "s"
            )
            for name, query in (
                ("classify_into", "classify_into"),
                ("rule_quality", "rule_quality"),
                ("confusion", "confusion"),
                ("classify_stored", "classify_stored"),
            )
        }
        layer["db.rows_fetched"] = metric(window.rows_fetched / per_pass, "count")
        return layer

    def close(self) -> None:
        if self.store is not None:
            for predictor in self.predictors.values():
                predictor.close()
            self.store.close()
            self.store = None
            os.remove(self.path)
