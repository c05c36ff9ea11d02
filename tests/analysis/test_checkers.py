"""Per-rule fixtures: each checker fires, stays quiet, and suppresses.

Every test pins exact rule ids and line numbers so a checker that drifts
(fires on the wrong node, reports the wrong line) fails loudly rather than
approximately.
"""

from __future__ import annotations


def _hits(report, rule):
    return [(f.line, f.rule) for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# sql-safety
# ---------------------------------------------------------------------------

def test_sql_safety_flags_fstring_sql_outside_db_layer(analyze_snippet):
    report = analyze_snippet(
        "pkg/app.py",
        """\
            table = "t"
            QUERY = f"SELECT * FROM {table}"
        """,
        rules=["sql-safety"],
    )
    assert _hits(report, "sql-safety") == [(2, "sql-safety")]


def test_sql_safety_flags_percent_and_format_and_concat(analyze_snippet):
    report = analyze_snippet(
        "pkg/app.py",
        """\
            name = "t"
            a = "DELETE FROM %s" % name
            b = "INSERT INTO {} VALUES (1)".format(name)
            c = "DROP TABLE " + name
        """,
        rules=["sql-safety"],
    )
    assert _hits(report, "sql-safety") == [
        (2, "sql-safety"),
        (3, "sql-safety"),
        (4, "sql-safety"),
    ]


def test_sql_safety_sanctioned_db_modules_are_exempt(analyze_snippet):
    report = analyze_snippet(
        "repro/db/dialect.py",
        """\
            table = "t"
            QUERY = f"SELECT * FROM {table}"
        """,
        rules=["sql-safety"],
    )
    assert report.findings == []


def test_sql_safety_ignores_non_sql_strings(analyze_snippet):
    report = analyze_snippet(
        "pkg/app.py",
        """\
            who = "world"
            greeting = f"hello {who}, select a table from the menu"
        """,
        rules=["sql-safety"],
    )
    assert report.findings == []


def test_sql_safety_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/app.py",
        """\
            table = "t"
            QUERY = f"SELECT * FROM {table}"  # repro: ignore[sql-safety] test transcript
        """,
        rules=["sql-safety"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# hot-path-purity
# ---------------------------------------------------------------------------

def test_hot_path_flags_per_record_work_in_marked_module(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            import time

            def run(model, records):
                out = []
                for r in records:
                    out.append(model.predict_record(r))
                stamp = time.time()
                rows = [dict(r) for r in records]
                return out, stamp, rows
        """,
        rules=["hot-path-purity"],
    )
    assert _hits(report, "hot-path-purity") == [
        (7, "hot-path-purity"),   # per-record call in a loop
        (8, "hot-path-purity"),   # time.time()
        (9, "hot-path-purity"),   # dict per record over a batch
    ]


def test_hot_path_rule_silent_without_marker_or_hot_path(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            def run(model, records):
                return [model.predict_record(r) for r in records]
        """,
        rules=["hot-path-purity"],
    )
    assert report.findings == []


def test_hot_path_applies_to_declared_hot_modules_by_path(analyze_snippet):
    report = analyze_snippet(
        "repro/inference/engine.py",
        """\
            def run(model, records):
                labels = []
                for r in records:
                    labels.append(model.predict_record(r))
                return labels
        """,
        rules=["hot-path-purity"],
    )
    assert _hits(report, "hot-path-purity") == [(4, "hot-path-purity")]


def test_hot_path_chunk_fabric_modules_are_declared_hot(analyze_snippet):
    # The PR-9 chunk fabric is registered by path: per-record work in any
    # fabric module fires without an explicit ``# repro: hot-path`` marker.
    for relpath in (
        "repro/data/chunks.py",
        "repro/data/fanout.py",
        "repro/db/fastload.py",
        "repro/pipeline.py",
    ):
        report = analyze_snippet(
            relpath,
            """\
                def run(model, records):
                    labels = []
                    for r in records:
                        labels.append(model.predict_record(r))
                    return labels
            """,
            rules=["hot-path-purity"],
        )
        # The fixture accumulates snippets in one tree, so keep only the
        # findings from this iteration's file.
        hits = [
            (f.line, f.rule)
            for f in report.findings
            if str(f.path).endswith(relpath)
        ]
        assert hits == [(4, "hot-path-purity")], relpath


def test_hot_path_columnar_batch_type_is_declared_hot(analyze_snippet):
    # Dataset is the one batch type every fabric stage hands on, so its
    # module is hot by path like the rest of the fabric.
    report = analyze_snippet(
        "repro/data/dataset.py",
        """\
            def run(model, records):
                labels = []
                for r in records:
                    labels.append(model.predict_record(r))
                return labels
        """,
        rules=["hot-path-purity"],
    )
    assert _hits(report, "hot-path-purity") == [(4, "hot-path-purity")]


def test_hot_path_vectorised_code_is_clean(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            import time

            def run(model, records):
                started = time.perf_counter()
                labels = model.predict_batch(records)
                return labels, time.perf_counter() - started
        """,
        rules=["hot-path-purity"],
    )
    assert report.findings == []


def test_hot_path_suppression_with_justification(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            def run(model, records):
                out = []
                for r in records:
                    # repro: ignore[hot-path-purity] reference path for equivalence tests
                    out.append(model.predict_record(r))
                return out
        """,
        rules=["hot-path-purity"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# seed-discipline
# ---------------------------------------------------------------------------

def test_seed_discipline_flags_unseeded_and_global_randomness(analyze_snippet):
    report = analyze_snippet(
        "pkg/sim.py",
        """\
            import random
            import numpy as np

            def draw():
                a = np.random.default_rng()
                b = np.random.default_rng(None)
                c = np.random.rand(3)
                d = random.random()
                return a, b, c, d
        """,
        rules=["seed-discipline"],
    )
    assert _hits(report, "seed-discipline") == [
        (5, "seed-discipline"),
        (6, "seed-discipline"),
        (7, "seed-discipline"),
        (8, "seed-discipline"),
    ]


def test_seed_discipline_seeded_draws_are_clean(analyze_snippet):
    report = analyze_snippet(
        "pkg/sim.py",
        """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                also_fine = np.random.default_rng(np.random.SeedSequence(7))
                return rng.normal(size=4), also_fine.uniform()
        """,
        rules=["seed-discipline"],
    )
    assert report.findings == []


def test_seed_discipline_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/sim.py",
        """\
            import numpy as np
            rng = np.random.default_rng()  # repro: ignore[seed-discipline] throwaway demo
        """,
        rules=["seed-discipline"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

def test_lock_discipline_flags_unlocked_mutation_of_guarded_state(analyze_snippet):
    report = analyze_snippet(
        "pkg/box.py",
        """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset(self):
                    self._items = []
        """,
        rules=["lock-discipline"],
    )
    assert _hits(report, "lock-discipline") == [(13, "lock-discipline")]


def test_lock_discipline_constructor_and_locked_paths_are_clean(analyze_snippet):
    report = analyze_snippet(
        "pkg/box.py",
        """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset(self):
                    with self._lock:
                        self._items = []
        """,
        rules=["lock-discipline"],
    )
    assert report.findings == []


def test_lock_discipline_unguarded_attributes_are_free(analyze_snippet):
    report = analyze_snippet(
        "pkg/box.py",
        """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.label = "idle"

                def rename(self, label):
                    self.label = label
        """,
        rules=["lock-discipline"],
    )
    assert report.findings == []


def test_lock_discipline_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/box.py",
        """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset_unsafe(self):
                    self._items = []  # repro: ignore[lock-discipline] single-threaded teardown
        """,
        rules=["lock-discipline"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# registry-completeness
# ---------------------------------------------------------------------------

def test_registry_completeness_flags_unregistered_extractor(analyze_snippet):
    report = analyze_snippet(
        "pkg/extractors.py",
        """\
            from repro.extractors.base import BaseExtractor
            from repro.extractors.registry import register_extractor

            @register_extractor
            class GoodExtractor(BaseExtractor):
                name = "good"

            class ForgottenExtractor(BaseExtractor):
                name = "forgotten"
        """,
        rules=["registry-completeness"],
    )
    assert _hits(report, "registry-completeness") == [
        (8, "registry-completeness")
    ]


def test_registry_completeness_flags_field_missing_from_to_dict(analyze_snippet):
    report = analyze_snippet(
        "pkg/config.py",
        """\
            from dataclasses import dataclass

            @dataclass
            class Config:
                alpha: int
                beta: int

                def to_dict(self):
                    return {"alpha": self.alpha}
        """,
        rules=["registry-completeness"],
    )
    assert _hits(report, "registry-completeness") == [
        (6, "registry-completeness")
    ]


def test_registry_completeness_asdict_serialises_everything(analyze_snippet):
    report = analyze_snippet(
        "pkg/config.py",
        """\
            from dataclasses import asdict, dataclass

            @dataclass
            class Config:
                alpha: int
                beta: int

                def to_dict(self):
                    return asdict(self)
        """,
        rules=["registry-completeness"],
    )
    assert report.findings == []


def test_registry_completeness_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/config.py",
        """\
            from dataclasses import dataclass

            @dataclass
            class Config:
                alpha: int
                # repro: ignore[registry-completeness] runtime-only handle, never serialised
                beta: int

                def to_dict(self):
                    return {"alpha": self.alpha}
        """,
        rules=["registry-completeness"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# broad-except
# ---------------------------------------------------------------------------

def test_broad_except_flags_swallowing_handlers(analyze_snippet):
    report = analyze_snippet(
        "pkg/jobs.py",
        """\
            def run(task):
                try:
                    task()
                except Exception:
                    return None
        """,
        rules=["broad-except"],
    )
    assert _hits(report, "broad-except") == [(4, "broad-except")]
    assert report.warnings and not report.errors


def test_broad_except_narrow_handlers_and_reraises_are_clean(analyze_snippet):
    report = analyze_snippet(
        "pkg/jobs.py",
        """\
            def run(task, log):
                try:
                    task()
                except ValueError:
                    return None
                try:
                    task()
                except Exception:
                    log("failed")
                    raise
        """,
        rules=["broad-except"],
    )
    assert report.findings == []


def test_broad_except_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/jobs.py",
        """\
            def run(task, future):
                try:
                    task()
                # repro: ignore[broad-except] forwarded through the future
                except BaseException as exc:
                    future.set_exception(exc)
        """,
        rules=["broad-except"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1


# ---------------------------------------------------------------------------
# telemetry-clock
# ---------------------------------------------------------------------------

def test_telemetry_clock_flags_time_clocks_in_marked_hot_module(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            import time
            from time import monotonic

            def run(batch):
                started = time.perf_counter()
                deadline = monotonic() + 1.0
                stamp = time.time()
                ticks = time.monotonic_ns()
                return started, deadline, stamp, ticks
        """,
        rules=["telemetry-clock"],
    )
    assert _hits(report, "telemetry-clock") == [
        (6, "telemetry-clock"),   # time.perf_counter()
        (7, "telemetry-clock"),   # bare monotonic() from `from time import`
        (8, "telemetry-clock"),   # time.time()
        (9, "telemetry-clock"),   # time.monotonic_ns()
    ]


def test_telemetry_clock_sees_through_aliases(analyze_snippet):
    report = analyze_snippet(
        "repro/serving/service.py",
        """\
            import time as t
            from time import perf_counter as tick

            def wait_seconds(batch):
                return t.monotonic() - tick()
        """,
        rules=["telemetry-clock"],
    )
    hits = [
        (f.line, f.rule)
        for f in report.findings
        if str(f.path).endswith("repro/serving/service.py")
    ]
    assert hits == [(5, "telemetry-clock"), (5, "telemetry-clock")]


def test_telemetry_clock_silent_off_the_hot_path(analyze_snippet):
    report = analyze_snippet(
        "pkg/report.py",
        """\
            import time

            def run():
                return time.perf_counter()
        """,
        rules=["telemetry-clock"],
    )
    assert report.findings == []


def test_telemetry_clock_obs_helpers_and_non_clock_time_are_clean(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            import time
            from repro.obs.clock import monotonic, now

            def run(batch):
                started = now()
                deadline = monotonic() + 1.0
                time.sleep(0.0)
                return started, deadline
        """,
        rules=["telemetry-clock"],
    )
    assert report.findings == []


def test_telemetry_clock_obs_package_itself_is_exempt(analyze_snippet):
    # repro.obs.clock is where the sanctioned helpers wrap the time module;
    # the rule must not flag its own implementation.
    report = analyze_snippet(
        "repro/obs/clock.py",
        """\
            import time

            now = time.perf_counter

            def wall():
                return time.time()
        """,
        rules=["telemetry-clock"],
    )
    hits = [
        (f.line, f.rule)
        for f in report.findings
        if str(f.path).endswith("repro/obs/clock.py")
    ]
    assert hits == []


def test_telemetry_clock_suppression(analyze_snippet):
    report = analyze_snippet(
        "pkg/engine.py",
        """\
            # repro: hot-path
            import time

            def run(batch):
                # repro: ignore[telemetry-clock] comparing timebases in a test
                return time.perf_counter()
        """,
        rules=["telemetry-clock"],
    )
    assert report.findings == []
    assert report.n_suppressed == 1
