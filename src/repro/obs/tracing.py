"""Span-based tracing: one process-wide tree, fan-out workers included.

A :class:`Span` measures one named region on the monotonic clock
(:mod:`repro.obs.clock`) and remembers its parent, so a run's spans form a
tree: ``pipeline.run`` → per-chunk stage waits → fan-out worker produce
spans → shared-memory lifecycle events.  Two properties make this usable on
the chunk fabric's hot path:

* **Spans always time, recording is optional.**  ``trace(...)`` returns a
  span whose ``seconds`` is valid whether or not tracing is enabled — so
  subsystems derive their *reported* timings (pipeline stage attribution,
  extractor seconds, sweep task seconds) from spans unconditionally, and
  enabling tracing only adds the buffer append.  Disabled cost is two
  ``perf_counter`` calls per span, which is why the overhead benchmark's
  "disabled" mode sits at ~0%.
* **Buffers serialize across the fan-out boundary.**  A worker process
  records spans into its own (fork-reset) tracer, exports them as plain
  dicts, and ships them back through the existing result channel next to
  the chunk's shared-memory descriptor
  (:class:`~repro.data.chunks.SharedChunkMeta`); the parent *adopts* them
  — remapping ids and re-parenting the worker's roots under the fan-out
  span — so one trace covers every process of a run.

Events (``tracer.event(...)`` / ``span.event(...)``) are point-in-time
records — shared-memory segment create/attach/release, flush triggers —
attached to the enclosing span when there is one.
"""

from __future__ import annotations

import os
import threading
from itertools import count
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.clock import now, to_wall

_RecordDict = Dict[str, Any]


class Span:
    """One timed region; a context manager handed out by :meth:`Tracer.trace`.

    ``stacked`` spans participate in the calling thread's context stack
    (children created on the same thread nest under them); *detached* spans
    (``stacked=False``) are for regions whose lifetime brackets generator
    yields — they parent to whatever was current at creation but never
    occupy the stack themselves, so consumer-side spans cannot accidentally
    nest under a suspended producer.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start",
        "end",
        "events",
        "_tracer",
        "_recording",
        "_stacked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
        recording: bool,
        stacked: bool,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end: Optional[float] = None
        self.events: List[_RecordDict] = []
        self._tracer = tracer
        self._recording = recording
        self._stacked = stacked

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "Span":
        if self._recording and self._stacked:
            self._tracer._push(self)
        self.start = now()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Finish the span (idempotent); detached spans call this directly."""
        if self.end is not None:
            return
        self.end = now()
        if self._recording:
            if self._stacked:
                self._tracer._pop(self)
            self._tracer._record(self.to_dict())

    # -- data ---------------------------------------------------------------

    @property
    def seconds(self) -> float:
        """Elapsed seconds — live while open, final once closed."""
        return (self.end if self.end is not None else now()) - self.start

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (row counts, segment names)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """A point-in-time event inside this span (recorded spans only)."""
        if self._recording:
            self.events.append({"name": name, "at": now(), "attrs": attrs})

    def to_dict(self) -> _RecordDict:
        end = self.end if self.end is not None else now()
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": end,
            "seconds": end - self.start,
            "wall_start": to_wall(self.start),
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": self.attrs,
            "events": self.events,
        }


class Tracer:
    """The process-wide span collector.

    Thread-safe: spans nest per thread (a thread-local context stack) and
    finished records append to one shared buffer under a lock — per *span*,
    never per record, so the cost stays off the tuple path.  Forked children
    (the generation fan-out, the sweep pool) inherit the enabled flag but
    start with empty buffers and stacks (``os.register_at_fork``), so a
    worker's export contains exactly its own spans.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: List[_RecordDict] = []
        self._enabled = False
        self._ids = count(1)

    # -- switches -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop buffered records and this thread's context stack."""
        with self._lock:
            self._records = []
        self._local.stack = []

    def _after_fork(self) -> None:
        """Fresh buffers in a forked child; keep the enabled flag.

        Runs from ``os.register_at_fork(after_in_child=...)`` where the child
        has exactly one thread — and the parent's lock may have been held by
        a thread that no longer exists here, so replacing it (rather than
        acquiring it) is the point.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records = []  # repro: ignore[lock-discipline] single-threaded after fork; the old lock may be dead
        self._ids = count(1)

    # -- span creation ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order generator finalisation
            stack.remove(span)

    def _record(self, record: _RecordDict) -> None:
        with self._lock:
            self._records.append(record)

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def trace(
        self,
        name: str,
        parent_id: Optional[int] = None,
        stacked: bool = True,
        **attrs,
    ) -> Span:
        """A new span; cheap no-record timer when tracing is disabled."""
        recording = self._enabled
        if not recording:
            return Span(self, name, 0, None, attrs, False, stacked)
        if parent_id is None:
            current = self.current_span()
            parent_id = current.span_id if current is not None else None
        return Span(self, name, next(self._ids), parent_id, attrs, True, stacked)

    def event(self, name: str, **attrs) -> None:
        """A standalone event: current span when there is one, else top-level."""
        if not self._enabled:
            return
        current = self.current_span()
        if current is not None and current.end is None:
            current.event(name, **attrs)
            return
        self._record(
            {
                "type": "event",
                "id": next(self._ids),
                "parent": None,
                "name": name,
                "at": now(),
                "pid": os.getpid(),
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
        )

    # -- cross-process hand-off -------------------------------------------------

    def export(self, clear: bool = True) -> List[_RecordDict]:
        """Finished records as plain dicts (the fan-out return payload)."""
        with self._lock:
            records = list(self._records)
            if clear:
                self._records = []
        return records

    def adopt(
        self,
        records: Iterable[_RecordDict],
        parent_id: Optional[int] = None,
    ) -> List[_RecordDict]:
        """Merge records exported by another process into this tracer.

        Ids are remapped into this tracer's sequence (worker tracers all
        count from 1, so raw ids would collide) and records whose parent is
        not part of the payload — the worker's root spans — are re-parented
        under ``parent_id`` (default: the calling thread's current span).
        """
        if parent_id is None:
            current = self.current_span()
            parent_id = current.span_id if current is not None else None
        records = list(records)
        mapping: Dict[int, int] = {}
        for record in records:
            old = record.get("id")
            if isinstance(old, int):
                mapping[old] = next(self._ids)
        adopted: List[_RecordDict] = []
        with self._lock:
            for record in records:
                merged = dict(record)
                old = merged.get("id")
                if isinstance(old, int):
                    merged["id"] = mapping[old]
                merged["parent"] = mapping.get(merged.get("parent"), parent_id)
                self._records.append(merged)
                adopted.append(merged)
        return adopted


__all__ = ["Span", "Tracer"]
