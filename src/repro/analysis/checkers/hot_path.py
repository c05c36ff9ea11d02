"""``hot-path-purity``: benchmarked modules must stay vectorised.

Six subsystems carry published speedups (BENCH_*.json) that depend on
per-*batch* — never per-record — Python work.  The modules on that hot path
are declared below (and any module can opt in with a ``# repro: hot-path``
marker comment); inside them this rule flags the three regressions that have
historically eaten vectorisation wins:

* **per-record prediction loops** — calling ``predict_record`` /
  ``generate_record`` / per-record helpers from inside a loop instead of the
  batch entry point;
* **dict-per-record allocation** — building a fresh dict for every element
  of a batch-shaped iterable (``records``, ``rows``, ``batch``, …);
* **wall-clock timing** — ``time.time()`` anywhere in a hot module
  (monotonic/perf_counter are the sanctioned clocks; ``time.time`` in an
  inner loop is both slow and jump-prone).

Reference implementations kept for equivalence testing (the scalar Agrawal
path, ``predict_record`` itself) suppress the rule with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set, Tuple, Union

from repro.analysis.base import BaseChecker, dotted_name, register_checker
from repro.analysis.context import AnalysisContext, SourceModule
from repro.analysis.findings import Finding

#: Modules on the benchmarked hot path (suffix-matched against relpaths).
DEFAULT_HOT_SUFFIXES: Tuple[str, ...] = (
    "repro/serving/service.py",
    "repro/db/predictor.py",
    "repro/data/agrawal.py",
    # The chunk fabric (PR 9): generation fan-out -> chunk serving ->
    # raw-page bulk load, benchmarked end to end in BENCH_pipeline.json.
    "repro/data/chunks.py",
    "repro/data/fanout.py",
    # The one columnar batch type every fabric stage hands on.
    "repro/data/columnar.py",
    "repro/db/fastload.py",
    "repro/pipeline.py",
)

#: Whole packages on the hot path.
DEFAULT_HOT_PACKAGES: Tuple[str, ...] = ("repro/inference/",)

#: Names whose presence in a loop body marks a per-record dispatch.
PER_RECORD_CALLS: Set[str] = {"predict_record", "generate_record", "_sample_record"}

#: Variable names that conventionally hold a whole batch.
BATCH_NAMES: Set[str] = {"records", "rows", "batch", "tuples", "inputs"}

_Loop = Union[ast.For, ast.AsyncFor, ast.While]
_Comprehension = Union[ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp]


def is_hot_module(module: SourceModule) -> bool:
    if module.is_declared_hot:
        return True
    relpath = module.relpath
    if any(relpath.endswith(suffix) for suffix in DEFAULT_HOT_SUFFIXES):
        return True
    return any(package in relpath for package in DEFAULT_HOT_PACKAGES)


def _is_batch_expression(node: ast.AST) -> bool:
    """``records`` / ``self.records`` / ``data.records`` and friends."""
    if isinstance(node, ast.Name):
        return node.id in BATCH_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in BATCH_NAMES
    return False


def _allocates_dict(node: ast.AST) -> bool:
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.DictComp):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    ):
        return True
    return False


def _iter_loops(tree: ast.Module) -> Iterator[_Loop]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


@register_checker
class HotPathPurityChecker(BaseChecker):
    """No per-record Python work inside the benchmarked hot modules."""

    name = "hot-path-purity"
    description = (
        "per-record loops, dict-per-record allocation, or time.time() inside "
        "a module on the benchmarked hot path"
    )

    def check(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterable[Finding]:
        if not is_hot_module(module):
            return

        # time.time() anywhere in a hot module.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and dotted_name(node.func) == "time.time":
                yield self.finding(
                    module,
                    node,
                    "wall-clock time.time() in a hot module; use "
                    "time.perf_counter()/time.monotonic() and hoist timing "
                    "out of inner loops",
                )

        for loop in _iter_loops(module.tree):
            # Per-record prediction/generation dispatched from a loop.
            for inner in ast.walk(loop):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in PER_RECORD_CALLS
                ):
                    yield self.finding(
                        module,
                        inner,
                        f"per-record call {inner.func.attr}() inside a loop on "
                        "the hot path; route the whole batch through the "
                        "vectorised predict_batch/generate path",
                    )

            # Dict allocated for every element of a batch-shaped iterable.
            if isinstance(loop, (ast.For, ast.AsyncFor)) and _is_batch_expression(
                loop.iter
            ):
                for inner in ast.walk(loop):
                    if _allocates_dict(inner):
                        yield self.finding(
                            module,
                            inner,
                            "dict allocated per record while iterating a "
                            "batch; keep hot-path data columnar (arrays keyed "
                            "once, not a dict per row)",
                        )
                        break

        # The same dict-per-record shape written as a comprehension.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                if any(
                    _is_batch_expression(gen.iter) for gen in node.generators
                ) and _allocates_dict(node.elt):
                    yield self.finding(
                        module,
                        node,
                        "dict allocated per record in a comprehension over a "
                        "batch; keep hot-path data columnar",
                    )
            elif isinstance(node, ast.DictComp):
                if any(
                    _is_batch_expression(gen.iter) for gen in node.generators
                ) and (_allocates_dict(node.key) or _allocates_dict(node.value)):
                    yield self.finding(
                        module,
                        node,
                        "dict allocated per record in a comprehension over a "
                        "batch; keep hot-path data columnar",
                    )
