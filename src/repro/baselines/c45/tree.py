"""Decision-tree structure and induction (C4.5 style).

The tree uses the standard top-down induction loop: pick the gain-ratio-best
test (:mod:`repro.baselines.c45.splitter`), partition the data, recurse, and
stop when a node is pure, too small, too deep or no test helps.  Nodes keep
the class distribution observed during induction because both pessimistic
pruning and C4.5rules' condition-dropping need those counts later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.c45.criteria import class_counts
from repro.baselines.c45.splitter import CandidateSplit, best_split
from repro.data.dataset import Dataset, Record
from repro.data.schema import AttributeValue, CategoricalAttribute
from repro.exceptions import BaselineError
from repro.inference.columns import ColumnCache


@dataclass
class Leaf:
    """A terminal node predicting its majority class."""

    prediction: str
    counts: Dict[str, int]

    @property
    def n_records(self) -> int:
        return sum(self.counts.values())

    @property
    def n_errors(self) -> int:
        """Training records at this leaf not of the predicted class."""
        return self.n_records - self.counts.get(self.prediction, 0)

    def predict(self, record: Record) -> str:
        return self.prediction

    def depth(self) -> int:
        return 0

    def n_leaves(self) -> int:
        return 1

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"-> {self.prediction} {dict(self.counts)}"


@dataclass
class DecisionNode:
    """An internal node testing one attribute.

    For continuous attributes the test is ``value <= threshold`` with two
    children keyed ``"<="`` and ``">"``; for categorical attributes there is
    one child per attribute value (keyed by the value).
    """

    attribute: str
    threshold: Optional[float]
    children: Dict[Union[str, AttributeValue], "TreeNode"]
    counts: Dict[str, int]
    majority: str

    @property
    def is_continuous(self) -> bool:
        return self.threshold is not None

    @property
    def n_records(self) -> int:
        return sum(self.counts.values())

    def child_for(self, record: Record) -> "TreeNode":
        value = record[self.attribute]
        if self.is_continuous:
            key = "<=" if float(value) <= float(self.threshold) else ">"  # type: ignore[arg-type]
            return self.children[key]
        if value in self.children:
            return self.children[value]
        if isinstance(value, float) and value.is_integer() and int(value) in self.children:
            return self.children[int(value)]
        # Unseen categorical value: fall back to the majority child.
        return max(self.children.values(), key=lambda c: _node_records(c))

    def predict(self, record: Record) -> str:
        return self.child_for(record).predict(record)

    def depth(self) -> int:
        return 1 + max(child.depth() for child in self.children.values())

    def n_leaves(self) -> int:
        return sum(child.n_leaves() for child in self.children.values())

    def describe(self, indent: int = 0) -> str:
        lines: List[str] = []
        pad = " " * indent
        for key, child in self.children.items():
            if self.is_continuous:
                test = f"{self.attribute} {key} {self.threshold:g}"
            else:
                test = f"{self.attribute} = {key}"
            lines.append(pad + test)
            lines.append(child.describe(indent + 2))
        return "\n".join(lines)


TreeNode = Union[Leaf, DecisionNode]


def _node_records(node: TreeNode) -> int:
    return node.n_records


@dataclass
class TreeConfig:
    """Induction hyper-parameters."""

    max_depth: int = 25
    min_split_size: int = 8
    min_leaf_size: int = 3
    min_gain: float = 1e-6
    max_thresholds: int = 64

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise BaselineError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_split_size < 2:
            raise BaselineError(f"min_split_size must be >= 2, got {self.min_split_size}")
        if self.min_leaf_size < 1:
            raise BaselineError(f"min_leaf_size must be >= 1, got {self.min_leaf_size}")


def _majority(counts: Mapping[str, int], class_order: Sequence[str]) -> str:
    """Majority class, breaking ties by class order for determinism."""
    best_count = max(counts.values()) if counts else 0
    for label in class_order:
        if counts.get(label, 0) == best_count:
            return label
    raise BaselineError("cannot determine a majority class from empty counts")


def build_tree(dataset: Dataset, config: Optional[TreeConfig] = None) -> TreeNode:
    """Induce a decision tree from ``dataset``."""
    if len(dataset) == 0:
        raise BaselineError("cannot build a decision tree from an empty dataset")
    config = config or TreeConfig()
    class_order = list(dataset.schema.classes)
    return _build(dataset, config, class_order, depth=0)


def _build(dataset: Dataset, config: TreeConfig, class_order: Sequence[str], depth: int) -> TreeNode:
    counts = class_counts(dataset.labels)
    majority = _majority(counts, class_order)

    pure = len(counts) == 1
    too_small = len(dataset) < config.min_split_size
    too_deep = depth >= config.max_depth
    if pure or too_small or too_deep:
        return Leaf(prediction=majority, counts=counts)

    split = best_split(
        dataset,
        min_gain=config.min_gain,
        min_leaf_size=config.min_leaf_size,
        max_thresholds=config.max_thresholds,
    )
    if split is None:
        return Leaf(prediction=majority, counts=counts)

    children: Dict[Union[str, AttributeValue], TreeNode] = {}
    if split.is_continuous:
        left = dataset.attribute_column(split.attribute) <= split.threshold
        left_indices, right_indices = np.flatnonzero(left), np.flatnonzero(~left)
        if not left_indices.size or not right_indices.size:
            return Leaf(prediction=majority, counts=counts)
        children["<="] = _build(dataset.subset(left_indices), config, class_order, depth + 1)
        children[">"] = _build(dataset.subset(right_indices), config, class_order, depth + 1)
    else:
        attribute = dataset.schema.attribute(split.attribute)
        assert isinstance(attribute, CategoricalAttribute)
        column = dataset.column(split.attribute)
        for value in attribute.values:
            indices = np.flatnonzero(column == value)
            if indices.size:
                children[value] = _build(dataset.subset(indices), config, class_order, depth + 1)
            else:
                children[value] = Leaf(prediction=majority, counts={majority: 0})
        if sum(1 for child in children.values() if child.n_records > 0) < 2:
            return Leaf(prediction=majority, counts=counts)

    return DecisionNode(
        attribute=split.attribute,
        threshold=split.threshold,
        children=children,
        counts=counts,
        majority=majority,
    )


def _apply_batch(
    node: TreeNode, columns: ColumnCache, indices: np.ndarray, out: np.ndarray
) -> None:
    if isinstance(node, Leaf):
        out[indices] = node.prediction
        return
    if node.is_continuous:
        values = columns.numeric(node.attribute)[indices]
        left = values <= float(node.threshold)  # type: ignore[arg-type]
        _apply_batch(node.children["<="], columns, indices[left], out)
        _apply_batch(node.children[">"], columns, indices[~left], out)
        return
    values = columns.raw(node.attribute)[indices]
    unmatched = np.ones(len(indices), dtype=bool)
    for value, child in node.children.items():
        # Elementwise == mirrors child_for: float 2.0 matches the key 2.
        selected = values == value
        if selected.any():
            _apply_batch(child, columns, indices[selected], out)
            unmatched &= ~selected
    if unmatched.any():
        # Unseen categorical values fall back to the majority child, exactly
        # like child_for on the per-record path.
        fallback = max(node.children.values(), key=_node_records)
        _apply_batch(fallback, columns, indices[unmatched], out)


def apply_tree_batch(node: TreeNode, records: Sequence[Record]) -> np.ndarray:
    """Vectorised tree application: labels for a whole batch of records.

    Instead of walking the tree once per record, the batch descends the tree
    once, partitioning an index array at every decision node — the classic
    columnar evaluation strategy.  Produces exactly the same labels as
    ``node.predict(record)`` per record (columns are built once per test
    attribute through the shared :class:`ColumnCache`).
    """
    out = np.empty(len(records), dtype=object)
    if len(records) == 0:
        return out
    _apply_batch(node, ColumnCache(records), np.arange(len(records)), out)
    return out


def tree_paths(
    node: TreeNode, prefix: Optional[List[Tuple[str, Optional[float], Union[str, AttributeValue]]]] = None
) -> List[Tuple[List[Tuple[str, Optional[float], Union[str, AttributeValue]]], Leaf]]:
    """All root-to-leaf paths.

    Each path is a list of ``(attribute, threshold, branch_key)`` steps, where
    ``threshold`` is ``None`` for categorical tests and ``branch_key`` is
    ``"<="``/``">"`` or the categorical value taken.  C4.5rules converts each
    path into an initial rule.
    """
    prefix = prefix or []
    if isinstance(node, Leaf):
        return [(prefix, node)]
    paths = []
    for key, child in node.children.items():
        step = (node.attribute, node.threshold, key)
        paths.extend(tree_paths(child, prefix + [step]))
    return paths
