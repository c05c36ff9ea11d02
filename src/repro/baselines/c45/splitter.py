"""Search for the best attribute test at a tree node.

C4.5 considers two kinds of tests:

* for a categorical attribute, a multi-way split with one branch per value;
* for a continuous attribute, a binary split ``value <= threshold`` where the
  candidate thresholds are midpoints between consecutive distinct observed
  values.

Tests are scored by gain ratio, with Quinlan's guard that only tests whose
information gain is at least the average gain of all candidate tests compete
on gain ratio (this prevents the ratio from favouring near-trivial splits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.c45.criteria import gain_ratio, information_gain
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute


@dataclass(frozen=True)
class CandidateSplit:
    """A scored candidate test on one attribute."""

    attribute: str
    threshold: Optional[float]          # None for categorical (multi-way) splits
    gain: float
    ratio: float

    @property
    def is_continuous(self) -> bool:
        return self.threshold is not None


def _partition_labels_continuous(
    values: np.ndarray, labels: np.ndarray, threshold: float
) -> Tuple[List[str], List[str]]:
    left = values <= threshold
    return labels[left].tolist(), labels[~left].tolist()


def candidate_thresholds(values: np.ndarray, max_candidates: int = 64) -> List[float]:
    """Midpoints between consecutive distinct values, subsampled when huge.

    C4.5 evaluates every midpoint; for large numeric columns this reproduction
    caps the number of candidates (evenly spaced over the sorted distinct
    values) to keep the tree induction fast without changing its behaviour
    noticeably.
    """
    distinct = np.unique(values)
    if distinct.size < 2:
        return []
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    if midpoints.size > max_candidates:
        indices = np.linspace(0, midpoints.size - 1, max_candidates).astype(int)
        midpoints = midpoints[indices]
    return [float(t) for t in midpoints]


def evaluate_splits(
    dataset: Dataset,
    attributes: Optional[Sequence[str]] = None,
    min_leaf_size: int = 1,
    max_thresholds: int = 64,
) -> List[CandidateSplit]:
    """Score every admissible test on the given dataset."""
    labels = dataset.labels
    label_array = dataset.label_array()
    names = attributes if attributes is not None else dataset.schema.attribute_names
    candidates: List[CandidateSplit] = []
    for name in names:
        attribute = dataset.schema.attribute(name)
        if isinstance(attribute, ContinuousAttribute):
            values = dataset.attribute_column(name)
            for threshold in candidate_thresholds(values, max_thresholds):
                left, right = _partition_labels_continuous(values, label_array, threshold)
                if len(left) < min_leaf_size or len(right) < min_leaf_size:
                    continue
                partitions = [left, right]
                candidates.append(
                    CandidateSplit(
                        attribute=name,
                        threshold=threshold,
                        gain=information_gain(labels, partitions),
                        ratio=gain_ratio(labels, partitions),
                    )
                )
        elif isinstance(attribute, CategoricalAttribute):
            column = dataset.column(name)
            partitions = [
                label_array[column == value].tolist() for value in attribute.values
            ]
            non_empty = [p for p in partitions if p]
            if len(non_empty) < 2:
                continue
            if min(len(p) for p in non_empty) < min_leaf_size:
                continue
            candidates.append(
                CandidateSplit(
                    attribute=name,
                    threshold=None,
                    gain=information_gain(labels, partitions),
                    ratio=gain_ratio(labels, partitions),
                )
            )
    return candidates


def best_split(
    dataset: Dataset,
    attributes: Optional[Sequence[str]] = None,
    min_gain: float = 1e-6,
    min_leaf_size: int = 1,
    max_thresholds: int = 64,
) -> Optional[CandidateSplit]:
    """The gain-ratio-best admissible test, or ``None`` when nothing helps.

    Implements Quinlan's average-gain guard: among tests with positive gain,
    only those whose gain reaches the average gain compete on gain ratio.
    """
    candidates = [
        c
        for c in evaluate_splits(dataset, attributes, min_leaf_size, max_thresholds)
        if c.gain > min_gain
    ]
    if not candidates:
        return None
    average_gain = float(np.mean([c.gain for c in candidates]))
    eligible = [c for c in candidates if c.gain >= average_gain - 1e-12]
    return max(eligible, key=lambda c: (c.ratio, c.gain))
