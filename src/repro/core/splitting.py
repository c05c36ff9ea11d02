"""Hidden-unit splitting (Section 3.2 of the paper).

After pruning, a hidden unit sometimes keeps too many incoming connections
for its behaviour to be enumerated (``2^k`` grows quickly).  The paper's
remedy is to treat that unit as a classification problem of its own:

* the unit's *discretised activation values* become the classes of a new,
  three-layer *subnetwork*;
* the subnetwork's inputs are exactly the inputs still connected to the unit;
* the subnetwork is trained, pruned and rule-extracted the same way as the
  original network, recursively if necessary.

The rules extracted from the subnetwork describe which input combinations
drive the hidden unit into each activation cluster; they are fed back into
step 4 of algorithm RX in place of the exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.clustering import HiddenUnitClustering
from repro.core.pruning import NetworkPruner, PruningConfig
from repro.core.tabulation import input_column_name
from repro.core.training import NetworkTrainer, TrainerConfig
from repro.exceptions import ExtractionError
from repro.nn.network import ThreeLayerNetwork
from repro.rules.covering import Conjunction


@dataclass
class SplitterConfig:
    """Configuration of the subnetwork used to describe one hidden unit.

    The subnetwork's width is ``trainer.n_hidden``.
    """

    fidelity_threshold: float = 0.9
    max_depth: int = 2
    trainer: TrainerConfig = field(default_factory=lambda: TrainerConfig(n_hidden=3))
    pruning: PruningConfig = field(default_factory=lambda: PruningConfig(accuracy_threshold=0.9))

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ExtractionError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.fidelity_threshold <= 1.0):
            raise ExtractionError(
                f"fidelity_threshold must be in (0, 1], got {self.fidelity_threshold}"
            )


class HiddenUnitSplitter:
    """Generates input→cluster rules for wide hidden units via subnetworks.

    Instances plug into :class:`repro.core.extraction.RuleExtractor` via its
    ``splitter`` argument; the extractor calls :meth:`input_rules` whenever a
    hidden unit's fan-in exceeds its enumeration limit.
    """

    def __init__(self, config: Optional[SplitterConfig] = None, _depth: int = 1) -> None:
        self.config = config or SplitterConfig()
        self._depth = _depth

    # -- the interface used by RuleExtractor -----------------------------------

    def input_rules(
        self,
        network: ThreeLayerNetwork,
        clustering_unit: HiddenUnitClustering,
        inputs: np.ndarray,
        needed_clusters: Sequence[int],
    ) -> Dict[int, List[Conjunction]]:
        """Rules (conjunctions over original input names) per needed cluster."""
        # Imported here to avoid a circular module dependency: extraction
        # accepts any splitter object, and this splitter reuses extraction.
        from repro.core.extraction import ExtractionConfig, RuleExtractor

        hidden_index = clustering_unit.hidden_index
        connected = network.connected_inputs(hidden_index)
        if not connected:
            raise ExtractionError(
                f"hidden unit {hidden_index} has no connected inputs; nothing to split"
            )
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        sub_inputs = inputs[:, connected]

        n_clusters = clustering_unit.n_clusters
        if n_clusters == 1:
            # A constant unit: every input combination lands in the only cluster.
            return {0: [dict()]} if 0 in set(needed_clusters) else {}

        # Build one-hot targets over the activation clusters, using the
        # cluster assignment of every training pattern.
        assignments = self._assignments_for(network, clustering_unit, inputs)
        targets = np.zeros((inputs.shape[0], n_clusters), dtype=float)
        targets[np.arange(inputs.shape[0]), assignments] = 1.0

        # Train and prune the subnetwork.
        trainer = NetworkTrainer(self.config.trainer)
        training = trainer.train(sub_inputs, targets)
        pruner = NetworkPruner(self.config.pruning)
        pruning = pruner.prune(training.network, sub_inputs, targets, trainer)
        subnetwork = pruning.network
        if pruning.final_accuracy < self.config.fidelity_threshold:
            raise ExtractionError(
                f"subnetwork for hidden unit {hidden_index} reached only "
                f"{pruning.final_accuracy:.3f} fidelity "
                f"(threshold {self.config.fidelity_threshold:.3f})"
            )

        # Extract rules from the subnetwork.  Cluster indices become class
        # labels; rules are requested for every needed cluster explicitly.
        cluster_labels = [str(c) for c in range(n_clusters)]
        nested_splitter = None
        if self._depth < self.config.max_depth:
            nested_splitter = HiddenUnitSplitter(self.config, _depth=self._depth + 1)
        extractor = RuleExtractor(ExtractionConfig(), splitter=nested_splitter)
        extraction = extractor.extract(
            subnetwork,
            sub_inputs,
            targets,
            class_labels=cluster_labels,
            rule_classes=[str(c) for c in needed_clusters],
        )

        # Remap subnetwork input indices back to the original network's inputs.
        out: Dict[int, List[Conjunction]] = {int(c): [] for c in needed_clusters}
        for rule in extraction.binary_rules.rules:
            cluster = int(rule.consequent)
            if cluster not in out:
                continue
            conjunction: Conjunction = {}
            for literal in rule.literals:
                original_index = connected[literal.input_index]
                conjunction[input_column_name(original_index)] = literal.value
            out[cluster].append(conjunction)
        return out

    # -- helpers -----------------------------------------------------------------

    def _assignments_for(
        self,
        network: ThreeLayerNetwork,
        clustering_unit: HiddenUnitClustering,
        inputs: np.ndarray,
    ) -> np.ndarray:
        """Cluster index of every training pattern for this hidden unit."""
        activations = network.hidden_activations(inputs)[:, clustering_unit.hidden_index]
        return np.asarray(
            [clustering_unit.nearest_center_index(a) for a in activations], dtype=int
        )
