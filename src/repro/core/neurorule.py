"""The public end-to-end classifier: train → prune → extract rules.

:class:`NeuroRuleClassifier` is the facade downstream users interact with.
Given a :class:`~repro.data.dataset.Dataset` it

1. binarises the tuples (with a supplied coding or a default one),
2. trains a three-layer network with the penalised cross-entropy objective,
3. prunes the network with algorithm NP while the training accuracy stays
   above a threshold, and
4. extracts explicit classification rules with algorithm RX.

After :meth:`fit`, predictions can be made either with the extracted rule set
(``predict``) — which is the point of the paper — or with the pruned network
itself (``predict_network``), and all intermediate artefacts (trained
network, pruned network, clustering, rule sets) are available as attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.extraction import ExtractionConfig, ExtractionResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.extractors.base import Extractor, ExtractorResult
from repro.core.pruning import NetworkPruner, PruningConfig, PruningResult
from repro.core.splitting import SplitterConfig
from repro.core.training import NetworkTrainer, TrainerConfig, TrainingResult
from repro.data.dataset import Dataset, Record
from repro.exceptions import TrainingError
from repro.inference.network import NetworkBatchPredictor
from repro.metrics.classification import accuracy
from repro.nn.network import ThreeLayerNetwork
from repro.preprocessing.encoder import TupleEncoder, default_encoder
from repro.rules.ruleset import RuleSet


@dataclass
class NeuroRuleConfig:
    """All knobs of the three phases in one place.

    ``prune_redundant_rules`` applies a final data-driven clean-up to the
    extracted attribute rules: rules whose removal does not lower training
    accuracy are dropped (most specific first).  It is off by default because
    it can discard legitimate low-coverage rules; it is useful on noisy data
    where the network fits a few spurious patterns.

    A splitter whose trainer has no seed takes ``trainer.seed``, so a seeded
    configuration replays end to end, subnetworks included.
    """

    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    splitter: Optional[SplitterConfig] = field(default_factory=SplitterConfig)
    prune_network: bool = True
    prune_redundant_rules: bool = False

    def __post_init__(self) -> None:
        if self.splitter is not None and self.splitter.trainer.seed is None:
            # Replaced, not mutated: the caller may share the splitter config.
            self.splitter = replace(
                self.splitter,
                trainer=replace(self.splitter.trainer, seed=self.trainer.seed),
            )

    @classmethod
    def fast(cls, n_hidden: int = 3, seed: Optional[int] = None) -> "NeuroRuleConfig":
        """A configuration tuned for small problems and test suites.

        Uses a smaller optimiser budget and fewer pruning rounds than the
        defaults; suitable for data sets of a few hundred tuples.
        """
        from repro.optim.bfgs import BFGSConfig

        trainer = TrainerConfig(
            n_hidden=n_hidden,
            seed=seed,
            bfgs=BFGSConfig(max_iterations=200, gradient_tolerance=1e-3),
        )
        pruning = PruningConfig(max_rounds=80, retrain_iterations=60)
        return cls(trainer=trainer, pruning=pruning)


class NeuroRuleClassifier:
    """Scikit-learn-flavoured facade over the full NeuroRule pipeline.

    Parameters
    ----------
    config:
        Pipeline configuration; :meth:`NeuroRuleConfig.fast` is a good
        starting point for small data sets.
    encoder:
        Optional :class:`~repro.preprocessing.encoder.TupleEncoder`.  When
        omitted, a default coding is built from the training data's schema
        (equal-width thermometer coding for numeric attributes, one-hot for
        categorical ones).
    extractor:
        Optional rule-extraction strategy (any
        :class:`~repro.extractors.base.Extractor`).  When omitted, the
        paper's decompositional path runs with ``config.extraction`` and
        ``config.splitter`` — exactly the pre-zoo behaviour.  Training and
        pruning are extractor-independent; only the rule-articulation phase
        is swapped.
    """

    def __init__(
        self,
        config: Optional[NeuroRuleConfig] = None,
        encoder: Optional[TupleEncoder] = None,
        extractor: Optional["Extractor"] = None,
    ) -> None:
        self.config = config or NeuroRuleConfig()
        self.encoder = encoder
        self.extractor = extractor

        # Fitted state (None until fit() runs).
        self.classes_: Optional[List[str]] = None
        self.training_result_: Optional[TrainingResult] = None
        self.pruning_result_: Optional[PruningResult] = None
        self.extractor_result_: Optional["ExtractorResult"] = None
        self.extraction_result_: Optional[ExtractionResult] = None
        self.network_: Optional[ThreeLayerNetwork] = None
        self.rules_: Optional[RuleSet] = None

    # -- fitting ----------------------------------------------------------------

    def fit(self, dataset: Dataset) -> "NeuroRuleClassifier":
        """Run the full pipeline on a training dataset."""
        if len(dataset) == 0:
            raise TrainingError("cannot fit NeuroRule on an empty dataset")
        if self.encoder is None:
            self.encoder = default_encoder(dataset.schema, dataset)
        encoded = self.encoder.encode_dataset(dataset)
        targets = dataset.label_targets()
        self.classes_ = list(dataset.schema.classes)

        trainer = NetworkTrainer(self.config.trainer)
        self.training_result_ = trainer.train(encoded, targets)
        network = self.training_result_.network

        if self.config.prune_network:
            pruner = NetworkPruner(self.config.pruning)
            self.pruning_result_ = pruner.prune(network, encoded, targets, trainer)
            network = self.pruning_result_.network
        else:
            self.pruning_result_ = None
        self.network_ = network

        # Lazy import: the extractors package builds *on* core, so core only
        # reaches into it at call time.
        from repro.extractors.neurorule import NeuroRuleExtractor

        extractor = self.extractor
        if extractor is None:
            extractor = NeuroRuleExtractor(
                self.config.extraction, splitter_config=self.config.splitter
            )
        self.extractor_result_ = extractor.extract(network, dataset, encoder=self.encoder)
        details = self.extractor_result_.details
        self.extraction_result_ = details if isinstance(details, ExtractionResult) else None
        self.rules_ = self.extractor_result_.ruleset
        if (
            self.config.prune_redundant_rules
            and self.rules_.rules
            and not self.rules_.is_binary
        ):
            from repro.rules.simplify import prune_redundant_attribute_rules

            self.rules_ = prune_redundant_attribute_rules(self.rules_, dataset)
        return self

    def _require_fitted(self) -> None:
        if self.rules_ is None or self.encoder is None or self.classes_ is None:
            raise TrainingError("this NeuroRuleClassifier instance is not fitted yet")

    # -- prediction ---------------------------------------------------------------

    def predict_batch(self, data) -> np.ndarray:
        """Predict class labels for a whole batch using the *extracted rules*.

        ``data`` may be a :class:`Dataset`, a sequence of records, or an
        already-encoded input matrix; records and datasets are routed through
        the fitted encoder when the rules constrain encoded inputs.  Returns
        an ``object``-dtype label array; the labels are guaranteed identical
        to calling :meth:`predict_record` tuple by tuple.
        """
        self._require_fitted()
        assert self.rules_ is not None
        return self.rules_.predict_batch(data, encoder=self.encoder)

    def predict(self, data) -> List[str]:
        """Predict class labels using the *extracted rules*.

        List-returning wrapper around :meth:`predict_batch`.
        """
        return self.predict_batch(data).tolist()

    def predict_record(self, record: Record) -> str:
        """Predict the class of a single record using the extracted rules."""
        self._require_fitted()
        assert self.rules_ is not None
        if self.rules_.is_binary and self.rules_.rules:
            assert self.encoder is not None
            return self.rules_.predict_record(self.encoder.encode_record(dict(record)))
        return self.rules_.predict_record(record)

    def network_predictor(self) -> "NetworkBatchPredictor":
        """The pruned network wrapped as a :class:`BatchPredictor`."""
        self._require_fitted()
        assert self.network_ is not None and self.encoder is not None and self.classes_ is not None
        return NetworkBatchPredictor(self.network_, self.classes_, encoder=self.encoder)

    def predict_network_batch(self, data) -> np.ndarray:
        """Batched class labels from the pruned network directly."""
        return self.network_predictor().predict_batch(data)

    def predict_network(self, data) -> List[str]:
        """Predict class labels using the pruned network directly."""
        return self.predict_network_batch(data).tolist()

    # -- evaluation -----------------------------------------------------------------

    def score(self, dataset: Dataset) -> float:
        """Rule-set accuracy (equation 6) on a dataset."""
        if len(dataset) == 0:
            raise TrainingError("cannot score an empty dataset")
        return accuracy(self.predict_batch(dataset), dataset.labels)

    def score_network(self, dataset: Dataset) -> float:
        """Pruned-network accuracy on a dataset."""
        return accuracy(self.predict_network_batch(dataset), dataset.labels)

    # -- reporting --------------------------------------------------------------------

    def describe_rules(self) -> str:
        """The extracted rules rendered in the paper's Figure 5 style."""
        self._require_fitted()
        assert self.rules_ is not None
        if not self.rules_.is_binary or not self.rules_.rules:
            from repro.rules.pretty import format_ruleset_paper_style

            return format_ruleset_paper_style(self.rules_)
        return self.rules_.describe()

    def summary(self) -> str:
        """Multi-line summary of the fitted pipeline."""
        self._require_fitted()
        assert self.training_result_ is not None and self.extractor_result_ is not None
        lines = [
            "NeuroRule pipeline summary",
            f"  extractor                : {self.extractor_result_.extractor}",
            f"  training accuracy        : {self.training_result_.accuracy:.3f}",
        ]
        if self.pruning_result_ is not None:
            lines.extend(
                [
                    f"  connections before/after : "
                    f"{self.pruning_result_.initial_connections} / "
                    f"{self.pruning_result_.final_connections}",
                    f"  pruned-network accuracy  : {self.pruning_result_.final_accuracy:.3f}",
                ]
            )
        lines.extend(
            [
                f"  extracted rules          : {self.extractor_result_.n_rules}",
                f"  rule fidelity (to net)   : {self.extractor_result_.fidelity:.3f}",
                f"  rule training accuracy   : {self.extractor_result_.training_accuracy:.3f}",
            ]
        )
        return "\n".join(lines)
