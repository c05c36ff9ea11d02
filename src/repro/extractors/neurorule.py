"""The paper's decompositional extractor (algorithm RX) behind the protocol.

This is the original NeuroRule path — cluster hidden activations, tabulate
hidden→output and input→hidden rules, substitute — wrapped as one registered
:class:`~repro.extractors.base.Extractor` among peers.  The full RX
:class:`~repro.core.extraction.ExtractionResult` (clustering, tabulation,
per-unit rules) rides along as ``details`` so nothing the pipeline exposed
before the refactor is lost.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.extraction import ExtractionConfig, RuleExtractor
from repro.core.splitting import HiddenUnitSplitter, SplitterConfig
from repro.data.dataset import Dataset
from repro.extractors.base import BaseExtractor
from repro.extractors.registry import register_extractor
from repro.nn.network import ThreeLayerNetwork
from repro.preprocessing.encoder import TupleEncoder
from repro.rules.ruleset import RuleSet


#: Default of ``splitter_config`` (``None`` already means "no splitting").
_DEFAULT_SPLITTER = object()


@register_extractor
class NeuroRuleExtractor(BaseExtractor):
    """Decompositional extraction: open the pruned network up (RX).

    Parameters
    ----------
    config:
        The RX parameters (clustering tolerance schedule, enumeration limit,
        substitution bound, ...).
    splitter_config:
        Configuration of the hidden-unit splitter used for units whose fan-in
        exceeds the enumeration limit (a fresh ``SplitterConfig()`` when
        omitted); ``None`` disables splitting.
    """

    name = "neurorule"

    def __init__(
        self,
        config: Optional[ExtractionConfig] = None,
        splitter_config: Optional[SplitterConfig] = _DEFAULT_SPLITTER,  # type: ignore[assignment]
    ) -> None:
        self.config = config or ExtractionConfig()
        self.splitter_config = (
            SplitterConfig() if splitter_config is _DEFAULT_SPLITTER else splitter_config
        )

    def params(self) -> Dict:
        return {
            "extraction": asdict(self.config),
            "splitter": asdict(self.splitter_config)
            if self.splitter_config is not None
            else None,
        }

    def _extract_ruleset(
        self,
        network: ThreeLayerNetwork,
        dataset: Dataset,
        encoded: np.ndarray,
        network_labels: np.ndarray,
        class_labels: List[str],
        encoder: Optional[TupleEncoder],
    ) -> Tuple[RuleSet, Optional[object]]:
        splitter = (
            HiddenUnitSplitter(self.splitter_config)
            if self.splitter_config is not None
            else None
        )
        extractor = RuleExtractor(self.config, splitter=splitter)
        result = extractor.extract(
            network,
            encoded,
            dataset.label_targets(),
            class_labels=class_labels,
            encoder=encoder,
        )
        return result.rules, result
