"""Tests of NeuroRuleClassifier options beyond the default pipeline."""

import pytest

from repro.core.extraction import ExtractionConfig
from repro.core.neurorule import NeuroRuleClassifier, NeuroRuleConfig
from repro.core.splitting import SplitterConfig
from repro.core.training import TrainerConfig
from repro.data.synthetic import boolean_function_dataset, wide_binary_dataset
from repro.experiments.config import ExperimentConfig
from repro.extractors.neurorule import NeuroRuleExtractor
from repro.rules.serialization import ruleset_from_json, ruleset_to_json, ruleset_to_sql


@pytest.fixture(scope="module")
def noisy_boolean_classifier():
    """A classifier fitted on a boolean concept with redundant-rule pruning on."""
    dataset = boolean_function_dataset(4, lambda bits: bool(bits[0]) and bool(bits[1]))
    replicated = dataset
    for _ in range(7):
        replicated = replicated.concat(dataset)
    config = NeuroRuleConfig.fast(n_hidden=3, seed=11)
    config.prune_redundant_rules = True
    classifier = NeuroRuleClassifier(config)
    classifier.fit(replicated)
    return classifier, replicated


class TestRedundantRulePruning:
    def test_accuracy_not_reduced(self, noisy_boolean_classifier):
        classifier, data = noisy_boolean_classifier
        raw_rules = classifier.extraction_result_.attribute_rules
        assert classifier.rules_.accuracy(data) >= raw_rules.accuracy(data)

    def test_rule_count_not_increased(self, noisy_boolean_classifier):
        classifier, _ = noisy_boolean_classifier
        assert classifier.rules_.n_rules <= classifier.extraction_result_.attribute_rules.n_rules

    def test_describe_uses_final_rules(self, noisy_boolean_classifier):
        classifier, _ = noisy_boolean_classifier
        text = classifier.describe_rules()
        assert text.count("Rule ") == classifier.rules_.n_rules


class TestRuleExport:
    def test_extracted_rules_round_trip_through_json(self, noisy_boolean_classifier):
        classifier, data = noisy_boolean_classifier
        document = ruleset_to_json(classifier.rules_)
        restored = ruleset_from_json(document)
        assert restored.predict(data) == classifier.rules_.predict(data)

    def test_extracted_rules_render_as_sql(self, noisy_boolean_classifier):
        classifier, _ = noisy_boolean_classifier
        statements = ruleset_to_sql(classifier.rules_, table="tuples")
        assert len(statements) == classifier.rules_.n_rules
        assert all('SELECT * FROM "tuples" WHERE' in s for s in statements)


class TestSplitterSeeding:
    """A seeded configuration replays end to end, subnetworks included."""

    def test_experiment_config_seeds_the_splitter(self):
        assert ExperimentConfig.quick().neurorule_config().splitter.trainer.seed == 3

    def test_fast_config_seeds_the_splitter(self):
        assert NeuroRuleConfig.fast(seed=5).splitter.trainer.seed == 5

    def test_explicit_splitter_seed_kept(self):
        config = NeuroRuleConfig(
            trainer=TrainerConfig(seed=1),
            splitter=SplitterConfig(trainer=TrainerConfig(n_hidden=3, seed=9)),
        )
        assert config.splitter.trainer.seed == 9

    def test_shared_splitter_config_not_mutated(self):
        shared = SplitterConfig()
        NeuroRuleConfig(trainer=TrainerConfig(seed=1), splitter=shared)
        assert shared.trainer.seed is None

    def test_disabled_splitter_stays_disabled(self):
        assert NeuroRuleConfig(trainer=TrainerConfig(seed=1), splitter=None).splitter is None

    def test_two_fits_replay_with_subnetworks(self):
        # Eight relevant inputs and an enumeration limit of three make the
        # extractor split a hidden unit, so subnetwork training runs.
        data = wide_binary_dataset(n_inputs=16, n_relevant=8, n_samples=300, seed=3)

        def fit():
            config = NeuroRuleConfig.fast(seed=2)
            config.extraction = ExtractionConfig(max_enumeration_inputs=3)
            return ruleset_to_json(NeuroRuleClassifier(config).fit(data).rules_)

        assert fit() == fit()


class TestSplitterDefaults:
    def test_width_comes_from_the_trainer_only(self):
        with pytest.raises(TypeError):
            SplitterConfig(n_hidden=3)  # the width is trainer.n_hidden

    def test_extractors_do_not_share_a_default_splitter(self):
        first, second = NeuroRuleExtractor(), NeuroRuleExtractor()
        assert first.splitter_config == SplitterConfig()
        assert first.splitter_config is not second.splitter_config

    def test_none_disables_splitting(self):
        assert NeuroRuleExtractor(splitter_config=None).splitter_config is None
