"""Tests of the serving layer's chunk fabric: codes end-to-end, routed streams."""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator
from repro.exceptions import ServingError
from repro.preprocessing.encoder import agrawal_encoder
from repro.rules.ruleset import RuleSet
from repro.serving.models import KIND_RULES, ServableModel
from repro.serving.reference import reference_ruleset
from repro.serving.registry import ModelRegistry
from repro.serving.service import PredictionService, ServiceConfig


@pytest.fixture(scope="module")
def data():
    return AgrawalGenerator(function=1, perturbation=0.0, seed=9).generate(3_000)


@pytest.fixture(scope="module")
def chunk(data):
    # The generator's output already is the columnar batch the chunk path takes.
    return data


@pytest.fixture()
def service():
    registry = ModelRegistry()
    registry.register(
        ServableModel(name="f1", kind=KIND_RULES, predictor=reference_ruleset(1))
    )
    with PredictionService(registry, ServiceConfig(workers=2)) as svc:
        yield svc


class TestPredictCodes:
    def test_attribute_rules_agree_with_predict_batch(self, chunk, data):
        model = ServableModel(
            name="f1", kind=KIND_RULES, predictor=reference_ruleset(1)
        )
        codes, classes = model.predict_codes(chunk)
        assert codes.dtype == np.int64
        labels = np.array(list(classes), dtype=object)[codes]
        assert labels.tolist() == model.predict_batch(data.records).tolist()

    def test_empty_ruleset_defaults_everything(self, chunk):
        empty = RuleSet(rules=[], default_class="B", classes=("A", "B"), name="empty")
        model = ServableModel(name="empty", kind=KIND_RULES, predictor=empty)
        codes, classes = model.predict_codes(chunk)
        assert set(np.unique(codes).tolist()) == {classes.index("B")}
        assert len(codes) == len(chunk)

    def test_binary_rules_take_the_encoded_path(self, chunk, data):
        from repro.rules.conditions import InputLiteral
        from repro.rules.rule import BinaryRule

        encoder = agrawal_encoder()
        # "age < 40" over the thermometer coding: I14 (age >= 30) may be
        # anything, I15 (age >= 40) must be 0 — plus the young-side rule the
        # function-1 truth uses, which keeps both classes populated.
        binary = RuleSet(
            rules=[
                BinaryRule((InputLiteral(encoder.feature(14), 0),), "A"),
            ],
            default_class="B",
            classes=("A", "B"),
            name="binary-age",
        )
        model = ServableModel(
            name="b1", kind=KIND_RULES, predictor=binary, encoder=encoder
        )
        codes, classes = model.predict_codes(chunk)
        labels = np.array(list(classes), dtype=object)[codes]
        assert labels.tolist() == model.predict_batch(data.records).tolist()

    def test_non_ruleset_predictor_falls_back(self, chunk, data):
        class Constant:
            classes = ("A", "B")

            def predict_batch(self, records):
                return np.array(["A"] * len(records), dtype=object)

        model = ServableModel(name="c", kind="baseline", predictor=Constant())
        codes, classes = model.predict_codes(chunk)
        assert codes.tolist() == [classes.index("A")] * len(chunk)


class TestPredictChunks:
    def test_yields_labelled_chunks_in_order(self, service, chunk, data):
        labelled = list(service.predict_chunks("f1", chunk.iter_chunks(500)))
        assert [len(c) for c in labelled] == [500] * 6
        merged = np.concatenate([c.label_array() for c in labelled])
        assert merged.tolist() == data.labels  # clean tuples: rules == truth
        # Columns ride through untouched (zero-copy).
        assert np.shares_memory(labelled[0].column("salary"), chunk.column("salary"))

    def test_window_validated(self, service, chunk):
        with pytest.raises(ServingError, match="window"):
            list(service.predict_chunks("f1", chunk.iter_chunks(500), window=0))

    def test_submit_chunk_future(self, service, chunk):
        codes, classes = service.submit_chunk("f1", chunk).result(timeout=10)
        assert len(codes) == len(chunk)
        assert set(classes) >= set(chunk.classes)

    def test_errors_propagate(self, service, chunk):
        class Exploding:
            classes = ("A", "B")

            def predict_batch(self, records):
                raise RuntimeError("boom")

        service.registry.register(
            ServableModel(name="bad", kind="baseline", predictor=Exploding())
        )
        with pytest.raises(RuntimeError, match="boom"):
            service.submit_chunk("bad", chunk).result(timeout=10)

    def test_closed_service_rejects_chunks(self, chunk):
        registry = ModelRegistry()
        registry.register(
            ServableModel(name="f1", kind=KIND_RULES, predictor=reference_ruleset(1))
        )
        service = PredictionService(registry, ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.submit_chunk("f1", chunk)

    def test_observability_counts_chunk_tuples(self, service, chunk):
        list(service.predict_chunks("f1", chunk.iter_chunks(1_000)))
        stats = service.stats("f1")
        assert stats.records == len(chunk)


class TestStreamRouting:
    """predict_stream_batches routes columnar inputs through the chunk path."""

    def test_columnar_dataset(self, service, data):
        arrays = list(service.predict_stream_batches("f1", data))
        assert np.concatenate(arrays).tolist() == data.labels

    def test_iterable_of_chunks(self, service, chunk, data):
        arrays = list(service.predict_stream_batches("f1", iter(chunk.iter_chunks(700))))
        assert [len(a) for a in arrays] == [700, 700, 700, 700, 200]
        assert np.concatenate(arrays).tolist() == data.labels

    def test_record_stream_unchanged(self, service, data):
        arrays = list(service.predict_stream_batches("f1", iter(data.records)))
        assert np.concatenate(arrays).tolist() == data.labels

    def test_empty_stream(self, service):
        assert list(service.predict_stream_batches("f1", iter([]))) == []

    def test_chunk_and_record_paths_agree(self, service, chunk, data):
        via_chunks = np.concatenate(
            list(service.predict_stream_batches("f1", chunk))
        )
        via_records = np.concatenate(
            list(service.predict_stream_batches("f1", iter(data.records)))
        )
        assert via_chunks.tolist() == via_records.tolist()
