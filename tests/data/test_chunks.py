"""Tests of the chunk transport: shared-memory hand-off of columnar batches.

The batch type itself (construction, views, labels, slicing, concatenation)
is covered by ``test_columnar.py``.
"""

import pickle

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.chunks import (
    SharedChunkMeta,
    chunk_from_shared,
    chunk_to_shared,
    release_shared_chunk,
)
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import SchemaError


@pytest.fixture(scope="module")
def schema():
    return agrawal_schema()


@pytest.fixture(scope="module")
def chunk():
    return AgrawalGenerator(function=2, perturbation=0.05, seed=13).generate(400)


class TestSharedMemoryTransport:
    def test_round_trip_bit_identical(self, schema, chunk):
        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        try:
            for name in schema.attribute_names:
                column = restored.column(name)
                assert column.dtype == chunk.column(name).dtype
                assert np.array_equal(column, chunk.column(name))
            assert restored.labels == chunk.labels
            assert restored.classes == chunk.classes
        finally:
            release_shared_chunk(restored)

    def test_unlabelled_round_trip(self, schema, chunk):
        meta = chunk_to_shared(chunk.without_labels())
        restored = chunk_from_shared(schema, meta)
        try:
            assert not restored.is_labelled
            assert len(restored) == len(chunk)
        finally:
            release_shared_chunk(restored)

    def test_release_removes_segment(self, schema, chunk):
        from multiprocessing import shared_memory

        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        release_shared_chunk(restored)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=meta.name)

    def test_release_is_noop_for_chunks_not_in_shared_memory(self, chunk):
        release_shared_chunk(chunk)  # must not raise

    def test_meta_survives_pickling(self):
        meta = SharedChunkMeta("seg", 10, ("<f8",), ("A", "B"), True)
        clone = pickle.loads(pickle.dumps(meta))
        assert clone == meta
        assert clone.name == "seg" and clone.n == 10 and clone.labelled

    def test_object_columns_rejected(self):
        schema = Schema(
            attributes=[CategoricalAttribute("kind", ("x", "y"))],
            classes=("A", "B"),
        )
        column = np.empty(2, dtype=object)
        column[:] = ["x", "y"]
        chunk = Dataset(schema, {"kind": column})
        with pytest.raises(SchemaError, match="shared memory"):
            chunk_to_shared(chunk)


class TestBooleanColumns:
    def test_boolean_columns_survive_the_fabric(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("x", 0.0, 10.0),
                CategoricalAttribute("flag", (True, False)),
            ],
            classes=("A", "B"),
        )
        chunk = Dataset(
            schema,
            {
                "x": np.array([1.0, 2.0]),
                "flag": np.array([True, False]),
            },
            np.array([0, 1], dtype=np.int64),
        )
        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        try:
            assert restored.column("flag").dtype == np.bool_
            assert restored.records == chunk.records
        finally:
            release_shared_chunk(restored)
