"""Unit tests of the one columnar batch type, ColumnarDataset."""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator
from repro.data.chunks import concat_chunks
from repro.data.columnar import ColumnarDataset, codes_from_labels, columnar_from_records
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import SchemaError
from repro.preprocessing.encoder import agrawal_encoder


@pytest.fixture()
def tiny_schema():
    return Schema(
        attributes=[
            ContinuousAttribute("income", 0.0, 100.0),
            ContinuousAttribute("age", 18.0, 90.0, integer=True),
            CategoricalAttribute("grade", (0, 1, 2), ordered=True),
        ],
        classes=("yes", "no"),
    )


@pytest.fixture()
def tiny_columnar(tiny_schema):
    return ColumnarDataset(
        tiny_schema,
        {
            "income": np.asarray([10.0, 20.0, 30.0, 40.0]),
            "age": np.asarray([20, 30, 40, 50]),
            "grade": np.asarray([0, 1, 2, 1]),
        },
        np.asarray(["yes", "no", "yes", "no"]),
    )


@pytest.fixture(scope="module")
def data():
    """400 perturbed function-2 tuples, as the generator produces them."""
    return AgrawalGenerator(function=2, perturbation=0.05, seed=13).generate(400)


def two_rows(**overrides):
    """Valid two-row tiny columns, with some replaced (``None`` drops one)."""
    columns = {
        "income": np.asarray([10.0, 20.0]),
        "age": np.asarray([20, 30]),
        "grade": np.asarray([0, 1]),
    }
    columns.update(overrides)
    return {name: column for name, column in columns.items() if column is not None}


class TestConstruction:
    def test_is_a_dataset(self, tiny_columnar):
        assert isinstance(tiny_columnar, Dataset)
        assert len(tiny_columnar) == 4

    @pytest.mark.parametrize(
        "columns, labels, match",
        [
            (two_rows(age=None), ["yes", "no"], "columns missing"),
            (two_rows(bogus=np.zeros(2)), ["yes", "no"], "unknown attributes"),
            (two_rows(age=np.asarray([20, 30, 40])), ["yes", "no"], "length"),
            (two_rows(grade=np.zeros((2, 1))), ["yes", "no"], "1-D"),
            (two_rows(), ["yes"], "labels have shape"),
            (two_rows(income=np.asarray([10.0, 500.0])), ["yes", "no"], "outside"),
            (two_rows(grade=np.asarray([0, 7])), ["yes", "no"], "domain"),
            (two_rows(), ["yes", "maybe"], "unknown class label"),
            (two_rows(), np.asarray([0, 2]), "index classes"),
            (two_rows(), np.asarray([-1, 0]), "index classes"),
            (two_rows(), np.zeros(2), "unknown class label"),
        ],
        ids=[
            "missing-column",
            "unknown-column",
            "ragged-columns",
            "2-D-column",
            "label-length",
            "out-of-range",
            "out-of-domain",
            "unknown-label",
            "code-too-large",
            "negative-code",
            "float-codes",
        ],
    )
    def test_rejects_bad_input(self, tiny_schema, columns, labels, match):
        with pytest.raises(SchemaError, match=match):
            ColumnarDataset(tiny_schema, columns, labels)

    def test_label_indices_reject_unknown_labels(self, tiny_schema):
        # Labels are checked at construction even without column validation:
        # an unmapped label must never alias a class index later.
        with pytest.raises(SchemaError, match="unknown class label"):
            ColumnarDataset(tiny_schema, two_rows(), ["yes", "typo"], validate=False)

    def test_validation_numeric_column_vs_string_domain(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("income", 0.0, 100.0),
                CategoricalAttribute("colour", ("red", "green")),
            ],
            classes=("yes", "no"),
        )
        with pytest.raises(SchemaError, match="domain"):
            ColumnarDataset(
                schema,
                {"income": np.asarray([1.0]), "colour": np.asarray([3])},
                np.asarray(["yes"]),
            )

    def test_columns_are_read_only_views(self, tiny_schema):
        income = np.asarray([10.0, 20.0])
        dataset = ColumnarDataset(tiny_schema, two_rows(income=income), ["yes", "no"])
        assert np.shares_memory(dataset.column("income"), income)
        with pytest.raises(ValueError):
            dataset.column("income")[0] = 0.0
        income[0] = 9.0  # the caller's array stays writable

    @pytest.mark.parametrize(
        "labels", [["yes", "no"], np.asarray([0, 1]), np.asarray([0, 1], dtype=np.uint8)]
    )
    def test_strings_and_codes_store_the_same_int64_codes(self, tiny_schema, labels):
        dataset = ColumnarDataset(tiny_schema, two_rows(), labels)
        assert dataset.label_codes.dtype == np.int64
        assert dataset.label_codes.tolist() == [0, 1]
        assert not dataset.label_codes.flags.writeable
        assert dataset.labels == ["yes", "no"]

    def test_from_records_round_trip(self, tiny_columnar):
        rebuilt = columnar_from_records(
            tiny_columnar.schema, tiny_columnar.records, tiny_columnar.labels
        )
        assert rebuilt.records == tiny_columnar.records
        assert rebuilt.labels == tiny_columnar.labels
        assert rebuilt.column("age").dtype == np.int64

    def test_repr_names_labelling(self, tiny_columnar):
        assert repr(tiny_columnar).endswith(", labelled)")
        assert repr(tiny_columnar.without_labels()).endswith(", unlabelled)")


class TestLazyRecords:
    def test_records_materialise_lazily_with_python_scalars(self, tiny_columnar):
        assert not tiny_columnar.records_materialized
        records = tiny_columnar.records
        assert tiny_columnar.records_materialized
        assert records[0] == {"income": 10.0, "age": 20, "grade": 0}
        assert type(records[0]["income"]) is float
        assert type(records[0]["age"]) is int

    def test_records_cached(self, tiny_columnar):
        assert tiny_columnar.records is tiny_columnar.records

    def test_labels_list(self, tiny_columnar):
        assert tiny_columnar.labels == ["yes", "no", "yes", "no"]
        assert all(type(label) is str for label in tiny_columnar.labels)

    def test_iteration_pairs(self, tiny_columnar):
        pairs = list(tiny_columnar)
        assert pairs[2] == ({"income": 30.0, "age": 40, "grade": 2}, "yes")

    def test_iter_rows_does_not_cache(self, tiny_columnar):
        rows = list(tiny_columnar.iter_rows())
        assert rows[1] == ({"income": 20.0, "age": 30, "grade": 1}, "no")
        assert not tiny_columnar.records_materialized

    def test_iter_rows_matches_records(self, data):
        rows = list(data.iter_rows())
        assert [r for r, _ in rows] == data.records
        assert [l for _, l in rows] == data.labels

    def test_unlabelled_iter_rows_yield_none(self, tiny_columnar):
        labels = [label for _, label in tiny_columnar.without_labels().iter_rows()]
        assert labels == [None] * 4


class TestArrayViews:
    def test_attribute_column_continuous(self, tiny_columnar):
        column = tiny_columnar.attribute_column("income")
        assert column.dtype == float
        assert column.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_attribute_column_categorical_object_dtype(self, tiny_columnar):
        column = tiny_columnar.attribute_column("grade")
        assert column.dtype == object
        assert column.tolist() == [0, 1, 2, 1]

    def test_column_values_are_python_scalars(self, data):
        values = data.column_values("age")
        assert all(type(v) is int for v in values)

    def test_unknown_column_rejected(self, data):
        with pytest.raises(SchemaError, match="unknown attribute"):
            data.column("wages")

    def test_compiled_rules_evaluate_on_columns(self, data):
        from repro.serving.reference import reference_ruleset

        compiled = reference_ruleset(2).compiled()
        assert (
            compiled.predict_batch(data).tolist()
            == compiled.predict_batch(data.to_dataset()).tolist()
        )


class TestLabels:
    def test_label_indices_and_targets(self, tiny_columnar):
        assert tiny_columnar.label_indices().tolist() == [0, 1, 0, 1]
        targets = tiny_columnar.label_targets()
        assert targets.shape == (4, 2)
        assert targets[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_label_indices_follow_the_schema_classes(self, tiny_columnar):
        swapped = tiny_columnar.with_label_codes(
            np.asarray([1, 0, 1, 0]), classes=("no", "yes")
        )
        assert swapped.labels == tiny_columnar.labels
        assert swapped.label_indices().tolist() == [0, 1, 0, 1]

    def test_class_distribution_and_skew(self, tiny_columnar):
        assert tiny_columnar.class_distribution() == {"yes": 2, "no": 2}
        assert tiny_columnar.class_skew() == 0.5

    def test_label_array_is_object_strings(self, data):
        assert data.label_array().dtype == object
        assert data.label_array().tolist() == data.labels

    def test_codes_round_trip(self, data):
        rebuilt = np.array(list(data.classes), dtype=object)[data.label_codes]
        assert rebuilt.tolist() == data.labels

    def test_unlabelled_has_no_codes(self, data):
        bare = data.without_labels()
        assert not bare.is_labelled
        assert np.shares_memory(bare.column("salary"), data.column("salary"))
        with pytest.raises(SchemaError, match="no labels"):
            bare.label_codes

    def test_with_label_codes_replaces_labels(self, data):
        flipped = data.with_label_codes(1 - data.label_codes)
        assert flipped.labels == [{"A": "B", "B": "A"}[label] for label in data.labels]
        assert np.shares_memory(flipped.column("salary"), data.column("salary"))

    def test_codes_from_labels_rejects_unknown(self):
        with pytest.raises(SchemaError, match="unknown class label 'C'"):
            codes_from_labels(np.array(["A", "C"], dtype=object), ("A", "B"))


class TestSubset:
    def test_prefix_subset_is_zero_copy(self, tiny_columnar):
        prefix = tiny_columnar.subset(range(2))
        assert isinstance(prefix, ColumnarDataset)
        assert len(prefix) == 2
        assert np.shares_memory(prefix.column("income"), tiny_columnar.column("income"))

    def test_fancy_subset(self, tiny_columnar):
        picked = tiny_columnar.subset([3, 0])
        assert picked.labels == ["no", "yes"]
        assert picked.records[0]["income"] == 40.0

    def test_subset_after_materialisation_shares_dicts(self, tiny_columnar):
        records = tiny_columnar.records  # materialise
        picked = tiny_columnar.subset([1, 2])
        assert picked.records[0] is records[1]

    def test_empty_range_selects_nothing(self, tiny_columnar):
        # Computed bounds like range(n - offset) can come out empty with a
        # negative stop; that must select zero rows, not wrap around.
        assert len(tiny_columnar.subset(range(0))) == 0
        assert len(tiny_columnar.subset(range(0, -5))) == 0

    def test_negative_range_indices_select_those_rows(self, tiny_columnar):
        picked = tiny_columnar.subset(range(-2, 0))
        assert len(picked) == 2
        assert picked.labels == tiny_columnar.labels[-2:]

    def test_out_of_range_subset_raises(self, tiny_columnar):
        with pytest.raises(IndexError):
            tiny_columnar.subset(range(0, 15))
        with pytest.raises(IndexError):
            tiny_columnar.subset(range(-9, 2))

    def test_slice_subset_before_and_after_materialisation(self, tiny_columnar):
        before = tiny_columnar.subset(slice(0, 3))
        assert len(before) == 3
        tiny_columnar.records  # materialise
        after = tiny_columnar.subset(slice(0, 3))
        assert len(after) == 3
        assert after.labels == before.labels

    def test_split_round_trip(self, tiny_columnar):
        train, test = tiny_columnar.split(0.5, seed=0)
        assert len(train) + len(test) == len(tiny_columnar)

    def test_filter(self, tiny_columnar):
        kept = tiny_columnar.filter(lambda record, label: label == "yes")
        assert len(kept) == 2


class TestSlicing:
    def test_slice_is_zero_copy(self, data):
        window = data.slice(10, 60)
        assert isinstance(window, ColumnarDataset)
        assert len(window) == 50
        assert np.shares_memory(window.column("salary"), data.column("salary"))
        assert window.labels == data.labels[10:60]

    def test_iter_chunks_covers_everything_in_order(self, data):
        pieces = list(data.iter_chunks(150))
        assert [len(p) for p in pieces] == [150, 150, 100]
        assert sum((p.labels for p in pieces), []) == data.labels

    def test_iter_chunks_size_validated(self, data):
        with pytest.raises(SchemaError, match="positive"):
            list(data.iter_chunks(0))

    def test_concat_chunks_restores_iter_chunks(self, data):
        merged = concat_chunks(list(data.iter_chunks(64)))
        assert merged.labels == data.labels
        for name in data.schema.attribute_names:
            assert np.array_equal(merged.column(name), data.column(name))

    def test_concat_chunks_rejects_mixed_labelling(self, data):
        with pytest.raises(SchemaError, match="labelled and unlabelled"):
            concat_chunks([data, data.without_labels()])


class TestAlgebra:
    def test_concat_columnar(self, tiny_columnar):
        doubled = tiny_columnar.concat(tiny_columnar)
        assert isinstance(doubled, ColumnarDataset)
        assert len(doubled) == 8
        assert doubled.labels == tiny_columnar.labels * 2

    def test_concat_of_slices_restores_the_whole(self, data):
        first, second = data.slice(0, 100), data.slice(100, None)
        assert first.concat(second).labels == data.labels

    def test_concat_with_record_backed(self, tiny_columnar):
        other = Dataset(
            tiny_columnar.schema,
            [{"income": 5.0, "age": 25, "grade": 0}],
            ["yes"],
            validate=False,
        )
        merged = tiny_columnar.concat(other)
        assert len(merged) == 5
        assert merged.records[-1]["income"] == 5.0

    def test_relabelled_batch(self, tiny_columnar):
        flipped = tiny_columnar.relabelled_batch(
            lambda columns: np.where(np.asarray(columns["grade"]) >= 1, "yes", "no")
        )
        assert flipped.labels == ["no", "yes", "yes", "yes"]

    def test_relabelled_batch_rejects_unknown_labels(self, tiny_columnar):
        with pytest.raises(SchemaError, match="unknown class label"):
            tiny_columnar.relabelled_batch(
                lambda columns: np.asarray(["bogus"] * len(columns["grade"]))
            )

    def test_to_dataset(self, tiny_columnar):
        plain = tiny_columnar.to_dataset()
        assert type(plain) is Dataset
        assert plain.records == tiny_columnar.records
        assert plain.labels == tiny_columnar.labels

    def test_equality_with_equal_columnar(self, tiny_columnar, tiny_schema):
        other = ColumnarDataset(
            tiny_schema,
            {name: column.copy() for name, column in tiny_columnar.columns.items()},
            tiny_columnar.label_array().copy(),
        )
        assert tiny_columnar == other

    def test_labelled_never_equals_unlabelled(self, tiny_columnar):
        assert tiny_columnar != tiny_columnar.without_labels()


class TestEncoderFastPath:
    def test_transform_matrix_matches_record_path(self):
        dataset = AgrawalGenerator(function=2, seed=11).generate(500)
        encoder = agrawal_encoder()
        columnar = encoder.transform_matrix(dataset)
        assert not dataset.records_materialized  # no dicts built for the encode
        record_path = encoder.transform_matrix(list(dataset.records))
        assert np.array_equal(columnar, record_path)

    def test_attribute_rules_predict_without_dicts(self):
        from repro.serving import reference_ruleset

        dataset = AgrawalGenerator(function=4, perturbation=0.0, seed=5).generate(300)
        rules = reference_ruleset(4)
        labels = rules.predict_batch(dataset)
        assert not dataset.records_materialized
        assert labels.tolist() == dataset.labels


def _generated(generator):
    return [generator.generate(300)]


def _generated_clean(generator):
    return [generator.generate_clean(300)]


def _sequential_chunks(generator):
    return list(generator.iter_chunks(300, chunk_size=128, processes=1))


def _parallel_chunks(generator):
    return list(generator.iter_chunks(300, chunk_size=128, processes=2))


def _stored_chunks(generator):
    from repro.db.store import TupleStore

    with TupleStore(generator.schema) as store:
        store.create()
        store.load(generator.generate(300))
        return list(store.iter_chunks(chunk_size=128))


def _shared_memory_round_trip(generator):
    from repro.data.chunks import chunk_from_shared, chunk_to_shared

    return [chunk_from_shared(generator.schema, chunk_to_shared(generator.generate(300)))]


def _boolean_truth_table(generator):
    from repro.data.synthetic import boolean_function_dataset

    return [boolean_function_dataset(4, lambda bits: bits[0] == bits[3])]


@pytest.mark.parametrize(
    "produce",
    [
        _generated,
        _generated_clean,
        _sequential_chunks,
        _parallel_chunks,
        _stored_chunks,
        _shared_memory_round_trip,
        _boolean_truth_table,
    ],
    ids=[
        "generate",
        "generate_clean",
        "iter_chunks-1-process",
        "iter_chunks-2-processes",
        "TupleStore.iter_chunks",
        "chunk_from_shared",
        "boolean_function_dataset",
    ],
)
def test_every_producer_returns_the_one_contract(produce):
    """Every columnar producer returns read-only columns and int64 label codes."""
    batches = produce(AgrawalGenerator(function=2, perturbation=0.05, seed=17))
    assert batches
    for batch in batches:
        assert type(batch) is ColumnarDataset
        assert batch.is_labelled
        assert batch.label_codes.dtype == np.int64
        assert not batch.label_codes.flags.writeable
        assert batch.classes == tuple(batch.schema.classes)
        for name in batch.schema.attribute_names:
            assert not batch.column(name).flags.writeable
