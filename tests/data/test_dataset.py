"""Unit tests of the one dataset type, Dataset.

``TestEitherEntryPoint`` runs every case twice over the same twelve mixed
tuples of ``small_schema`` (a float, an integer, an int-coded category and
the string-valued ``colour``): once built through ``Dataset.from_records``
and once through the column constructor, so both entry points meet the same
expectations.  The remaining classes pin down the column constructor's
checks, labels, zero-copy views and the producers' shared contract.
"""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator
from repro.data.chunks import concat_chunks
from repro.data.dataset import Dataset, codes_from_labels
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import DataGenerationError, SchemaError
from repro.preprocessing.encoder import agrawal_encoder


@pytest.fixture(params=["from-records", "from-columns"])
def built(request, small_schema, small_dataset):
    """``small_dataset``'s tuples, built through one of the two entry points."""
    records = [dict(record) for record in small_dataset.records]
    labels = list(small_dataset.labels)
    if request.param == "from-records":
        return Dataset.from_records(small_schema, records, labels)
    columns = {
        name: [record[name] for record in records]
        for name in small_schema.attribute_names
    }
    return Dataset(small_schema, columns, labels)


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
def tiny(tiny_schema):
    return Dataset(
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


def _forbid_records(monkeypatch):
    """Make any access to ``Dataset.records`` fail the test."""

    def forbidden(self):
        pytest.fail("per-record dicts were materialised")

    monkeypatch.setattr(Dataset, "records", property(forbidden))


class TestEitherEntryPoint:
    def test_length_and_iteration(self, built):
        assert len(built) == 12
        pairs = list(built)
        assert len(pairs) == 12
        record, label = pairs[0]
        assert label in ("yes", "no")
        assert record == {"income": 10.0, "age": 20, "grade": 0, "colour": "red"}

    def test_getitem(self, built):
        record, label = built[3]
        assert record["income"] == pytest.approx(40.0)
        assert label == "no"

    def test_column_dtypes_follow_the_schema(self, built):
        assert built.column("income").dtype == np.float64
        assert built.column("age").dtype == np.int64
        assert built.column("grade").dtype == np.int64
        assert built.column("colour").dtype == object
        assert not built.column("colour").flags.writeable

    def test_records_carry_python_scalars(self, built):
        record = built.records[0]
        assert type(record["income"]) is float
        assert type(record["age"]) is int
        assert type(record["colour"]) is str

    def test_both_entry_points_build_equal_datasets(self, built, small_dataset):
        assert built == small_dataset

    def test_attribute_column_continuous(self, built):
        column = built.attribute_column("income")
        assert column.dtype == float
        assert column.shape == (12,)

    def test_attribute_column_categorical(self, built):
        column = built.attribute_column("colour")
        assert column.dtype == object
        assert set(column) <= {"red", "green", "blue"}

    def test_label_indices(self, built):
        indices = built.label_indices()
        assert set(np.unique(indices)) <= {0, 1}
        assert indices.shape == (12,)

    def test_label_targets_one_hot(self, built):
        targets = built.label_targets()
        assert targets.shape == (12, 2)
        assert np.all(targets.sum(axis=1) == 1.0)
        # Row classes must agree with label_indices.
        assert np.array_equal(np.argmax(targets, axis=1), built.label_indices())

    def test_class_distribution_counts_all_classes(self, built):
        distribution = built.class_distribution()
        assert set(distribution) == {"yes", "no"}
        assert sum(distribution.values()) == len(built)

    def test_class_skew(self, built):
        skew = built.class_skew()
        assert 0.5 <= skew <= 1.0

    def test_subset(self, built):
        subset = built.subset([0, 2, 4])
        assert len(subset) == 3
        assert subset.records[1] == built.records[2]
        assert subset.column("colour").dtype == object

    def test_prefix_subset_is_zero_copy(self, built):
        prefix = built.subset(range(5))
        assert len(prefix) == 5
        for name in built.schema.attribute_names:
            assert np.shares_memory(prefix.column(name), built.column(name))

    def test_filter(self, built):
        rich = built.filter(lambda record, label: record["income"] >= 50)
        assert len(rich) == 7
        assert all(r["income"] >= 50 for r in rich.records)
        assert rich.labels == ["yes"] * 7

    def test_shuffled_preserves_pairs(self, built):
        shuffled = built.shuffled(seed=0)
        assert len(shuffled) == len(built)
        original = {(r["income"], r["colour"], l) for r, l in built}
        permuted = {(r["income"], r["colour"], l) for r, l in shuffled}
        assert original == permuted

    def test_split_sizes(self, built):
        train, test = built.split(0.75, seed=1)
        assert len(train) + len(test) == len(built)
        assert len(train) == 9
        assert sorted(train.records + test.records, key=lambda r: r["income"]) == sorted(
            built.records, key=lambda r: r["income"]
        )

    def test_split_rejects_bad_fraction(self, built):
        with pytest.raises(DataGenerationError):
            built.split(1.5)

    def test_concat(self, built):
        doubled = built.concat(built)
        assert len(doubled) == 2 * len(built)
        assert doubled.labels == built.labels * 2
        assert doubled.records[12:] == built.records

    def test_concat_rejects_different_schema(self, built, agrawal_train):
        with pytest.raises(SchemaError):
            built.concat(agrawal_train)

    def test_relabelled(self, built):
        flipped = built.relabelled(lambda record: "yes")
        assert set(flipped.labels) == {"yes"}
        assert flipped.records == built.records
        assert flipped.class_distribution() == {"yes": 12, "no": 0}

    def test_summary_mentions_size(self, built):
        assert "n=12" in built.summary()


class TestFromRecords:
    def test_mismatched_lengths_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(
                small_schema, [{"income": 1, "age": 20, "grade": 0, "colour": "red"}], []
            )

    def test_validation_rejects_bad_values(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(
                small_schema,
                [{"income": 1000.0, "age": 20, "grade": 0, "colour": "red"}],
                ["yes"],
            )

    def test_validation_rejects_bad_labels(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(
                small_schema,
                [{"income": 10.0, "age": 20, "grade": 0, "colour": "red"}],
                ["maybe"],
            )

    def test_unknown_attribute_rejected(self, small_schema):
        record = {"income": 10.0, "age": 20, "grade": 0, "colour": "red", "bogus": 1}
        with pytest.raises(SchemaError, match="unknown attributes"):
            Dataset.from_records(small_schema, [record], ["yes"])

    def test_missing_attribute_rejected_even_without_validation(self, small_schema):
        with pytest.raises(SchemaError, match="missing attribute 'colour'"):
            Dataset.from_records(
                small_schema, [{"income": 10.0, "age": 20, "grade": 0}], ["yes"], validate=False
            )

    def test_non_integral_value_is_not_truncated(self, tiny_schema):
        # An integer attribute never silently truncates 20.5 to 20: the
        # column stays float and keeps what the record held.
        dataset = Dataset.from_records(
            tiny_schema, [{"income": 1.0, "age": 20.5, "grade": 0}], ["yes"]
        )
        assert dataset.column("age").dtype == np.float64
        assert dataset.records[0]["age"] == 20.5

    def test_integral_floats_become_integer_columns(self, tiny_schema):
        # CSV loading parses every continuous cell as a float.
        dataset = Dataset.from_records(
            tiny_schema, [{"income": 1.0, "age": 20.0, "grade": 0}], ["yes"]
        )
        assert dataset.column("age").dtype == np.int64

    def test_non_numeric_value_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="not numeric"):
            Dataset.from_records(
                tiny_schema, [{"income": "lots", "age": 20, "grade": 0}], ["yes"]
            )

    def test_unlabelled(self, tiny_schema):
        dataset = Dataset.from_records(
            tiny_schema, [{"income": 1.0, "age": 20, "grade": 0}], None
        )
        assert not dataset.is_labelled

    def test_round_trip(self, tiny):
        rebuilt = Dataset.from_records(tiny.schema, tiny.records, tiny.labels)
        assert rebuilt.records == tiny.records
        assert rebuilt.labels == tiny.labels
        assert rebuilt.column("age").dtype == np.int64
        assert rebuilt == tiny


class TestEquality:
    def test_validation_flag_does_not_affect_equality(self, small_schema, small_dataset):
        records, labels = small_dataset.records, small_dataset.labels
        checked = Dataset.from_records(small_schema, records, labels, validate=True)
        unchecked = Dataset.from_records(small_schema, records, labels, validate=False)
        assert checked == unchecked

    def test_comparing_after_label_indices_does_not_raise(self, small_schema, small_dataset):
        records, labels = small_dataset.records, small_dataset.labels
        first = Dataset.from_records(small_schema, records, labels)
        second = Dataset.from_records(small_schema, records, labels)
        first.label_indices()
        assert first == second
        assert second == first

    def test_different_labels_compare_unequal(self, tiny):
        assert tiny != tiny.with_label_codes(1 - tiny.label_codes)

    def test_different_rows_compare_unequal(self, tiny):
        assert tiny != tiny.subset([1, 0, 2, 3])

    def test_equality_with_equal_columns(self, tiny, tiny_schema):
        other = Dataset(
            tiny_schema,
            {name: column.copy() for name, column in tiny.columns.items()},
            tiny.label_array().copy(),
        )
        assert tiny == other

    def test_labelled_never_equals_unlabelled(self, tiny):
        assert tiny != tiny.without_labels()

    def test_not_hashable(self, tiny):
        with pytest.raises(TypeError):
            hash(tiny)


class TestConstruction:
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
            Dataset(tiny_schema, columns, labels)

    def test_label_indices_reject_unknown_labels(self, tiny_schema):
        # Labels are checked at construction even without column validation:
        # an unmapped label must never alias a class index later.
        with pytest.raises(SchemaError, match="unknown class label"):
            Dataset(tiny_schema, two_rows(), ["yes", "typo"], validate=False)

    def test_validation_numeric_column_vs_string_domain(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("income", 0.0, 100.0),
                CategoricalAttribute("colour", ("red", "green")),
            ],
            classes=("yes", "no"),
        )
        with pytest.raises(SchemaError, match="domain"):
            Dataset(
                schema,
                {"income": np.asarray([1.0]), "colour": np.asarray([3])},
                np.asarray(["yes"]),
            )

    def test_columns_are_read_only_views(self, tiny_schema):
        income = np.asarray([10.0, 20.0])
        dataset = Dataset(tiny_schema, two_rows(income=income), ["yes", "no"])
        assert np.shares_memory(dataset.column("income"), income)
        with pytest.raises(ValueError):
            dataset.column("income")[0] = 0.0
        income[0] = 9.0  # the caller's array stays writable

    @pytest.mark.parametrize(
        "labels", [["yes", "no"], np.asarray([0, 1]), np.asarray([0, 1], dtype=np.uint8)]
    )
    def test_strings_and_codes_store_the_same_int64_codes(self, tiny_schema, labels):
        dataset = Dataset(tiny_schema, two_rows(), labels)
        assert dataset.label_codes.dtype == np.int64
        assert dataset.label_codes.tolist() == [0, 1]
        assert not dataset.label_codes.flags.writeable
        assert dataset.labels == ["yes", "no"]

    def test_repr_names_labelling(self, tiny):
        assert repr(tiny).endswith(", labelled)")
        assert repr(tiny.without_labels()).endswith(", unlabelled)")


class TestLazyRecords:
    def test_records_materialise_with_python_scalars(self, tiny):
        records = tiny.records
        assert records[0] == {"income": 10.0, "age": 20, "grade": 0}
        assert type(records[0]["income"]) is float
        assert type(records[0]["age"]) is int

    def test_records_cached(self, tiny):
        assert tiny.records is tiny.records

    def test_labels_list(self, tiny):
        assert tiny.labels == ["yes", "no", "yes", "no"]
        assert all(type(label) is str for label in tiny.labels)

    def test_iteration_pairs(self, tiny):
        pairs = list(tiny)
        assert pairs[2] == ({"income": 30.0, "age": 40, "grade": 2}, "yes")

    def test_iter_rows_does_not_cache(self, tiny, monkeypatch):
        _forbid_records(monkeypatch)
        rows = list(tiny.iter_rows())
        assert rows[1] == ({"income": 20.0, "age": 30, "grade": 1}, "no")

    def test_iter_rows_matches_records(self, data):
        rows = list(data.iter_rows())
        assert [r for r, _ in rows] == data.records
        assert [l for _, l in rows] == data.labels

    def test_unlabelled_iter_rows_yield_none(self, tiny):
        labels = [label for _, label in tiny.without_labels().iter_rows()]
        assert labels == [None] * 4


class TestArrayViews:
    def test_attribute_column_continuous(self, tiny):
        column = tiny.attribute_column("income")
        assert column.dtype == float
        assert column.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_attribute_column_categorical_object_dtype(self, tiny):
        column = tiny.attribute_column("grade")
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
            == compiled.predict_batch(list(data.records)).tolist()
        )


class TestLabels:
    def test_label_indices_and_targets(self, tiny):
        assert tiny.label_indices().tolist() == [0, 1, 0, 1]
        targets = tiny.label_targets()
        assert targets.shape == (4, 2)
        assert targets[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_label_indices_follow_the_schema_classes(self, tiny):
        swapped = tiny.with_label_codes(np.asarray([1, 0, 1, 0]), classes=("no", "yes"))
        assert swapped.labels == tiny.labels
        assert swapped.label_indices().tolist() == [0, 1, 0, 1]

    def test_class_distribution_and_skew(self, tiny):
        assert tiny.class_distribution() == {"yes": 2, "no": 2}
        assert tiny.class_skew() == 0.5

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
    def test_fancy_subset(self, tiny):
        picked = tiny.subset([3, 0])
        assert picked.labels == ["no", "yes"]
        assert picked.records[0]["income"] == 40.0

    def test_subset_after_materialisation_stays_columnar(self, tiny):
        tiny.records  # materialise
        prefix = tiny.subset(range(2))
        assert np.shares_memory(prefix.column("income"), tiny.column("income"))
        assert tiny.subset([1, 2]).records == tiny.records[1:3]

    def test_empty_range_selects_nothing(self, tiny):
        # Computed bounds like range(n - offset) can come out empty with a
        # negative stop; that must select zero rows, not wrap around.
        assert len(tiny.subset(range(0))) == 0
        assert len(tiny.subset(range(0, -5))) == 0

    def test_negative_range_indices_select_those_rows(self, tiny):
        picked = tiny.subset(range(-2, 0))
        assert len(picked) == 2
        assert picked.labels == tiny.labels[-2:]

    def test_out_of_range_subset_raises(self, tiny):
        with pytest.raises(IndexError):
            tiny.subset(range(0, 15))
        with pytest.raises(IndexError):
            tiny.subset(range(-9, 2))

    def test_slice_subset_before_and_after_materialisation(self, tiny):
        before = tiny.subset(slice(0, 3))
        assert len(before) == 3
        tiny.records  # materialise
        after = tiny.subset(slice(0, 3))
        assert len(after) == 3
        assert after.labels == before.labels


class TestSlicing:
    def test_slice_is_zero_copy(self, data):
        window = data.slice(10, 60)
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
    def test_concat_of_slices_restores_the_whole(self, data):
        first, second = data.slice(0, 100), data.slice(100, None)
        assert first.concat(second) == data

    def test_concat_with_dataset_from_records(self, tiny):
        other = Dataset.from_records(
            tiny.schema, [{"income": 5.0, "age": 25, "grade": 0}], ["yes"]
        )
        merged = tiny.concat(other)
        assert len(merged) == 5
        assert merged.records[-1] == {"income": 5.0, "age": 25, "grade": 0}

    def test_relabelled_batch(self, tiny):
        flipped = tiny.relabelled_batch(
            lambda columns: np.where(np.asarray(columns["grade"]) >= 1, "yes", "no")
        )
        assert flipped.labels == ["no", "yes", "yes", "yes"]

    def test_relabelled_batch_rejects_unknown_labels(self, tiny):
        with pytest.raises(SchemaError, match="unknown class label"):
            tiny.relabelled_batch(
                lambda columns: np.asarray(["bogus"] * len(columns["grade"]))
            )


class TestEncoderFastPath:
    def test_transform_matrix_matches_record_path(self, monkeypatch):
        dataset = AgrawalGenerator(function=2, seed=11).generate(500)
        record_path = agrawal_encoder().transform_matrix(list(dataset.records))
        fresh = AgrawalGenerator(function=2, seed=11).generate(500)
        _forbid_records(monkeypatch)  # no dicts built for the encode
        assert np.array_equal(agrawal_encoder().transform_matrix(fresh), record_path)

    def test_attribute_rules_predict_without_dicts(self, monkeypatch):
        from repro.serving import reference_ruleset

        dataset = AgrawalGenerator(function=4, perturbation=0.0, seed=5).generate(300)
        expected = dataset.labels
        _forbid_records(monkeypatch)
        labels = reference_ruleset(4).predict_batch(dataset)
        assert labels.tolist() == expected


def _generated(generator, tmp_path):
    return [generator.generate(300)]


def _generated_clean(generator, tmp_path):
    return [generator.generate_clean(300)]


def _generated_scalar(generator, tmp_path):
    return [generator.generate_scalar(50)]


def _generated_clean_scalar(generator, tmp_path):
    return [generator.generate_clean_scalar(50)]


def _from_records(generator, tmp_path):
    dataset = generator.generate(50)
    return [Dataset.from_records(dataset.schema, dataset.records, dataset.labels)]


def _loaded_csv(generator, tmp_path):
    from repro.data.io import load_csv, save_csv

    path = tmp_path / "tuples.csv"
    save_csv(generator.generate(50), path)
    return [load_csv(path, generator.schema)]


def _loaded_csv_inferred(generator, tmp_path):
    from repro.data.io import load_csv_with_inferred_schema, save_csv

    path = tmp_path / "tuples.csv"
    save_csv(generator.generate(50), path)
    return [load_csv_with_inferred_schema(path)]


def _sequential_chunks(generator, tmp_path):
    return list(generator.iter_chunks(300, chunk_size=128, processes=1))


def _parallel_chunks(generator, tmp_path):
    return list(generator.iter_chunks(300, chunk_size=128, processes=2))


def _stored_chunks(generator, tmp_path):
    from repro.db.store import TupleStore

    with TupleStore(generator.schema) as store:
        store.create()
        store.load(generator.generate(300))
        return list(store.iter_chunks(chunk_size=128))


def _shared_memory_round_trip(generator, tmp_path):
    from repro.data.chunks import chunk_from_shared, chunk_to_shared

    return [chunk_from_shared(generator.schema, chunk_to_shared(generator.generate(300)))]


def _boolean_truth_table(generator, tmp_path):
    from repro.data.synthetic import boolean_function_dataset

    return [boolean_function_dataset(4, lambda bits: bits[0] == bits[3])]


@pytest.mark.parametrize(
    "produce",
    [
        _generated,
        _generated_clean,
        _generated_scalar,
        _generated_clean_scalar,
        _from_records,
        _loaded_csv,
        _loaded_csv_inferred,
        _sequential_chunks,
        _parallel_chunks,
        _stored_chunks,
        _shared_memory_round_trip,
        _boolean_truth_table,
    ],
    ids=[
        "generate",
        "generate_clean",
        "generate_scalar",
        "generate_clean_scalar",
        "Dataset.from_records",
        "load_csv",
        "load_csv_with_inferred_schema",
        "iter_chunks-1-process",
        "iter_chunks-2-processes",
        "TupleStore.iter_chunks",
        "chunk_from_shared",
        "boolean_function_dataset",
    ],
)
def test_every_producer_returns_the_one_contract(produce, tmp_path):
    """Every producer returns read-only columns and int64 label codes."""
    batches = produce(AgrawalGenerator(function=2, perturbation=0.05, seed=17), tmp_path)
    assert batches
    for batch in batches:
        assert type(batch) is Dataset
        assert batch.is_labelled
        assert batch.label_codes.dtype == np.int64
        assert not batch.label_codes.flags.writeable
        assert batch.classes == tuple(batch.schema.classes)
        for name in batch.schema.attribute_names:
            assert not batch.column(name).flags.writeable
