"""The dataset: one relation of tuples, stored column by column.

A :class:`Dataset` couples a :class:`~repro.data.schema.Schema` with one NumPy
array per attribute and (optionally) one int64 class code per tuple.  It is
the library's only dataset type and the batch every stage hands to the next:
the vectorised Agrawal generator produces it, training encodes it, rule
extraction and the baselines read it, the serving layer attaches predicted
label codes to it and the tuple store loads and streams it.  Per-record
inputs (CSV files, the scalar reference generators, hand-written records)
enter through :meth:`Dataset.from_records`.

Design notes
------------
* **Read-only columns.**  Columns are stored as non-writeable views of the
  arrays passed in (no copies; the caller's arrays stay writeable).  An
  optional ``owner`` — e.g. the shared-memory segment of
  :func:`repro.data.chunks.chunk_from_shared` — is kept alive as long as the
  dataset and every view taken from it.
* **Column dtypes follow the schema** (:func:`column_dtype`): integer-flagged
  continuous attributes and all-integer categorical domains get int64
  columns, boolean domains bool columns, other continuous attributes float
  columns and string domains object columns.  The database DDL derives its
  column types from the same rule.
* **Labels are int64 codes** into a ``classes`` tuple (``schema.classes``
  unless given).  String labels passed to the constructor are converted
  once, and an unknown label raises :class:`SchemaError` right there.
  Strings materialise only for the consumers that ask (``labels``,
  ``label_array``).  Labels are optional: an unlabelled dataset is the input
  of a classification job.
* ``records`` and ``labels`` are lazy properties that materialise (and
  cache) plain-Python structures on first access, for the record-oriented
  consumers (per-record rule walkers, JSON export).  Materialised records
  carry Python scalars (``int``/``float``/``str``), so they compare equal to
  hand-written records and serialise straight to JSON.
* **Zero-copy views.**  :meth:`~Dataset.slice`, :meth:`~Dataset.iter_chunks`,
  :meth:`~Dataset.with_label_codes`, :meth:`~Dataset.without_labels` and
  ``subset`` with a ``range``/``slice`` of step 1 share the parent's buffers
  — the nested Table-3 prefix test sets of :mod:`repro.experiments.function4`
  included.  Every operation returns a new dataset; a dataset is immutable
  after construction.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.schema import Attribute, AttributeValue, CategoricalAttribute, Schema
from repro.exceptions import DataGenerationError, SchemaError

Record = Dict[str, AttributeValue]

Indices = Union[Sequence[int], range, slice, np.ndarray]

#: dtype of label-code arrays: usable directly as NumPy fancy indexes.
LABEL_CODE_DTYPE = np.int64


def codes_from_labels(
    labels: Union[np.ndarray, Sequence[str]], classes: Sequence[str]
) -> np.ndarray:
    """Vectorised label-string → class-index conversion.

    Raises :class:`SchemaError` on a label outside ``classes`` — a silent
    ``-1`` would alias the last class through fancy indexing.
    """
    values = np.asarray(labels)
    codes = np.full(len(values), -1, dtype=LABEL_CODE_DTYPE)
    for index, label in enumerate(classes):
        codes[values == label] = index
    if len(values) and codes.min() < 0:
        index = int(np.argmax(codes < 0))
        bad = values[index : index + 1].tolist()[0]
        raise SchemaError(f"unknown class label {bad!r}; known: {list(classes)}")
    return codes


def column_dtype(attribute: Attribute):
    """The NumPy dtype an attribute's column is stored as.

    The single source of the schema → column typing rule: records entering
    through :meth:`Dataset.from_records`, the database DDL
    (:func:`repro.db.schema.column_type`) and the store's columnar read-back
    all derive from it.  Boolean domains are bool columns so a ``True``
    round-trips as ``True``, not ``1``.
    """
    if attribute.is_continuous:
        return np.int64 if getattr(attribute, "integer", False) else float
    assert isinstance(attribute, CategoricalAttribute)
    if all(isinstance(value, bool) for value in attribute.values):
        return np.bool_
    if all(
        isinstance(value, int) and not isinstance(value, bool)
        for value in attribute.values
    ):
        return np.int64
    return object


def _column_from_values(attribute: Attribute, values: List[AttributeValue]) -> np.ndarray:
    """One attribute's record values as a column of :func:`column_dtype`.

    The cast happens only when it is lossless: a non-integral value in an
    integer attribute keeps a float column (and a non-numeric one an object
    column) rather than being silently truncated, so validation still sees
    what the records held.
    """
    dtype = np.dtype(column_dtype(attribute))
    if dtype != object:
        inferred = np.asarray(values)
        if inferred.ndim == 1 and inferred.dtype.kind in "biuf":
            with np.errstate(invalid="ignore"):
                cast = inferred.astype(dtype)
            return cast if np.array_equal(cast, inferred) else inferred
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _readonly_view(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (the caller's array is untouched)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _as_slice(indices: Indices) -> Optional[slice]:
    """The basic-slicing form of ``indices`` (a NumPy view), or ``None``.

    Only the unambiguous forms map to a slice: an explicit ``slice``, an
    empty ``range`` and step-1 ranges of non-negative indices.  A ``range``
    holds *absolute* indices while a slice's negative bounds are
    end-relative, so anything involving negative range values falls back to
    fancy indexing, which treats them as the row indices they are.
    """
    if isinstance(indices, slice):
        return indices
    if isinstance(indices, range):
        if len(indices) == 0:
            return slice(0, 0, 1)
        if indices.step == 1 and indices.start >= 0:
            return slice(indices.start, indices.stop, 1)
    return None


class Dataset:
    """A (possibly unlabelled) relation stored as per-attribute column arrays.

    Parameters
    ----------
    schema:
        The attribute schema the columns conform to.
    columns:
        Mapping from attribute name to an equal-length 1-D array (anything
        ``np.asarray`` accepts).  Every schema attribute must be present.
        Arrays are wrapped in read-only views without copying, except that
        fixed-width NumPy string arrays become object arrays.
    labels:
        Class label per row — strings from ``classes``, or their integer
        codes (indices into ``classes``) — or ``None`` for an unlabelled
        dataset.  Either way they are stored as an int64 code array.
    validate:
        When ``True``, vectorised range/domain checks run over every column
        (the columnar analogue of ``Schema.validate_record``).  Generators
        that produce values by construction pass ``False``.  Labels are
        always checked.
    classes:
        The class vocabulary the label codes index; defaults to
        ``schema.classes``.
    owner:
        Optional object kept alive as long as this dataset (and every view
        taken from it) is — the shared-memory segment or any other buffer
        owner backing the column arrays.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Union[np.ndarray, Sequence[AttributeValue]]],
        labels: Optional[Union[np.ndarray, Sequence[str]]] = None,
        validate: bool = True,
        classes: Optional[Sequence[str]] = None,
        owner: object = None,
    ) -> None:
        self.schema = schema
        self.classes: Tuple[str, ...] = tuple(
            schema.classes if classes is None else classes
        )
        missing = [a.name for a in schema.attributes if a.name not in columns]
        if missing:
            raise SchemaError(f"columns missing for attributes: {missing}")
        unknown = sorted(set(columns) - set(schema.attribute_names))
        if unknown:
            raise SchemaError(f"columns supplied for unknown attributes: {unknown}")
        self._columns: Dict[str, np.ndarray] = {}
        n: Optional[int] = None
        for attribute in schema.attributes:
            column = np.asarray(columns[attribute.name])
            if column.dtype.kind in "US":
                # Fixed-width NumPy strings become Python-string objects, the
                # dtype every string column has whichever way it was built.
                column = column.astype(object)
            if column.ndim != 1:
                raise SchemaError(
                    f"column {attribute.name!r} must be 1-D, got shape {column.shape}"
                )
            if n is None:
                n = column.shape[0]
            elif column.shape[0] != n:
                raise SchemaError(
                    f"column {attribute.name!r} has length {column.shape[0]}, "
                    f"expected {n}"
                )
            self._columns[attribute.name] = _readonly_view(column)
        self._n = int(n if n is not None else 0)
        self._codes: Optional[np.ndarray] = (
            None if labels is None else _readonly_view(self._codes_from(labels))
        )
        self._owner = owner
        self._records_cache: Optional[List[Record]] = None
        self._labels_cache: Optional[List[str]] = None
        self._strings_cache: Optional[np.ndarray] = None
        self._indices_cache: Optional[np.ndarray] = None
        if validate:
            self._validate_columns()

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Sequence[Mapping[str, AttributeValue]],
        labels: Optional[Union[np.ndarray, Sequence[str]]],
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset from per-record mappings, one column at a time.

        Column dtypes follow :func:`column_dtype`.  With ``validate`` the
        records must carry exactly the schema's attributes and every value
        must lie in its attribute's domain; a record missing an attribute is
        rejected either way.
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        if validate:
            unknown = set().union(*records) - set(schema.attribute_names)
            if unknown:
                raise SchemaError(f"record has unknown attributes: {sorted(unknown)}")
        columns: Dict[str, np.ndarray] = {}
        for attribute in schema.attributes:
            try:
                values = [record[attribute.name] for record in records]
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"record missing attribute {attribute.name!r}") from exc
            columns[attribute.name] = _column_from_values(attribute, values)
        return cls(schema, columns, labels, validate=validate)

    # -- validation --------------------------------------------------------

    def _codes_from(self, labels: Union[np.ndarray, Sequence[str]]) -> np.ndarray:
        """``labels`` (strings or integer codes) as checked int64 codes."""
        values = np.asarray(labels)
        if values.ndim != 1 or values.shape[0] != self._n:
            raise SchemaError(
                f"labels have shape {values.shape}, expected ({self._n},)"
            )
        if values.dtype.kind not in "iu":
            return codes_from_labels(values, self.classes)
        if self._n and (
            int(values.min()) < 0 or int(values.max()) >= len(self.classes)
        ):
            raise SchemaError(f"label codes must index classes {list(self.classes)}")
        return values.astype(LABEL_CODE_DTYPE, copy=False)

    def _validate_columns(self) -> None:
        """Vectorised schema validation over whole columns."""
        for attribute in self.schema.attributes:
            column = self._columns[attribute.name]
            if attribute.is_continuous:
                try:
                    values = column.astype(float)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(
                        f"attribute {attribute.name!r}: column is not numeric"
                    ) from exc
                bad = (values < attribute.low) | (values > attribute.high)
                if bad.any():
                    index = int(np.argmax(bad))
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value {values[index]} "
                        f"outside [{attribute.low}, {attribute.high}]"
                    )
            else:
                try:
                    domain = np.asarray(
                        attribute.values,
                        dtype=column.dtype if column.dtype.kind in "biuf" else object,
                    )
                except (TypeError, ValueError):
                    # Numeric column against a non-numeric domain: nothing can
                    # match, but the comparison itself must not blow up.
                    domain = np.asarray(attribute.values, dtype=object)
                inside = np.isin(column, domain)
                if not inside.all():
                    index = int(np.argmax(~inside))
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value "
                        f"{column[index]!r} not in domain {attribute.values!r}"
                    )

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Tuple[Record, str]]:
        return iter(zip(self.records, self.labels))

    def __getitem__(self, index: int) -> Tuple[Record, str]:
        return self.records[index], self.labels[index]

    def __repr__(self) -> str:
        state = "labelled" if self.is_labelled else "unlabelled"
        return (
            f"Dataset(n={self._n}, attributes={self.schema.n_attributes}, "
            f"classes={self.classes}, {state})"
        )

    def __eq__(self, other: object) -> bool:
        """Same schema, same labelling, same labels and same rows."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self._n == other._n
            and self.is_labelled == other.is_labelled
            and (
                not self.is_labelled
                or np.array_equal(self.label_array(), other.label_array())
            )
            and all(
                np.array_equal(column, other._columns[name])
                for name, column in self._columns.items()
            )
        )

    __hash__ = None  # type: ignore[assignment]  # compares by content

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    # -- columnar access ---------------------------------------------------

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The read-only column arrays, keyed by attribute name."""
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """The stored array for attribute ``name`` (zero-copy, read-only)."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise SchemaError(
                f"unknown attribute {name!r}; known: {self.schema.attribute_names}"
            ) from exc

    def column_values(self, name: str) -> List[AttributeValue]:
        """Attribute ``name`` as a list of Python scalars.

        This is the column provider the inference layer's ``ColumnCache``
        uses; it avoids materialising per-record dicts for rule evaluation.
        """
        return self.column(name).tolist()

    def attribute_column(self, name: str) -> np.ndarray:
        """One attribute as a NumPy array (float for continuous attributes,
        object dtype of Python scalars for categorical ones)."""
        attr = self.schema.attribute(name)
        column = self._columns[name]
        if attr.is_continuous:
            return column.astype(float) if column.dtype != float else column
        out = np.empty(len(column), dtype=object)
        out[:] = column.tolist()
        return out

    # -- labels ------------------------------------------------------------

    @property
    def is_labelled(self) -> bool:
        return self._codes is not None

    @property
    def label_codes(self) -> np.ndarray:
        """The int64 codes indexing :attr:`classes` (raises if unlabelled)."""
        if self._codes is None:
            raise SchemaError("dataset carries no labels")
        return self._codes

    def label_array(self) -> np.ndarray:
        """Labels as an ``object``-dtype string array (cached)."""
        if self._strings_cache is None:
            vocabulary = np.empty(len(self.classes), dtype=object)
            vocabulary[:] = self.classes
            self._strings_cache = vocabulary[self.label_codes]
        return self._strings_cache

    @property
    def labels(self) -> List[str]:
        """Labels as a plain list, materialised lazily on first access."""
        if self._labels_cache is None:
            self._labels_cache = self.label_array().tolist()
        return self._labels_cache

    def label_indices(self) -> np.ndarray:
        """Labels as indices into ``schema.classes``.

        The codes themselves, unless this dataset's class vocabulary differs
        from the schema's (e.g. codes attached by a model).
        """
        if self._indices_cache is None:
            if self.classes == tuple(self.schema.classes):
                self._indices_cache = self.label_codes
            else:
                self._indices_cache = codes_from_labels(
                    self.label_array(), self.schema.classes
                )
        return self._indices_cache

    def label_targets(self) -> np.ndarray:
        """One-hot target matrix of shape ``(n, n_classes)``.

        This is the target representation used for network training: 1 for
        the true class output unit and 0 elsewhere, exactly as described in
        Section 2.1 of the paper.
        """
        targets = np.zeros((self._n, self.n_classes), dtype=float)
        targets[np.arange(self._n), self.label_indices()] = 1.0
        return targets

    def class_distribution(self) -> Dict[str, int]:
        """Number of records per class label (all classes present as keys)."""
        counts = np.bincount(self.label_indices(), minlength=self.schema.n_classes)
        return dict(zip(self.schema.classes, counts.tolist()))

    def class_skew(self) -> float:
        """Fraction of records belonging to the majority class.

        The paper excludes Agrawal functions 8 and 10 because they produce
        "highly skewed data that made classification not meaningful"; this
        helper is what the experiment harness uses to apply the same rule.
        """
        if not self._n:
            raise DataGenerationError("cannot compute skew of an empty dataset")
        return max(self.class_distribution().values()) / self._n

    # -- rows --------------------------------------------------------------

    @property
    def records(self) -> List[Record]:
        """Per-record dicts, materialised lazily on first access."""
        if self._records_cache is None:
            names = self.schema.attribute_names
            lists = [self._columns[name].tolist() for name in names]
            self._records_cache = [dict(zip(names, row)) for row in zip(*lists)]
        return self._records_cache

    def iter_rows(self) -> Iterator[Tuple[Record, Optional[str]]]:
        """Yield ``(record, label)`` pairs one at a time without caching.

        Unlike iterating the dataset (which materialises and caches the full
        record list), this builds each dict on the fly — the bounded-memory
        row stream the ``generate`` CLI writers consume.  Unlabelled rows
        come with a ``None`` label.
        """
        names = self.schema.attribute_names
        lists = [self._columns[name].tolist() for name in names]
        labels = self.label_array().tolist() if self.is_labelled else repeat(None)
        for row, label in zip(zip(*lists), labels):
            yield dict(zip(names, row)), label

    # -- zero-copy views ---------------------------------------------------

    def _take(self, selector: Union[slice, np.ndarray]) -> "Dataset":
        """Rows ``selector`` (a slice view or an index-array copy)."""
        return Dataset(
            self.schema,
            {name: column[selector] for name, column in self._columns.items()},
            None if self._codes is None else self._codes[selector],
            validate=False,
            classes=self.classes,
            owner=self._owner if isinstance(selector, slice) else None,
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "Dataset":
        """Rows ``start:stop`` as a zero-copy view."""
        return self._take(slice(start, stop))

    def iter_chunks(self, chunk_size: int) -> Iterator["Dataset"]:
        """Yield zero-copy views of at most ``chunk_size`` rows, in order."""
        if chunk_size <= 0:
            raise SchemaError(f"chunk size must be positive, got {chunk_size}")
        for start in range(0, self._n, chunk_size):
            yield self.slice(start, start + chunk_size)

    def with_label_codes(
        self, label_codes: np.ndarray, classes: Optional[Sequence[str]] = None
    ) -> "Dataset":
        """These columns with a (new) label-code array — zero-copy."""
        return Dataset(
            self.schema,
            self._columns,
            label_codes,
            validate=False,
            classes=self.classes if classes is None else classes,
            owner=self._owner,
        )

    def without_labels(self) -> "Dataset":
        """These columns with the labels dropped — zero-copy."""
        return Dataset(
            self.schema,
            self._columns,
            validate=False,
            classes=self.classes,
            owner=self._owner,
        )

    # -- dataset algebra ---------------------------------------------------

    def subset(self, indices: Indices) -> "Dataset":
        """Row subset; prefix/slice selections are zero-copy column views."""
        if isinstance(indices, range) and len(indices) > 0:
            # NumPy slice views would silently clamp an out-of-range window;
            # a range holds absolute row indices, so fail fast exactly like
            # list indexing would.
            lowest, highest = (
                (indices[0], indices[-1]) if indices.step > 0 else (indices[-1], indices[0])
            )
            if lowest < -self._n or highest >= self._n:
                raise IndexError(
                    f"subset range {indices!r} out of bounds for dataset of "
                    f"length {self._n}"
                )
        window = _as_slice(indices)
        if window is not None:
            return self._take(window)
        if not isinstance(indices, (np.ndarray, list, tuple, range)):
            indices = list(indices)
        return self._take(np.asarray(indices, dtype=np.intp))

    def filter(self, predicate: Callable[[Record, str], bool]) -> "Dataset":
        """Return a dataset with only the records for which ``predicate``
        returns ``True``."""
        keep = [bool(predicate(record, label)) for record, label in self.iter_rows()]
        return self._take(np.flatnonzero(np.asarray(keep, dtype=bool)))

    def shuffled(self, seed: Optional[int] = None) -> "Dataset":
        """Return a copy with records in a random order."""
        rng = np.random.default_rng(seed)
        return self._take(rng.permutation(self._n))

    def split(self, train_fraction: float, seed: Optional[int] = None) -> Tuple["Dataset", "Dataset"]:
        """Split into (train, test) datasets.

        Parameters
        ----------
        train_fraction:
            Fraction of records assigned to the training split, in (0, 1).
        seed:
            Seed for the shuffle applied before splitting.
        """
        if not (0.0 < train_fraction < 1.0):
            raise DataGenerationError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        shuffled = self.shuffled(seed)
        cut = int(round(train_fraction * len(shuffled)))
        cut = min(max(cut, 1), len(shuffled) - 1)
        return shuffled.slice(0, cut), shuffled.slice(cut)

    def concat(self, other: "Dataset") -> "Dataset":
        """This dataset followed by ``other``, column by column."""
        # Imported here: repro.data.chunks builds on this module.
        from repro.data.chunks import concat_chunks

        return concat_chunks((self, other))

    def relabelled(self, labeller: Callable[[Record], str]) -> "Dataset":
        """Return a dataset with labels recomputed by ``labeller``.

        Used by the experiment harness to apply a different Agrawal function
        to an existing attribute sample.
        """
        labels = [labeller(record) for record in self.records]
        return Dataset(
            self.schema, self._columns, labels, validate=False, owner=self._owner
        )

    def relabelled_batch(
        self, batch_labeller: Callable[[Mapping[str, np.ndarray]], np.ndarray]
    ) -> "Dataset":
        """Relabel with a vectorised labeller (one call for all rows)."""
        return Dataset(
            self.schema,
            self._columns,
            batch_labeller(self._columns),
            validate=False,
            owner=self._owner,
        )

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable summary used by examples and reports."""
        dist = self.class_distribution()
        dist_text = ", ".join(f"{label}: {count}" for label, count in dist.items())
        return (
            f"Dataset(n={len(self)}, attributes={self.schema.n_attributes}, "
            f"classes={{{dist_text}}})"
        )
