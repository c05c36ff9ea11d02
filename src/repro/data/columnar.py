"""Columnar datasets: one NumPy array per attribute, labels as class codes.

:class:`ColumnarDataset` is the library's one columnar batch type.  It is a
:class:`~repro.data.dataset.Dataset` — training, rule extraction, the
baselines and the metrics take it as is — and it is what every pipeline
stage hands to the next: the vectorised Agrawal generator produces it, the
encoder's batch path and the compiled rule evaluators read its columns, the
serving layer attaches predicted label codes to it and the tuple store loads
and streams it.  Multi-million-tuple workloads never build a per-record dict
unless something genuinely record-oriented (C4.5 tree induction, JSON export
of single tuples) asks for one.

Design notes
------------
* **Read-only columns.**  Columns are stored as non-writeable views of the
  arrays passed in (no copies; the caller's arrays stay writeable).  An
  optional ``owner`` — e.g. the shared-memory segment of
  :func:`repro.data.chunks.chunk_from_shared` — is kept alive as long as the
  dataset and every view taken from it.
* **Labels are int64 codes** into a ``classes`` tuple (``schema.classes``
  unless given).  String labels passed to the constructor are converted
  once, and an unknown label raises :class:`SchemaError` right there.
  Strings materialise only for the consumers that ask (``labels``,
  ``label_array``).  Labels are optional: an unlabelled dataset is the input
  of a classification job.
* ``records`` and ``labels`` are lazy properties that materialise (and
  cache) plain-Python structures on first access.  Materialised records
  carry Python scalars (``int``/``float``/``str``), so they compare equal to
  scalar-generated records and serialise straight to JSON.
* **Zero-copy views.**  :meth:`~ColumnarDataset.slice`,
  :meth:`~ColumnarDataset.iter_chunks`,
  :meth:`~ColumnarDataset.with_label_codes`,
  :meth:`~ColumnarDataset.without_labels` and ``subset`` with a
  ``range``/``slice`` of step 1 share the parent's buffers — the nested
  Table-3 prefix test sets of :mod:`repro.experiments.function4` included.
* Integer-valued attributes keep an integer dtype (the schema's ``integer``
  flag and categorical int domains drive this).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.data.schema import AttributeValue, Schema
from repro.exceptions import DataGenerationError, SchemaError

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


class ColumnarDataset(Dataset):
    """A (possibly unlabelled) dataset stored as per-attribute column arrays.

    Parameters
    ----------
    schema:
        The attribute schema the columns conform to.
    columns:
        Mapping from attribute name to an equal-length 1-D array (anything
        ``np.asarray`` accepts).  Every schema attribute must be present.
        Arrays are wrapped in read-only views; no copies are made.
    labels:
        Class label per row — strings from ``classes``, or their integer
        codes (indices into ``classes``) — or ``None`` for an unlabelled
        dataset.  Either way they are stored as an int64 code array.
    validate:
        When ``True``, vectorised range/domain checks run over every column
        (the columnar analogue of ``Schema.validate_record``).  Labels are
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
        # Deliberately no super().__init__(): records/labels are lazy
        # properties here, not stored fields.
        self.schema = schema
        self.validate = validate
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
        self._label_array = None  # mirrors the Dataset field used by label_indices
        if validate:
            self._validate_columns()

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
    def labels(self) -> List[str]:  # type: ignore[override]
        """Labels as a plain list, materialised lazily on first access."""
        if self._labels_cache is None:
            self._labels_cache = self.label_array().tolist()
        return self._labels_cache

    def label_indices(self) -> np.ndarray:
        """Labels as indices into ``schema.classes``.

        The codes themselves, unless this dataset's class vocabulary differs
        from the schema's (e.g. codes attached by a model).
        """
        if self._label_array is None:
            if self.classes == tuple(self.schema.classes):
                self._label_array = self.label_codes
            else:
                self._label_array = codes_from_labels(
                    self.label_array(), self.schema.classes
                )
        return self._label_array

    def class_distribution(self) -> Dict[str, int]:
        counts = np.bincount(self.label_indices(), minlength=self.schema.n_classes)
        return dict(zip(self.schema.classes, counts.tolist()))

    def class_skew(self) -> float:
        if not self._n:
            raise DataGenerationError("cannot compute skew of an empty dataset")
        return max(self.class_distribution().values()) / self._n

    # -- Dataset contract --------------------------------------------------

    @property
    def records(self) -> List[Record]:  # type: ignore[override]
        """Per-record dicts, materialised lazily on first access."""
        if self._records_cache is None:
            names = self.schema.attribute_names
            lists = [self._columns[name].tolist() for name in names]
            self._records_cache = [
                dict(zip(names, row)) for row in zip(*lists)
            ] if lists else []
        return self._records_cache

    @property
    def records_materialized(self) -> bool:
        """Whether the per-record dict view has been built."""
        return self._records_cache is not None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        state = "labelled" if self.is_labelled else "unlabelled"
        return (
            f"ColumnarDataset(n={self._n}, "
            f"attributes={self.schema.n_attributes}, "
            f"classes={self.classes}, {state})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        labelled = getattr(other, "is_labelled", True)
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.schema.classes == other.schema.classes
            and self.is_labelled == labelled
            and (not labelled or self.labels == other.labels)
            and self.records == other.records
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container, like Dataset

    def attribute_column(self, name: str) -> np.ndarray:
        attr = self.schema.attribute(name)
        column = self._columns[name]
        if attr.is_continuous:
            return column.astype(float) if column.dtype != float else column
        out = np.empty(len(column), dtype=object)
        out[:] = column.tolist()
        return out

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

    def _take(self, selector: Union[slice, np.ndarray]) -> "ColumnarDataset":
        """Rows ``selector`` (a slice view or an index-array copy)."""
        return ColumnarDataset(
            self.schema,
            {name: column[selector] for name, column in self._columns.items()},
            None if self._codes is None else self._codes[selector],
            validate=False,
            classes=self.classes,
            owner=self._owner if isinstance(selector, slice) else None,
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "ColumnarDataset":
        """Rows ``start:stop`` as a zero-copy view."""
        return self._take(slice(start, stop))

    def iter_chunks(self, chunk_size: int) -> Iterator["ColumnarDataset"]:
        """Yield zero-copy views of at most ``chunk_size`` rows, in order."""
        if chunk_size <= 0:
            raise SchemaError(f"chunk size must be positive, got {chunk_size}")
        for start in range(0, self._n, chunk_size):
            yield self.slice(start, start + chunk_size)

    def with_label_codes(
        self, label_codes: np.ndarray, classes: Optional[Sequence[str]] = None
    ) -> "ColumnarDataset":
        """These columns with a (new) label-code array — zero-copy."""
        return ColumnarDataset(
            self.schema,
            self._columns,
            label_codes,
            validate=False,
            classes=self.classes if classes is None else classes,
            owner=self._owner,
        )

    def without_labels(self) -> "ColumnarDataset":
        """These columns with the labels dropped — zero-copy."""
        return ColumnarDataset(
            self.schema,
            self._columns,
            validate=False,
            classes=self.classes,
            owner=self._owner,
        )

    # -- dataset algebra ---------------------------------------------------

    def subset(self, indices: Indices) -> Dataset:
        """Row subset; prefix/slice selections are zero-copy column views.

        Once the per-record dicts exist, subsetting returns a record-backed
        :class:`Dataset` sharing the dict objects instead — recursive
        consumers (C4.5 tree induction) would otherwise rebuild dicts for
        every partition.
        """
        if isinstance(indices, range) and len(indices) > 0:
            # NumPy slice views would silently clamp an out-of-range window;
            # a range holds absolute row indices, so fail fast exactly like
            # list indexing on the record-backed Dataset would.
            lowest, highest = (
                (indices[0], indices[-1]) if indices.step > 0 else (indices[-1], indices[0])
            )
            if lowest < -self._n or highest >= self._n:
                raise IndexError(
                    f"subset range {indices!r} out of bounds for dataset of "
                    f"length {self._n}"
                )
        if self._records_cache is not None:
            if isinstance(indices, slice):
                indices = range(*indices.indices(self._n))
            elif not isinstance(indices, (list, tuple, range)):
                indices = list(indices)
            return super().subset(indices)
        window = _as_slice(indices)
        return self._take(
            window if window is not None else np.asarray(indices, dtype=np.intp)
        )

    def concat(self, other: Dataset) -> Dataset:
        """This dataset followed by ``other``.

        Two columnar datasets concatenate column-wise
        (:func:`~repro.data.chunks.concat_chunks`); a record-backed ``other``
        yields a record-backed :class:`Dataset`.
        """
        if not isinstance(other, ColumnarDataset):
            return super().concat(other)
        # Imported here: repro.data.chunks builds on this module.
        from repro.data.chunks import concat_chunks

        return concat_chunks((self, other))

    def relabelled(self, labeller: Callable[[Record], str]) -> "ColumnarDataset":
        labels = [labeller(record) for record in self.records]
        return ColumnarDataset(
            self.schema, self._columns, labels, validate=False, owner=self._owner
        )

    def relabelled_batch(
        self, batch_labeller: Callable[[Mapping[str, np.ndarray]], np.ndarray]
    ) -> "ColumnarDataset":
        """Relabel with a vectorised labeller (one call for all rows)."""
        return ColumnarDataset(
            self.schema,
            self._columns,
            batch_labeller(self._columns),
            validate=False,
            owner=self._owner,
        )

    def to_dataset(self) -> Dataset:
        """An equivalent record-backed :class:`Dataset` (materialises)."""
        return Dataset(self.schema, list(self.records), list(self.labels), validate=False)


def columnar_from_records(
    schema: Schema,
    records: Sequence[Record],
    labels: Sequence[str],
    validate: bool = True,
) -> ColumnarDataset:
    """Build a :class:`ColumnarDataset` from per-record mappings.

    Integer-flagged continuous attributes and all-int categorical domains get
    integer columns; other continuous attributes get float columns; anything
    else falls back to object dtype.
    """
    columns: Dict[str, np.ndarray] = {}
    for attribute in schema.attributes:
        try:
            values = [record[attribute.name] for record in records]
        except KeyError as exc:
            raise SchemaError(f"record missing attribute {attribute.name!r}") from exc
        if attribute.is_continuous:
            dtype = np.int64 if getattr(attribute, "integer", False) else float
            columns[attribute.name] = np.asarray(values, dtype=dtype)
        elif all(isinstance(v, (int, np.integer)) for v in attribute.values):
            columns[attribute.name] = np.asarray(values, dtype=np.int64)
        else:
            column = np.empty(len(values), dtype=object)
            column[:] = values
            columns[attribute.name] = column
    return ColumnarDataset(schema, columns, labels, validate=validate)
