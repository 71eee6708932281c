"""Columnar weighted datasets: interned-code arrays plus a weight vector.

A :class:`ColumnarDataset` holds the same mathematical object as
:class:`~repro.core.dataset.WeightedDataset` — a finite-support function from
records to real weights — but stores it as NumPy arrays:

* ``columns`` — one ``int64`` code array per record *field* when every record
  is a ``k``-tuple (``arity == k``, the *decomposed* layout), or a single code
  array of whole-record codes otherwise (``arity is None``, the *opaque*
  layout).  Codes come from the process-wide
  :func:`~repro.columnar.interning.global_interner`, so they are comparable
  across datasets.
* ``weights`` — an aligned ``float64`` vector.

Invariants: rows are unique (one row per record with non-zero weight) and
every weight satisfies ``|w| > tolerance``, mirroring ``WeightedDataset``.
Datasets are value objects — kernels never mutate ``columns``/``weights`` of
an existing dataset.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from .interning import global_interner

__all__ = ["ColumnarDataset", "consolidate", "row_groups"]


def row_groups(
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Lexicographically sort rows and detect equal-row groups.

    Returns ``(order, sorted_columns, group_index, representatives)`` where
    ``order`` is the lexsort permutation, ``group_index[i]`` numbers the
    group of sorted row ``i`` and ``representatives`` holds the sorted-row
    position of each group's first row.  This is the one row-merge primitive
    shared by :func:`consolidate` and the binary kernels, so both agree on
    row ordering by construction.
    """
    count = columns[0].shape[0]
    order = np.lexsort(tuple(columns)[::-1])
    sorted_columns = [column[order] for column in columns]
    boundary = np.zeros(count, dtype=bool)
    boundary[0] = True
    for column in sorted_columns:
        np.logical_or(boundary[1:], column[1:] != column[:-1], out=boundary[1:])
    group_index = np.cumsum(boundary) - 1
    return order, sorted_columns, group_index, np.flatnonzero(boundary)


def consolidate(
    columns: Sequence[np.ndarray],
    weights: np.ndarray,
    tolerance: float,
    assume_unique: bool = False,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Merge duplicate rows (summing weights) and drop sub-tolerance dust.

    The row order of the result is the lexicographic code order, which is
    deterministic for a fixed interner state.  ``assume_unique`` skips the
    sort/merge when the caller guarantees rows are already distinct.
    """
    weights = np.asarray(weights, dtype=np.float64)
    count = weights.shape[0]
    if count and not assume_unique:
        order, columns, group_index, representatives = row_groups(columns)
        weights = np.bincount(group_index, weights=weights[order])
        columns = [column[representatives] for column in columns]
    keep = np.abs(weights) > tolerance
    if not keep.all():
        columns = [column[keep] for column in columns]
        weights = weights[keep]
    return tuple(columns), weights


class ColumnarDataset:
    """An immutable weighted dataset in columnar, dictionary-encoded form."""

    __slots__ = (
        "columns",
        "weights",
        "arity",
        "tolerance",
        "_record_codes",
        "_records",
        "_norm",
    )

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        weights: np.ndarray,
        arity: int | None,
        tolerance: float = DEFAULT_TOLERANCE,
        assume_unique: bool = False,
    ) -> None:
        columns, weights = consolidate(columns, weights, tolerance, assume_unique)
        expected = 1 if arity is None else arity
        if len(columns) != expected:
            raise ValueError(
                f"expected {expected} columns for arity {arity!r}, got {len(columns)}"
            )
        self.columns = columns
        self.weights = weights
        self.arity = arity
        self.tolerance = float(tolerance)
        self._record_codes: np.ndarray | None = (
            columns[0] if arity is None else None
        )
        self._records: list | None = None
        self._norm: float | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, tolerance: float = DEFAULT_TOLERANCE, arity: int | None = None
    ) -> "ColumnarDataset":
        """The empty dataset in the given layout."""
        width = 1 if arity is None else arity
        columns = tuple(np.empty(0, dtype=np.int64) for _ in range(width))
        return cls(columns, np.empty(0, dtype=np.float64), arity, tolerance, True)

    @classmethod
    def from_pairs(
        cls,
        records: Iterable[Any],
        weights: Iterable[float] | np.ndarray,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "ColumnarDataset":
        """Build from aligned records and weights, detecting the layout.

        Records that are all plain tuples of one common length decompose into
        per-field columns (the layout the vectorized join/filter fast paths
        need); anything else — scalars, strings, mixed arities, namedtuples —
        is stored opaquely as whole-record codes.  ``type(r) is tuple`` is
        checked exactly so tuple subclasses survive round-trips intact.
        """
        records = list(records)
        weights = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64)
        if len(records) != weights.shape[0]:
            raise ValueError("records and weights must be aligned")
        interner = global_interner()
        if records and all(type(record) is tuple for record in records):
            width = len(records[0])
            if width >= 1 and all(len(record) == width for record in records):
                columns = tuple(
                    interner.codes([record[index] for record in records])
                    for index in range(width)
                )
                return cls(columns, weights, width, tolerance)
        return cls((interner.codes(records),), weights, None, tolerance)

    @classmethod
    def from_weighted(
        cls, dataset: WeightedDataset, tolerance: float | None = None
    ) -> "ColumnarDataset":
        """Encode a :class:`WeightedDataset` (records unique by construction)."""
        records = list(dataset.records())
        weights = np.fromiter(
            (dataset.weight(record) for record in records),
            dtype=np.float64,
            count=len(records),
        )
        return cls.from_pairs(
            records,
            weights,
            dataset.tolerance if tolerance is None else tolerance,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Support size (rows with non-zero weight)."""
        return int(self.weights.shape[0])

    def is_empty(self) -> bool:
        return self.weights.shape[0] == 0

    @property
    def decomposed(self) -> bool:
        """True when records are stored as per-field columns."""
        return self.arity is not None

    def total_weight(self) -> float:
        """``‖A‖ = Σ_x |A(x)|``."""
        if self._norm is None:
            self._norm = float(np.abs(self.weights).sum())
        return self._norm

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def record_codes(self) -> np.ndarray:
        """Whole-record codes (decomposed layouts intern their tuples once)."""
        if self._record_codes is None:
            self._record_codes = global_interner().codes(self.records())
        return self._record_codes

    def records(self) -> list[Any]:
        """The record objects, row-aligned with :attr:`weights` (cached)."""
        if self._records is None:
            interner = global_interner()
            if self.arity is None:
                self._records = interner.atoms(self.columns[0])
            else:
                self._records = list(
                    zip(*(interner.atoms(column) for column in self.columns))
                )
        return self._records

    def as_opaque(self) -> "ColumnarDataset":
        """This dataset re-encoded with one whole-record code column."""
        if self.arity is None:
            return self
        return ColumnarDataset(
            (self.record_codes(),), self.weights, None, self.tolerance, True
        )

    def to_weighted(self) -> WeightedDataset:
        """Decode back into a dictionary-backed :class:`WeightedDataset`."""
        return WeightedDataset(
            zip(self.records(), self.weights.tolist()), tolerance=self.tolerance
        )

    def __repr__(self) -> str:
        # Sanctioned debug affordance (as in WeightedDataset.__repr__): the
        # norm is shown for interactive use only, never logged on release.
        layout = "opaque" if self.arity is None else f"arity={self.arity}"
        return (
            f"ColumnarDataset(rows={len(self)}, {layout}, "  # lint: disable=R004
            f"norm={self.total_weight():.6g})"
        )
