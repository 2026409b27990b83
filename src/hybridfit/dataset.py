"""Experiment tables: ingestion, factor coding, design matrices, replicates.

A :class:`Dataset` holds runs in natural units exactly as read from file.
Fitting happens in coded units, where each factor's low/center/high settings
sit at -1/0/+1; :func:`code` applies that affine transform, and
:func:`build_design` expands coded levels into a polynomial basis matrix.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DegenerateFactorError, SchemaError, ShapeError, TableParseError


@dataclass(frozen=True)
class FactorSpec:
    """One explanatory variable: its name and coding anchors in natural units.

    ``center`` defaults to the midpoint of ``low`` and ``high``, which is
    where replicated center runs of the bundled designs sit.
    """

    name: str
    low: float
    high: float
    center: float | None = None
    units: str = ""

    def __post_init__(self) -> None:
        if self.center is None:
            object.__setattr__(self, "center", (self.low + self.high) / 2.0)
        if not (self.low < self.center < self.high):
            raise DegenerateFactorError(
                f"factor {self.name!r} needs low < center < high, got "
                f"{self.low}, {self.center}, {self.high}"
            )

    @property
    def half_range(self) -> float:
        return (self.high - self.low) / 2.0

    def code(self, natural):
        """Map natural values to coded units; low/center/high land exactly
        on -1/0/+1."""
        natural = np.asarray(natural, dtype=float)
        coded = (natural - self.center) / self.half_range
        coded = np.where(natural == self.low, -1.0, coded)
        coded = np.where(natural == self.high, 1.0, coded)
        coded = np.where(natural == self.center, 0.0, coded)
        return coded if coded.ndim else float(coded)

    def decode(self, coded):
        """Inverse affine map from coded units back to natural units."""
        coded = np.asarray(coded, dtype=float)
        natural = self.center + coded * self.half_range
        natural = np.where(coded == -1.0, self.low, natural)
        natural = np.where(coded == 1.0, self.high, natural)
        natural = np.where(coded == 0.0, self.center, natural)
        return natural if natural.ndim else float(natural)


@dataclass(frozen=True)
class Dataset:
    """Observed runs: natural factor settings, the response, and any extra
    named columns carried along from the source file (for example a
    precomputed theory column).  Row order is run order and is preserved."""

    factors: tuple[FactorSpec, ...]
    naturals: np.ndarray
    response: np.ndarray
    response_units: str = ""
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        naturals = np.atleast_2d(np.asarray(self.naturals, dtype=float))
        response = np.asarray(self.response, dtype=float).ravel()
        object.__setattr__(self, "naturals", naturals)
        object.__setattr__(self, "response", response)
        if naturals.shape[0] == 0:
            raise ShapeError("dataset needs at least one row")
        if naturals.shape[1] != len(self.factors):
            raise ShapeError(
                f"{naturals.shape[1]} factor columns but "
                f"{len(self.factors)} factor specs"
            )
        if response.shape[0] != naturals.shape[0]:
            raise ShapeError(
                f"{naturals.shape[0]} rows but {response.shape[0]} responses"
            )
        for name, col in self.extras.items():
            if np.asarray(col).shape != (naturals.shape[0],):
                raise ShapeError(f"extra column {name!r} has the wrong length")

    @property
    def n_runs(self) -> int:
        return self.naturals.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class TableSchema:
    """Which named columns of a delimited file hold the factors, the
    response, and any extra columns to carry along."""

    factors: tuple[FactorSpec, ...]
    response: str
    extras: tuple[str, ...] = ()
    response_units: str = ""


@dataclass(frozen=True)
class DesignMatrix:
    """Basis-expanded matrix of coded levels with a leading intercept column."""

    values: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.shape[1] != len(self.column_labels):
            raise ShapeError("one label per design column required")
        if not np.all(values[:, 0] == 1.0):
            raise ShapeError("first design column must be the intercept (all ones)")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_coef(self) -> int:
        return self.values.shape[1]


def _split_line(line: str, delimiter: str | None) -> list[str]:
    if delimiter is None:
        return line.split()
    return next(csv.reader([line], delimiter=delimiter))


def _sniff_delimiter(header: str) -> str | None:
    for cand in ("\t", ",", ";"):
        if cand in header:
            return cand
    return None  # fall back to whitespace splitting


def peek_columns(source: str | Path) -> list[str]:
    """Column names from a delimited file's header row."""
    for line in Path(source).read_text(encoding="utf-8").splitlines():
        if line.strip():
            return [h.strip() for h in _split_line(line, _sniff_delimiter(line))]
    raise SchemaError(f"{source}: empty file, no header row")


def load_table(
    source: str | Path | IO[str] | IO[bytes],
    schema: TableSchema,
) -> Dataset:
    """Read a delimited text table (header row, one run per line) into a
    :class:`Dataset`.

    Natural units are preserved verbatim and rows keep file order.  Raises
    :class:`SchemaError` when a named column is missing and
    :class:`TableParseError` (with row and column) on a non-numeric or
    non-finite cell.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    lines = [ln for ln in io.StringIO(text) if ln.strip()]
    if not lines:
        raise SchemaError("empty file: no header row")

    delimiter = _sniff_delimiter(lines[0])
    header = [h.strip() for h in _split_line(lines[0].rstrip("\n"), delimiter)]
    wanted = [f.name for f in schema.factors] + [schema.response] + list(schema.extras)
    col_index: dict[str, int] = {}
    for name in wanted:
        if name not in header:
            raise SchemaError(f"column {name!r} not found; header has {header}")
        col_index[name] = header.index(name)

    rows = lines[1:]
    if not rows:
        raise SchemaError("no data rows after the header")

    def parse_cell(token: str, row: int, name: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise TableParseError(
                f"row {row}, column {name!r}: cannot parse {token!r} as a number"
            ) from None

    parsed: dict[str, list[float]] = {name: [] for name in col_index}
    for i, line in enumerate(rows, start=1):
        cells = _split_line(line.rstrip("\n"), delimiter)
        for name, idx in col_index.items():
            if idx >= len(cells):
                raise TableParseError(f"row {i}: missing cell for column {name!r}")
            parsed[name].append(parse_cell(cells[idx].strip(), i, name))

    names = list(parsed)
    table = np.array([parsed[name] for name in names])
    # float() accepts "nan" and "inf": reject them in one pass over the table.
    bad = np.argwhere(~np.isfinite(table.T))
    if bad.size:
        row, col = bad[0]
        raise TableParseError(
            f"row {row + 1}, column {names[col]!r}: non-finite value "
            f"{float(table[col, row])!r}"
        )
    column = dict(zip(names, table))
    naturals = np.column_stack([column[f.name] for f in schema.factors])
    response = column[schema.response]
    extras = {name: column[name] for name in schema.extras}
    return Dataset(
        factors=tuple(schema.factors),
        naturals=naturals,
        response=response,
        response_units=schema.response_units,
        extras=extras,
    )


def code(ds: Dataset) -> np.ndarray:
    """Coded levels for every run: column j is factor j's affine transform."""
    return np.column_stack(
        [spec.code(ds.naturals[:, j]) for j, spec in enumerate(ds.factors)]
    )


def decode(factors: Sequence[FactorSpec], coded: np.ndarray) -> np.ndarray:
    """Natural-unit values for a matrix of coded levels."""
    coded = np.atleast_2d(np.asarray(coded, dtype=float))
    if coded.shape[1] != len(factors):
        raise ShapeError("one factor spec per coded column required")
    return np.column_stack(
        [spec.decode(coded[:, j]) for j, spec in enumerate(factors)]
    )


def build_design(
    coded: np.ndarray,
    order: str,
    names: Iterable[str] | None = None,
) -> DesignMatrix:
    """Polynomial design matrix from coded levels.

    ``order="first"`` gives columns [1, x1..xk]; ``order="second"`` appends
    all squares, then all pairwise cross products in lexicographic factor
    order, so for k=3 the labels run
    1, x1, x2, x3, x1^2, x2^2, x3^2, x1*x2, x1*x3, x2*x3.
    """
    coded = np.atleast_2d(np.asarray(coded, dtype=float))
    k = coded.shape[1]
    names = list(names) if names is not None else [f"x{j + 1}" for j in range(k)]
    if len(names) != k:
        raise ShapeError("one name per coded column required")

    columns = [np.ones(coded.shape[0])]
    labels = ["1"]
    columns += [coded[:, j] for j in range(k)]
    labels += names
    if order == "second":
        columns += [coded[:, j] ** 2 for j in range(k)]
        labels += [f"{name}^2" for name in names]
        for a in range(k):
            for b in range(a + 1, k):
                columns.append(coded[:, a] * coded[:, b])
                labels.append(f"{names[a]}*{names[b]}")
    elif order != "first":
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    return DesignMatrix(np.column_stack(columns), tuple(labels))


def identical_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-D array by exact equality of their values.

    Returns ``(first, group)``: ``group[i]`` numbers row i's group and
    ``first[g]`` is the index of group g's first row.  Groups are numbered
    in order of first appearance, so ``first`` is increasing.  Signed zeros
    compare equal, as they do as numbers.
    """
    # Adding 0.0 folds -0.0 into 0.0, so each row's bytes are a key for its
    # values; one sort of the byte keys is much cheaper than np.unique(axis=0).
    rows = np.ascontiguousarray(np.atleast_2d(np.asarray(values, dtype=float)) + 0.0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(
        keys.ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse.ravel()]


def row_groups(values: np.ndarray) -> list[list[int]]:
    """Row indices grouped by identical rows of ``values``.  Singleton
    groups are included, so the groups partition the rows; groups are in
    order of first appearance and indices ascend within each group."""
    _, group = identical_rows(values)
    members = np.argsort(group, kind="stable").tolist()
    ends = np.cumsum(np.bincount(group)).tolist()
    return [members[start:end] for start, end in zip([0] + ends, ends)]


def replicate_groups(ds: Dataset) -> list[list[int]]:
    """Row indices grouped by identical settings (exact equality of coded
    values).  Singleton groups are included, so the groups partition the
    run list; order is by first appearance."""
    return row_groups(code(ds))
